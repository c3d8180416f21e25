#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "dbg/contig.hpp"
#include "pgas/checked.hpp"
#include "pgas/read_cache.hpp"
#include "pgas/thread_team.hpp"

#if defined(HIPMER_CHECKED)
#include "pgas/phase_checker.hpp"
#endif

/// Distributed contig storage.
///
/// Contigs come out of the traversal on whichever rank happened to complete
/// them; the store redistributes them so contig c lives on rank c % P,
/// giving every later stage (seed-index construction, alignment extension,
/// gap closing) O(1) location of any contig by id. Every read goes through
/// `read`: owner-local records are read in place, remote ones land in a
/// per-rank direct-mapped cache of whole records (slot = id % 64), so a
/// remote contig is charged one message of its sequence bytes per miss,
/// like a UPC global-pointer dereference, and nothing on a hit.
namespace hipmer::align {

class ContigStore {
 public:
  explicit ContigStore(pgas::ThreadTeam& team);

  /// Collective: move each contig to rank (id % P). `my_contigs` is
  /// whatever this rank produced during traversal.
  void build(pgas::Rank& rank,
             const std::vector<dbg::Contig>& my_contigs HIPMER_SITE_DEFAULT);

  [[nodiscard]] std::uint64_t num_contigs() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int owner_of(std::uint64_t contig_id) const noexcept {
    return static_cast<int>(contig_id % static_cast<std::uint64_t>(nranks_));
  }

  /// Contig `id`'s record: the owner's own when this rank owns it,
  /// otherwise this rank's cache slot, filled from the owner on a miss. An
  /// absent id reads as an empty record. The reference stays valid until
  /// this rank's next `read`. Charges one local access when owned, one
  /// message of the sequence bytes on a remote miss, nothing on a hit.
  /// The cache is not invalidated by `set_local_depth`, so depth writes
  /// belong to the write phase before any read.
  [[nodiscard]] const dbg::Contig& read(pgas::Rank& rank,
                                        std::uint64_t id
                                            HIPMER_SITE_DEFAULT) const;

  /// Iterate contigs owned by this rank: fn(id, const Contig&).
  template <typename Fn>
  void for_each_local(pgas::Rank& rank, Fn&& fn) const {
    const auto& shard = shards_[static_cast<std::size_t>(rank.id())];
    for (const auto& contig : shard) fn(contig.id, contig);
  }

  /// Owner-side depth update (the §4.1 depth recomputation writes back
  /// through this; call only for contigs owned by `rank`, after build and
  /// behind a barrier).
  void set_local_depth(pgas::Rank& rank, std::uint64_t id,
                       double depth HIPMER_SITE_DEFAULT);

  /// Total bases across this rank's contigs.
  [[nodiscard]] std::uint64_t local_bases(int rank) const {
    return local_kmers(rank, 1);
  }
  /// k-mers across this rank's contigs: the sum of max(0, len - k + 1).
  [[nodiscard]] std::uint64_t local_kmers(int rank, int k) const;

 private:
  [[nodiscard]] const dbg::Contig* local_lookup(std::uint64_t id) const;

  // Multi-process fabric: the owner's shard is in another address space,
  // so one-sided reads become a request/response round trip. Charging is
  // unchanged and stays initiator-side (mirror counters sum to the same
  // global totals as the threads fabric).
  [[nodiscard]] std::vector<std::byte> serve_read(const std::byte* data,
                                                  std::size_t size) const;
  [[nodiscard]] dbg::Contig remote_call(std::uint64_t id, int owner) const;
  [[nodiscard]] bool remote(int owner) const;

  pgas::ThreadTeam* team_;
  int nranks_;
  std::atomic<std::uint64_t> total_{0};
  /// shards_[r] holds contigs with id % P == r, sorted by id.
  std::vector<std::vector<dbg::Contig>> shards_;
  /// Per-rank caches of remote contig records, reset by build (mutable:
  /// read is logically const).
  using Cache = pgas::ReadCache<std::uint64_t, dbg::Contig>;
  mutable std::vector<Cache> caches_;
  /// Fabric RPC service id for remote reads (multi-process teams only).
  std::uint32_t rpc_ = 0;
#if defined(HIPMER_CHECKED)
  // ContigStore is not a DistHashMap but obeys the same phase contract:
  // build/set_local_depth are its write phase, reads its read phase.
  // mutable: reads are logically const but record events.
  mutable pgas::CheckedTable checked_;
#endif
};

}  // namespace hipmer::align
