#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dbg/contig.hpp"
#include "io/wire.hpp"
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
/// gap closing) O(1) location of any contig by id. Remote sequence reads
/// are one-sided and charged by the byte, like UPC global-pointer derefs;
/// a per-rank direct-mapped cache of whole contigs (slot = id % 64)
/// collapses repeated fetches of hot contigs.
namespace hipmer::align {

class ContigStore {
 public:
  struct Meta {
    std::uint32_t length = 0;
    float avg_depth = 0.0f;
    char left_term = 'X';
    char right_term = 'X';
  };

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

  /// One-sided read of contig `id`'s metadata.
  [[nodiscard]] Meta meta(pgas::Rank& rank,
                          std::uint64_t id HIPMER_SITE_DEFAULT) const;

  /// One-sided read of `len` bases starting at `start` (clamped to the
  /// contig). Remote contigs go through the per-rank cache.
  [[nodiscard]] std::string fetch(pgas::Rank& rank, std::uint64_t id,
                                  std::uint32_t start,
                                  std::uint32_t len HIPMER_SITE_DEFAULT) const;

  /// Fetch the whole contig sequence.
  [[nodiscard]] std::string fetch_all(pgas::Rank& rank,
                                      std::uint64_t id HIPMER_SITE_DEFAULT) const;

  /// One-sided read of the complete contig record (sequence, depth,
  /// termination states with junction k-mers). Used by bubble merging,
  /// which needs the ends' junction data.
  [[nodiscard]] dbg::Contig fetch_record(pgas::Rank& rank,
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
  [[nodiscard]] std::uint64_t local_bases(int rank) const;

 private:
  [[nodiscard]] const dbg::Contig* local_lookup(std::uint64_t id) const;

  // Multi-process fabric: the owner's shard is in another address space,
  // so one-sided reads become a request/response round trip. Charging is
  // unchanged and stays initiator-side (mirror counters sum to the same
  // global totals as the threads fabric).
  [[nodiscard]] std::vector<std::byte> serve_fetch(const std::byte* data,
                                                   std::size_t size) const;
  [[nodiscard]] std::vector<std::byte> remote_call(std::uint8_t op,
                                                   std::uint64_t id,
                                                   int owner) const;
  [[nodiscard]] bool remote(int owner) const;

  pgas::ThreadTeam* team_;
  int nranks_;
  std::atomic<std::uint64_t> total_{0};
  /// shards_[r] holds contigs with id % P == r, sorted by id.
  std::vector<std::vector<dbg::Contig>> shards_;
  /// Per-rank caches of remote contig sequences, reset by build (mutable:
  /// fetch is logically const).
  using Cache = pgas::ReadCache<std::uint64_t, std::string>;
  mutable std::vector<Cache> caches_;
  /// Fabric RPC service id for remote fetches (multi-process teams only).
  std::uint32_t rpc_ = 0;
#if defined(HIPMER_CHECKED)
  // ContigStore is not a DistHashMap but obeys the same phase contract:
  // build/set_local_depth are its write phase, one-sided meta/fetch reads
  // its read phase. mutable: reads are logically const but record events.
  mutable pgas::CheckedTable checked_;
#endif
};

/// Field-wise Meta codec (schema `contig_meta`). Meta used to cross the
/// fabric as a whole-struct put_pod, which shipped its two padding bytes
/// (u32 + float + 2 char = 10 live bytes, sizeof == 12): dead wire bytes
/// that decoded identically under any corruption. Writing the four fields
/// explicitly keeps every wire byte live and the format layout-independent.
void put_contig_meta(io::wire::Writer& w, const ContigStore::Meta& m);
[[nodiscard]] ContigStore::Meta get_contig_meta_checked(io::wire::Reader& r);

}  // namespace hipmer::align
