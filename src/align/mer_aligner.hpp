#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "align/alignment.hpp"
#include "align/contig_store.hpp"
#include "align/smith_waterman.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/read.hpp"
#include "seq/read_store.hpp"
#include "seq/types.hpp"

/// merAligner: parallel seed-and-extend read-to-contig alignment (§4.3).
///
/// "MerAligner implements a seed-and-extend algorithm and fully parallelizes
/// all of its components", including the lookup-table (seed index)
/// construction that other aligners build serially. Structure:
///
///   - **Seed index**: a distributed hash table mapping every canonical
///     k-mer of every contig to its (contig, position, strand) hits, built
///     collectively with aggregating stores. K-mers occurring in more than
///     `max_seed_hits` places are marked repetitive and ignored as seeds —
///     the standard defense against repeat k-mers exploding candidate
///     lists.
///   - **Seed lookup**: each rank streams its reads in chunks, sampling
///     k-mers every `seed_stride` bases, and resolves candidate (contig,
///     diagonal, strand) placements through the index's batched read path:
///     lookups are aggregated per owner and fronted by a per-rank software
///     cache (the journal version's cached + aggregated lookups).
///   - **Extend**: candidates are scored against contig sequence fetched
///     from the distributed ContigStore (cached). The fast path is a
///     gap-free diagonal extension; if its score is weak the banded
///     Smith–Waterman runs.
namespace hipmer::align {

struct AlignerConfig {
  /// Seed length; the pipeline reuses the assembly k.
  int seed_k = 31;
  /// Sample a seed every this many read bases (1 = every k-mer).
  int seed_stride = 16;
  /// Ignore seeds with more hits than this (repetitive).
  int max_seed_hits = 4;
  /// Keep alignments scoring at least this fraction of read length.
  double min_score_fraction = 0.25;
  /// Max alignments reported per read (best-scoring kept).
  int max_alignments_per_read = 4;
  /// Smith-Waterman band half-width for the fallback path.
  int sw_band = 4;
  /// Aggregating-stores batch size for index construction.
  std::size_t flush_threshold = 512;
  /// Reads seeded per batched-lookup round in align_reads.
  std::size_t lookup_chunk = 256;
  /// Per-rank software read-cache capacity for seed lookups (entries).
  /// Reads cover the genome many times over, so the same seed k-mers
  /// recur; caching them turns repeat off-node lookups into local hits.
  std::size_t read_cache_capacity = 1 << 15;
  Scoring scoring;
};

class MerAligner {
 public:
  /// A seed hit: where a canonical k-mer occurs in the contig set.
  struct SeedHits {
    static constexpr int kMaxInline = 4;
    struct Hit {
      std::uint32_t contig_id;
      std::uint32_t pos;        // forward-contig coordinate of the k-mer
      std::uint8_t fwd;         // 1 if the canonical form matches contig-forward
    };
    Hit hits[kMaxInline];
    std::uint8_t count = 0;
    std::uint8_t overflowed = 0;  // more hits existed than fit -> repetitive
  };

  using SeedIndex =
      pgas::DistHashMap<seq::KmerT, SeedHits, seq::KmerHashT, struct SeedMerge>;

  MerAligner(pgas::ThreadTeam& team, AlignerConfig config,
             std::size_t expected_seed_kmers);
  ~MerAligner();

  /// Collective: index the contigs owned by this rank in `store`.
  void build_index(pgas::Rank& rank, const ContigStore& store);

  /// Align this rank's reads; `library` tags the records. Returns the
  /// alignments found (all candidates above threshold, best first, capped).
  /// Packed stores feed the seed scanner from their 2-bit words and
  /// decode to chars only for the extend phase.
  [[nodiscard]] std::vector<ReadAlignment> align_reads(
      pgas::Rank& rank, const ContigStore& store, const seq::ReadStore& reads,
      int library);

  [[nodiscard]] const AlignerConfig& config() const noexcept { return config_; }

 private:
  struct Candidate {
    std::uint32_t contig_id;
    std::int32_t shift;  // contig_pos - read_pos on the shared diagonal
    bool read_fwd;

    friend bool operator<(const Candidate& a, const Candidate& b) noexcept {
      if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
      if (a.read_fwd != b.read_fwd) return a.read_fwd < b.read_fwd;
      return a.shift < b.shift;
    }
    friend bool operator==(const Candidate& a, const Candidate& b) noexcept {
      return a.contig_id == b.contig_id && a.shift == b.shift &&
             a.read_fwd == b.read_fwd;
    }
  };

  /// One sampled seed k-mer awaiting (or holding) its index lookup result.
  /// Filled in by the batched-lookup handler; tag = slot index.
  struct SeedSlot {
    std::uint32_t read_idx;  // ordinal within the current chunk
    std::int32_t pos;        // sample position in the read
    std::uint8_t flipped;    // canonical form was the read's revcomp
    std::uint8_t found;      // index had an entry for this k-mer
    SeedHits hits;
  };

  /// Extend phase for one read whose seed lookups (slots [begin,end)) have
  /// already been resolved by the batched read path.
  void extend_one(pgas::Rank& rank, const ContigStore& store,
                  std::string_view read_seq, const std::vector<SeedSlot>& slots,
                  std::size_t begin, std::size_t end, std::uint64_t pair_id,
                  int mate, int library, std::vector<ReadAlignment>& out);

  pgas::ThreadTeam& team_;
  AlignerConfig config_;
  std::unique_ptr<SeedIndex> index_;
};

/// Merge functor: append hits until the inline capacity is exceeded, then
/// mark the k-mer repetitive.
struct SeedMerge {
  void operator()(MerAligner::SeedHits& existing,
                  const MerAligner::SeedHits& incoming) const {
    for (int i = 0; i < incoming.count; ++i) {
      if (existing.count < MerAligner::SeedHits::kMaxInline) {
        existing.hits[existing.count++] = incoming.hits[i];
      } else {
        existing.overflowed = 1;
      }
    }
    existing.overflowed |= incoming.overflowed;
  }
};

}  // namespace hipmer::align
