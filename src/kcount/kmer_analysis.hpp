#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kcount/bloom_filter.hpp"
#include "kcount/heavy_hitter_index.hpp"
#include "kcount/hyperloglog.hpp"
#include "kcount/kmer_tally.hpp"
#include "kcount/misra_gries.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/read_store.hpp"
#include "seq/types.hpp"

/// Stage 1 of the pipeline: parallel k-mer analysis (§2 step 1, §3.1).
///
/// Four collective passes, all driven from `run()`:
///
///  0. **Sketch pass** — one streaming pass over the reads builds, per
///     rank, a HyperLogLog (cardinality, used to size the Bloom filters:
///     "an initial pass ... to estimate the cardinality") and a
///     Misra–Gries summary (heavy-hitter candidates). MG partial counts are
///     routed to each k-mer's owner and summed (mergeable summaries /
///     Cafaro–Tempesta); k-mers whose summed lower-bound count crosses the
///     threshold become the replicated heavy-hitter list, indexed by a flat
///     HeavyHitterIndex.
///  1. **Candidate pass** — every non-heavy k-mer instance is routed to its
///     owner (chunked all-to-all = aggregated messages). The owner keeps two
///     Bloom filters: a hit in the first one's test-and-set is a second
///     sighting, which sets the k-mer in the second filter. The owners'
///     count of second sightings rides each chunk's progress reduction;
///     with the heavy hitters it sizes the count table, built after this
///     pass. Without the Bloom filter the pass is skipped and the table is
///     sized by the cardinality estimate.
///  2. **Counting pass** — k-mer instances with their quality-filtered
///     neighbor bases are merged into the owners' tallies via the
///     aggregating-stores path. A store whose k-mer is not yet in the table
///     inserts it only if the owner's second filter holds it (the table's
///     admission policy), so singletons (overwhelmingly sequencing errors)
///     stay out of the main table. Heavy hitters are instead accumulated in
///     a rank-local tally vector ("the high frequency k-mers are accumulated
///     locally, followed by a final global reduction") and exchanged once at
///     the end — this is the optimization Figure 6 measures.
///  3. **Finalize** — extension tallies collapse into UFX records (depth +
///     two-letter code) and the global count histogram is gathered. An
///     automatic cutoff is the valley of that histogram
///     (`choose_min_count`), picked by every rank from the same gather;
///     records below the cutoff are discarded.
///
/// Each instance is hashed once per pass on its rank; that hash picks the
/// owner, probes the heavy-hitter index and travels with the store.
namespace hipmer::kcount {

struct KmerAnalysisConfig {
  int k = 31;
  /// Discard k-mers with count below this (erroneous). 0 picks the cutoff
  /// from this run's count histogram: the valley between the error spike
  /// and the coverage hump (`choose_min_count`), 2 if there is none. With
  /// the Bloom filter on, the cutoff is at least 2.
  std::uint32_t min_count = 2;
  /// Minimum Phred quality for a neighbor base to count as an extension.
  int qual_threshold = 20;
  /// Minimum support for a high-quality extension.
  std::uint32_t min_ext_count = 2;

  /// Heavy-hitter (Misra–Gries) machinery. θ is the slot count; the paper
  /// uses 32,000 and reports <10% sensitivity across 1K–64K.
  bool use_heavy_hitters = true;
  std::size_t mg_capacity = 32768;
  /// Count threshold for treating a k-mer as a heavy hitter; 0 derives the
  /// MG guarantee threshold n/θ.
  std::uint64_t hh_min_count = 0;

  bool use_bloom = true;

  /// Aggregating-stores batch size (elements per destination buffer).
  std::size_t flush_threshold = 512;
  /// Per-rank k-mers per exchange round in the candidate pass.
  std::size_t chunk_kmers = 32768;
};

/// Wall seconds of each pass of the last `run()`, read by rank 0 after the
/// barrier that ends the pass. `candidate` includes sizing the table and
/// filters, and is that alone when the Bloom filter is off.
struct KmerPassSeconds {
  double sketch = 0.0;
  double candidate = 0.0;
  double count = 0.0;
  double finalize = 0.0;
};

class KmerAnalysis {
 public:
  using Map = pgas::DistHashMap<seq::KmerT, KmerTally, seq::KmerHashT,
                                KmerTallyMerge>;
  using HeavyIndex = HeavyHitterIndex<seq::KmerT, seq::KmerHashT>;

  KmerAnalysis(pgas::ThreadTeam& team, KmerAnalysisConfig config);
  ~KmerAnalysis();

  /// Collective: full analysis of this rank's share of the reads. Must be
  /// called by every rank inside one team.run(). `read_sets` holds one
  /// store per library; the union is analysed without copying the stores
  /// together, and packed stores feed the scanner straight from their
  /// 2-bit words.
  void run(pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets);

  // ---- results (valid after run) ----

  /// This rank's UFX records (every rank owns a disjoint shard; the union
  /// is the genome's reliable k-mer spectrum).
  [[nodiscard]] const std::vector<std::pair<seq::KmerT, KmerSummary>>& ufx(
      int rank) const {
    return ufx_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] double estimated_cardinality() const noexcept {
    return cardinality_estimate_;
  }
  /// Exact-ish number of distinct k-mers observed (first sightings at the
  /// Bloom filter, plus heavy hitters).
  [[nodiscard]] std::uint64_t distinct_kmers() const noexcept {
    return distinct_kmers_;
  }
  /// Fraction of distinct k-mers occurring exactly once — 95% for human,
  /// 36% for the wetlands metagenome per the paper.
  [[nodiscard]] double singleton_fraction() const noexcept {
    return singleton_fraction_;
  }
  /// Global heavy hitters with their summed lower-bound counts, ordered by
  /// count descending, then k-mer ascending.
  [[nodiscard]] const std::vector<std::pair<seq::KmerT, std::uint64_t>>&
  heavy_hitters() const noexcept {
    return heavy_hitters_;
  }
  /// Maps each heavy hitter to its position in `heavy_hitters()`.
  [[nodiscard]] const HeavyIndex& heavy_hitter_index() const noexcept {
    return hh_index_;
  }
  /// k-mer count histogram of the kept records (index = count, capped at
  /// 255), global.
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept {
    return histogram_;
  }
  /// The cutoff finalize applied: `config().min_count`, or the valley it
  /// picked when that is 0.
  [[nodiscard]] std::uint32_t min_count() const noexcept { return min_count_; }
  /// Total k-mer instances processed (n in the MG bound).
  [[nodiscard]] std::uint64_t total_kmer_instances() const noexcept {
    return total_instances_;
  }
  /// Entries resident in the main table *before* the below-threshold purge
  /// — the working-set size the Bloom filter shrinks (§3.1: "memory
  /// requirement reductions of up to 85%").
  [[nodiscard]] std::size_t peak_table_entries() const noexcept {
    return peak_table_entries_;
  }
  /// Both Bloom filters of every rank, in bytes (0 once released).
  [[nodiscard]] std::size_t bloom_bytes() const;
  /// Whether the count table is allocated: from the end of the candidate
  /// pass until `release_tables`.
  [[nodiscard]] bool has_table() const noexcept { return table_ != nullptr; }

  /// Free the count table and both Bloom filters. Serial context only,
  /// after the team.run that called `run` has returned, so no rank and no
  /// barrier check can still reach them; every result above stays valid.
  void release_tables();
  [[nodiscard]] const KmerPassSeconds& pass_seconds() const noexcept {
    return pass_seconds_;
  }
  [[nodiscard]] const KmerAnalysisConfig& config() const noexcept {
    return config_;
  }

 private:
  struct HeavyItem {
    seq::KmerT kmer;
    std::uint64_t count;
  };
  struct TallyItem {
    seq::KmerT kmer;
    KmerTally tally;
  };

  void sketch_pass(pgas::Rank& rank,
                   const std::vector<seq::ReadSetView>& read_sets);
  /// Returns the team's count of k-mers sighted at least twice.
  std::uint64_t candidate_pass(pgas::Rank& rank,
                               const std::vector<seq::ReadSetView>& read_sets);
  void allocate_table(pgas::Rank& rank, std::size_t capacity);
  void counting_pass(pgas::Rank& rank,
                     const std::vector<seq::ReadSetView>& read_sets);
  void finalize(pgas::Rank& rank);

  [[nodiscard]] std::uint32_t owner_of(std::uint64_t hash) const;

  pgas::ThreadTeam& team_;
  KmerAnalysisConfig config_;

  std::unique_ptr<Map> table_;
  // Per owner rank, allocated by that rank: first sightings (owner-only,
  // single writer), and k-mers sighted at least twice (written by the
  // owner in the candidate pass, read by any rank's stores only after that
  // pass's barrier).
  std::vector<std::unique_ptr<BloomFilter>> blooms_;
  std::vector<std::unique_ptr<BloomFilter>> repeat_blooms_;

  // Replicated heavy hitters and their index (read-only after the sketch
  // pass).
  std::vector<std::pair<seq::KmerT, std::uint64_t>> heavy_hitters_;
  HeavyIndex hh_index_;

  // Per-rank outputs / partials (indexed by rank id).
  std::vector<std::vector<std::pair<seq::KmerT, KmerSummary>>> ufx_;
  std::vector<std::uint64_t> distinct_per_rank_;
  std::vector<std::uint64_t> instances_per_rank_;

  double cardinality_estimate_ = 0.0;
  std::size_t peak_table_entries_ = 0;
  std::uint64_t distinct_kmers_ = 0;
  std::uint64_t total_instances_ = 0;
  double singleton_fraction_ = 0.0;
  std::vector<std::uint64_t> histogram_;
  std::uint32_t min_count_ = 0;
  KmerPassSeconds pass_seconds_;
};

}  // namespace hipmer::kcount
