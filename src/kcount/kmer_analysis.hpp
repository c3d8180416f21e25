#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "kcount/bloom_filter.hpp"
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
///     rank, a HyperLogLog (cardinality, used to size the Bloom filters and
///     hash table: "an initial pass ... to estimate the cardinality") and a
///     Misra–Gries summary (heavy-hitter candidates). MG partial counts are
///     routed to each k-mer's owner and summed (mergeable summaries /
///     Cafaro–Tempesta); k-mers whose summed lower-bound count crosses the
///     threshold become the replicated heavy-hitter set.
///  1. **Candidate pass** — every non-heavy k-mer instance is routed to its
///     owner (chunked all-to-all = aggregated messages); the owner runs the
///     Bloom filter test-and-set and admits a k-mer into the candidate
///     table on its second sighting, keeping singletons (overwhelmingly
///     sequencing errors) out of the main table.
///  2. **Counting pass** — k-mer instances with their quality-filtered
///     neighbor bases are merged into the owners' tallies via the
///     aggregating-stores path. Heavy hitters are instead accumulated in a
///     rank-local map ("the high frequency k-mers are accumulated locally,
///     followed by a final global reduction") and exchanged once at the
///     end — this is the optimization Figure 6 measures.
///  3. **Finalize** — below-threshold k-mers are discarded and extension
///     tallies collapse into UFX records (depth + two-letter code).
namespace hipmer::kcount {

struct KmerAnalysisConfig {
  int k = 31;
  /// Discard k-mers with count below this (erroneous).
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
  /// Expected fraction of distinct k-mers that are non-singletons (sizes
  /// the candidate table relative to the cardinality estimate).
  double candidate_fraction = 0.4;

  /// Aggregating-stores batch size (elements per destination buffer).
  std::size_t flush_threshold = 512;
  /// Per-rank k-mers per exchange round in the candidate pass.
  std::size_t chunk_kmers = 32768;
};

class KmerAnalysis {
 public:
  using Map = pgas::DistHashMap<seq::KmerT, KmerTally, seq::KmerHashT,
                                KmerTallyMerge>;

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
  /// k-mer count histogram (index = count, capped at 255), global.
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept {
    return histogram_;
  }
  /// Total k-mer instances processed (n in the MG bound).
  [[nodiscard]] std::uint64_t total_kmer_instances() const noexcept {
    return total_instances_;
  }
  [[nodiscard]] std::size_t table_entries() const;
  /// Entries resident in the main table *before* the below-threshold purge
  /// — the working-set size the Bloom filter shrinks (§3.1: "memory
  /// requirement reductions of up to 85%").
  [[nodiscard]] std::size_t peak_table_entries() const noexcept {
    return peak_table_entries_;
  }
  [[nodiscard]] std::size_t bloom_bytes() const;
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
  void allocate(pgas::Rank& rank);
  void candidate_pass(pgas::Rank& rank,
                      const std::vector<seq::ReadSetView>& read_sets);
  void counting_pass(pgas::Rank& rank,
                     const std::vector<seq::ReadSetView>& read_sets);
  void finalize(pgas::Rank& rank);

  [[nodiscard]] std::uint32_t owner_of(const seq::KmerT& km) const;

  pgas::ThreadTeam& team_;
  KmerAnalysisConfig config_;

  std::unique_ptr<Map> table_;
  std::vector<std::unique_ptr<BloomFilter>> blooms_;

  // Replicated heavy-hitter set (read-only after the sketch pass).
  std::unordered_set<seq::KmerT, seq::KmerHashT> hh_set_;
  std::vector<std::pair<seq::KmerT, std::uint64_t>> heavy_hitters_;

  // Per-rank outputs / partials (indexed by rank id).
  std::vector<std::vector<std::pair<seq::KmerT, KmerSummary>>> ufx_;
  std::vector<std::uint64_t> distinct_per_rank_;
  std::vector<std::uint64_t> instances_per_rank_;
  std::vector<std::vector<std::uint64_t>> histogram_per_rank_;

  double cardinality_estimate_ = 0.0;
  std::size_t peak_table_entries_ = 0;
  std::uint64_t distinct_kmers_ = 0;
  std::uint64_t total_instances_ = 0;
  double singleton_fraction_ = 0.0;
  std::vector<std::uint64_t> histogram_;
};

}  // namespace hipmer::kcount
