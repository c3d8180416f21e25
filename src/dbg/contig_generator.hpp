#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbg/contig.hpp"
#include "dbg/oracle.hpp"
#include "kcount/kmer_tally.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/types.hpp"

/// Stage 2 of the pipeline: contig generation by parallel de Bruijn graph
/// traversal (§2 step 2, §3.2).
///
/// The graph is implicit: every reliable k-mer sits in a distributed hash
/// table with its two-letter extension code; neighbors are computed from
/// the key plus the code. A contig is a maximal chain of *mutual unique
/// extensions* (each k-mer extends uniquely to the next, which extends
/// uniquely back), and those chains partition the graph, so the contig set
/// is a graph property.
///
/// The traversal walks each chain from its ends and shares no mutable
/// state between walks:
///   1. classify: one batched lookup pass over each rank's local k-mers
///      decides, per side, whether it is a mutual link or which terminal a
///      walk records there; a k-mer with a terminal side is a chain end;
///   2. walk: from each end, step inward with one fine-grained read per
///      k-mer — the O(G) communication the oracle partitioning attacks —
///      writing nothing;
///   3. emit once: within a round, a walk emits when its start is <= its
///      far end in canonical k-mer order (a walk that stops on a hairpin has
///      no second walker and always emits);
///   4. locality: ends whose inward neighbor is local walk first, in
///      rounds; a walk whose far end walks in a later round (for a local
///      walk: one whose far end would walk remotely) emits the chain itself
///      and marks that end done, so under the oracle a misplaced end never
///      walks a whole contig through remote memory;
///   5. cycles: chains with no end are found by comparing the emitted k-mer
///      total with the graph size, and each is walked from its smallest
///      canonical k-mer by that k-mer's owner.
/// Every step is a pure function of the graph and the partition, so the
/// contig set and every rank's counters repeat exactly across runs.
namespace hipmer::dbg {

struct ContigGenConfig {
  int k = 31;
  /// Aggregating-stores batch for graph construction.
  std::size_t flush_threshold = 512;
  /// Drop contigs shorter than this many bases (0 keeps everything).
  std::size_t min_contig_len = 0;
};

class ContigGenerator {
 public:
  /// Graph vertices: each k-mer's UFX summary (count + extension codes).
  using Map = pgas::DistHashMap<seq::KmerT, kcount::KmerSummary,
                                seq::KmerHashT,
                                pgas::OverwriteMerge<kcount::KmerSummary>>;

  /// `expected_kmers` sizes the table (from k-mer analysis's cardinality /
  /// UFX counts).
  ContigGenerator(pgas::ThreadTeam& team, ContigGenConfig config,
                  std::size_t expected_kmers);
  ~ContigGenerator();

  /// Optional: route k-mers by an oracle partition instead of uniformly.
  /// Must be set before build_graph. The oracle must have been built for
  /// this team's topology.
  void set_oracle(const OraclePartition* oracle);

  /// Collective phase 1: insert this rank's UFX records into the graph.
  void build_graph(pgas::Rank& rank,
                   const std::vector<std::pair<seq::KmerT, kcount::KmerSummary>>&
                       local_ufx);

  /// Collective phase 2: traverse to produce contigs. May be called only
  /// once per build_graph.
  void traverse(pgas::Rank& rank);

  /// Contigs owned by `rank` after traverse (ids globally unique and
  /// contiguous across ranks).
  [[nodiscard]] const std::vector<Contig>& contigs(int rank) const {
    return contigs_[static_cast<std::size_t>(rank)];
  }

  /// Convenience: gather all contigs (driver-side, after the phase).
  [[nodiscard]] std::vector<Contig> all_contigs() const;

  /// Traversal lookup counts, classified by owner locality — the quantity
  /// Table 2 of the paper reports ("92.8% of the lookups result in
  /// off-node communication"). Counts only the hash-table lookups
  /// performed while walking the graph (one neighbor read per step), not
  /// the batched classification pass or end marking.
  struct LookupStats {
    std::uint64_t local = 0;
    std::uint64_t onnode = 0;
    std::uint64_t offnode = 0;

    LookupStats& operator+=(const LookupStats& o) noexcept {
      local += o.local;
      onnode += o.onnode;
      offnode += o.offnode;
      return *this;
    }
    [[nodiscard]] std::uint64_t total() const noexcept {
      return local + onnode + offnode;
    }
    [[nodiscard]] double offnode_fraction() const noexcept {
      return total() == 0 ? 0.0
                          : static_cast<double>(offnode) /
                                static_cast<double>(total());
    }
  };

  [[nodiscard]] LookupStats lookup_stats(int rank) const {
    return lookups_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] LookupStats total_lookup_stats() const {
    LookupStats sum;
    for (const auto& s : lookups_) sum += s;
    return sum;
  }

  [[nodiscard]] const Map& graph() const { return *map_; }
  [[nodiscard]] Map& graph() { return *map_; }

 private:
  /// Where a walk stopped.
  struct WalkEnd {
    TermInfo term;
    /// Canonical last k-mer of the walk and the one before it (equal when
    /// the walk took no step).
    seq::KmerT last;
    seq::KmerT before_last;
    /// Stopped by re-entering its start (a pure cycle).
    bool closed = false;
    /// Stopped at a k-mer below the caller's bound (cycle sweep only).
    bool below_bound = false;
  };

  /// Extend `chain` rightward from its last k-mer (whose summary is
  /// `summary`) until a terminal or a re-entry, adding each step's depth
  /// and k-mer. With `bound`, stop early at any k-mer below it.
  WalkEnd walk(pgas::Rank& rank, std::string& chain,
               kcount::KmerSummary summary, double& depth_sum,
               std::size_t& kmers, const seq::KmerT* bound = nullptr);

  /// Record one traversal lookup against `canon`'s owner.
  void count_lookup(pgas::Rank& rank, const seq::KmerT& canon);

  /// Walk every chain that has no end (pure cycles, hairpin-closed chains)
  /// once: collective, run only when emitted contigs miss graph k-mers.
  void sweep_cycles(
      pgas::Rank& rank,
      const std::vector<std::pair<seq::KmerT, kcount::KmerSummary>>& local);

  pgas::ThreadTeam& team_;
  ContigGenConfig config_;
  std::unique_ptr<Map> map_;
  const OraclePartition* oracle_ = nullptr;
  std::vector<std::vector<Contig>> contigs_;
  std::vector<LookupStats> lookups_;
};

}  // namespace hipmer::dbg
