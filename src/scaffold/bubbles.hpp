#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "align/contig_store.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/types.hpp"

/// §4.2 — identifying and merging contig-set bubbles.
///
/// In diploid genomes, each heterozygous site breaks the de Bruijn graph
/// into a *bubble*: the two haplotype paths u, v hang between two flank
/// contigs, and all four contig ends record the same junction k-mers in
/// their termination state (§4.1 / dbg::TermInfo). The bubble-contig graph
/// — contigs contracted to supervertices, joined by shared junction k-mers
/// — is "orders of magnitude smaller than the original k-mer de Bruijn
/// graph".
///
/// This module:
///   1. builds the junction map (a distributed hash table keyed by junction
///      k-mer, aggregating stores);
///   2. resolves clean bubbles — a junction shared by exactly one
///      fork-terminated flank end and two neighbor-terminated path ends —
///      by keeping the deeper path (deterministic tie-break by id) and
///      recording a merge edge flank↔winner;
///   3. replicates the (tiny) merge-edge list and dead set, so every rank
///      builds the chain components locally in O(edges): each contig end
///      carries at most one merge edge, so a component is a path or a ring.
///      A component with a surviving contig is emitted by the owner of its
///      smallest surviving contig id;
///   4. compresses each chain to a single DNA sequence (contigs overlap by
///      k-1 at junctions), which downstream modules treat as contigs.
namespace hipmer::scaffold {

struct BubbleConfig {
  int k = 31;
  /// Max relative length difference between the two paths of a bubble.
  double max_length_skew = 0.2;
  std::size_t flush_threshold = 512;
};

class BubbleMerger {
 public:
  struct JunctionEntry {
    std::uint32_t contig = 0;
    std::uint8_t end = 0;
    char code = 'X';
  };
  struct JunctionGroup {
    static constexpr int kMax = 4;
    JunctionEntry entries[kMax];
    std::uint8_t count = 0;
    std::uint8_t overflow = 0;
  };
  struct JunctionMerge {
    void operator()(JunctionGroup& existing, const JunctionGroup& incoming) const {
      for (int i = 0; i < incoming.count; ++i) {
        if (existing.count < JunctionGroup::kMax) {
          existing.entries[existing.count++] = incoming.entries[i];
        } else {
          existing.overflow = 1;
        }
      }
      existing.overflow |= incoming.overflow;
    }
  };
  using JunctionMap = pgas::DistHashMap<seq::KmerT, JunctionGroup,
                                        seq::KmerHashT, JunctionMerge>;

  BubbleMerger(pgas::ThreadTeam& team, BubbleConfig config,
               std::size_t expected_contigs);
  ~BubbleMerger();

  /// Collective: detect and merge bubbles in `store`. Returns this rank's
  /// share of the *new* contig set (merged paths + untouched contigs),
  /// with globally dense ids; feed it to a fresh ContigStore.
  [[nodiscard]] std::vector<dbg::Contig> run(pgas::Rank& rank,
                                             const align::ContigStore& store);

  [[nodiscard]] std::uint64_t bubbles_merged() const noexcept {
    return bubbles_merged_;
  }

 private:
  pgas::ThreadTeam& team_;
  BubbleConfig config_;
  std::unique_ptr<JunctionMap> junctions_;
  std::uint64_t bubbles_merged_ = 0;
};

}  // namespace hipmer::scaffold
