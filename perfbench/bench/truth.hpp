#pragma once

#include <vector>

#include "io/fasta.hpp"
#include "sim/genome_sim.hpp"

/// Ground-truth check of an assembly against the simulated genome.
///
/// Both sides are reduced to their sets of distinct canonical 31-mers
/// (windows containing `N` are skipped, so unclosed scaffold gaps count
/// neither for nor against). Reference k-mers come from both haplotypes.
namespace perfbench {

struct TruthScore {
  /// Share of the reference's distinct k-mers the scaffolds contain.
  double ref_kmer_recall = 0.0;
  /// Share of the scaffolds' distinct k-mers that occur in the reference.
  double scaffold_kmer_precision = 0.0;
  std::size_t ref_kmers = 0;
  std::size_t scaffold_kmers = 0;
};

[[nodiscard]] TruthScore score_against_truth(
    const hipmer::sim::Genome& genome,
    const std::vector<hipmer::io::FastaRecord>& scaffolds);

}  // namespace perfbench
