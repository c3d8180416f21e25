#include "truth.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "seq/kmer_scanner.hpp"

namespace perfbench {

namespace {

constexpr int kTruthK = 31;
using TruthKmer = hipmer::seq::Kmer<32>;

void add_kmers(std::string_view sequence, std::vector<TruthKmer>& out) {
  for (hipmer::seq::KmerScanner<32> scan(sequence, kTruthK); !scan.done();
       scan.next())
    out.push_back(scan.canonical());
}

void sort_unique(std::vector<TruthKmer>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

TruthScore score_against_truth(
    const hipmer::sim::Genome& genome,
    const std::vector<hipmer::io::FastaRecord>& scaffolds) {
  std::vector<TruthKmer> ref;
  add_kmers(genome.primary, ref);
  add_kmers(genome.secondary, ref);
  sort_unique(ref);

  std::vector<TruthKmer> asm_kmers;
  for (const auto& rec : scaffolds) add_kmers(rec.seq, asm_kmers);
  sort_unique(asm_kmers);

  std::size_t shared = 0;
  for (auto a = ref.begin(), b = asm_kmers.begin();
       a != ref.end() && b != asm_kmers.end();) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++shared;
      ++a;
      ++b;
    }
  }

  TruthScore score;
  score.ref_kmers = ref.size();
  score.scaffold_kmers = asm_kmers.size();
  if (!ref.empty())
    score.ref_kmer_recall =
        static_cast<double>(shared) / static_cast<double>(ref.size());
  if (!asm_kmers.empty())
    score.scaffold_kmer_precision =
        static_cast<double>(shared) / static_cast<double>(asm_kmers.size());
  return score;
}

}  // namespace perfbench
