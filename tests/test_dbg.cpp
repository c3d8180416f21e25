#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "dbg/contig_generator.hpp"
#include "dbg/oracle.hpp"
#include "kcount/kmer_analysis.hpp"
#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace hipmer::dbg {
namespace {

using seq::KmerT;

/// Run k-mer analysis then contig generation over `reads` with `nranks`;
/// returns the canonical contig sequences, sorted.
std::vector<Contig> assemble_contigs(const std::vector<seq::Read>& reads,
                                     int k, int nranks,
                                     const OraclePartition* oracle = nullptr,
                                     double* traversal_offnode = nullptr) {
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  kcount::KmerAnalysisConfig kc;
  kc.k = k;
  kcount::KmerAnalysis ka(team, kc);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });

  std::size_t total_ufx = 0;
  for (int r = 0; r < team.nranks(); ++r) total_ufx += ka.ufx(r).size();
  ContigGenConfig cc;
  cc.k = k;
  ContigGenerator gen(team, cc, total_ufx);
  if (oracle) gen.set_oracle(oracle);
  team.run([&](pgas::Rank& rank) {
    gen.build_graph(rank, ka.ufx(rank.id()));
    gen.traverse(rank);
  });
  if (traversal_offnode)
    *traversal_offnode = gen.total_lookup_stats().offnode_fraction();
  auto contigs = gen.all_contigs();
  std::sort(contigs.begin(), contigs.end(),
            [](const Contig& a, const Contig& b) { return a.seq < b.seq; });
  return contigs;
}

std::vector<std::string> contig_seqs(const std::vector<Contig>& contigs) {
  std::vector<std::string> seqs;
  seqs.reserve(contigs.size());
  for (const auto& c : contigs) seqs.push_back(c.seq);
  return seqs;
}

std::vector<seq::Read> perfect_reads(const std::string& genome, int read_len,
                                     int step) {
  // Tiling error-free single-end reads with ideal qualities.
  std::vector<seq::Read> reads;
  for (std::size_t i = 0; i + static_cast<std::size_t>(read_len) <= genome.size();
       i += static_cast<std::size_t>(step)) {
    seq::Read r;
    r.name = "t:" + std::to_string(i) + "/0";
    r.seq = genome.substr(i, static_cast<std::size_t>(read_len));
    r.quals.assign(r.seq.size(), 'I');
    reads.push_back(std::move(r));
  }
  return reads;
}

TEST(ContigGen, SingleChainReassemblesExactly) {
  // A repeat-free genome tiled densely: the de Bruijn graph is one chain
  // per genome "interior"; the assembled contig must contain the full
  // genome (up to canonical orientation).
  std::mt19937_64 rng(101);
  const auto genome = sim::random_dna(2000, rng);
  const auto reads = perfect_reads(genome, 80, 20);
  const auto contigs = assemble_contigs(reads, 31, 4);
  ASSERT_GE(contigs.size(), 1u);
  // Longest contig covers essentially the whole genome.
  std::size_t longest = 0;
  std::string longest_seq;
  for (const auto& c : contigs)
    if (c.seq.size() > longest) {
      longest = c.seq.size();
      longest_seq = c.seq;
    }
  EXPECT_GE(longest, genome.size() - 80);  // ends may be shallow-covered
  const auto rc = seq::revcomp(longest_seq);
  EXPECT_TRUE(genome.find(longest_seq) != std::string::npos ||
              genome.find(rc) != std::string::npos);
}

class ContigDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ContigDeterminism, ContigSetIndependentOfRankCount) {
  // The maximal-unbranched-chain decomposition is a graph property; the
  // parallel traversal must produce the identical canonical contig set for
  // every rank count.
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.repeat_fraction = 0.2;  // some forks so termination paths are hit
  gc.repeat_families = 3;
  gc.repeat_unit_length = 200;
  gc.seed = 103;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 12.0;
  lc.error_rate = 0.0;
  lc.seed = 104;
  const auto reads = sim::simulate_library(genome, lc);

  static std::vector<std::string> reference;  // from the first param run
  const auto contigs = contig_seqs(assemble_contigs(reads, 21, GetParam()));
  if (reference.empty()) {
    reference = contigs;
    ASSERT_GT(reference.size(), 1u);
  } else {
    EXPECT_EQ(contigs, reference) << "nranks=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ContigDeterminism, ::testing::Values(1, 2, 3, 8));

TEST(ContigGen, ContigsAreSubstringsOfGenomeAndCoverIt) {
  sim::GenomeConfig gc;
  gc.length = 50000;
  gc.seed = 107;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 15.0;
  lc.error_rate = 0.0;
  lc.seed = 108;
  const auto reads = sim::simulate_library(genome, lc);
  const auto contigs = assemble_contigs(reads, 25, 4);

  std::uint64_t covered = 0;
  for (const auto& c : contigs) {
    const bool fwd = genome.primary.find(c.seq) != std::string::npos;
    const bool rev =
        genome.primary.find(seq::revcomp(c.seq)) != std::string::npos;
    EXPECT_TRUE(fwd || rev) << "contig of length " << c.seq.size()
                            << " not a genome substring";
    covered += c.seq.size();
  }
  // Error-free, 15x: nearly the whole genome assembles.
  EXPECT_GT(static_cast<double>(covered),
            0.95 * static_cast<double>(genome.primary.size()));
}

TEST(ContigGen, RepeatsFragmentAssemblyAtForks) {
  // Exact repeats longer than k create forks; contigs must terminate at
  // them (F/N states) rather than walk through.
  sim::GenomeConfig gc;
  gc.length = 40000;
  gc.repeat_fraction = 0.4;
  gc.repeat_families = 4;
  gc.repeat_unit_length = 300;  // >> k
  gc.seed = 109;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 15.0;
  lc.error_rate = 0.0;
  lc.seed = 110;
  const auto reads = sim::simulate_library(genome, lc);
  const auto contigs = assemble_contigs(reads, 21, 4);

  ASSERT_GT(contigs.size(), 10u) << "repeats must fragment the assembly";
  int fork_ends = 0;
  for (const auto& c : contigs) {
    fork_ends += (c.left.code == 'F' || c.left.code == 'N');
    fork_ends += (c.right.code == 'F' || c.right.code == 'N');
  }
  EXPECT_GT(fork_ends, static_cast<int>(contigs.size()) / 2);
  // All contigs still correct substrings.
  for (const auto& c : contigs) {
    const bool ok = genome.primary.find(c.seq) != std::string::npos ||
                    genome.primary.find(seq::revcomp(c.seq)) != std::string::npos;
    EXPECT_TRUE(ok);
  }
}

TEST(ContigGen, DepthTracksCoverage) {
  std::mt19937_64 rng(113);
  const auto genome = sim::random_dna(10000, rng);
  const auto reads = perfect_reads(genome, 100, 10);  // ~10x tiling
  const auto contigs = assemble_contigs(reads, 31, 2);
  ASSERT_GE(contigs.size(), 1u);
  // Interior k-mer depth is read_len/step = 10 minus boundary effects.
  double max_depth = 0;
  for (const auto& c : contigs) max_depth = std::max(max_depth, c.avg_depth);
  EXPECT_GT(max_depth, 5.0);
  EXPECT_LT(max_depth, 12.0);
}

TEST(ContigGen, CircularChainTerminates) {
  // A circular sequence: tile reads around the wrap point too. The
  // traversal must terminate via the cycle detection ('O') rather than
  // loop forever.
  std::mt19937_64 rng(127);
  const auto circle = sim::random_dna(500, rng);
  const std::string doubled = circle + circle;
  std::vector<seq::Read> reads;
  for (std::size_t i = 0; i < circle.size(); i += 7) {
    seq::Read r;
    r.name = "c:" + std::to_string(i) + "/0";
    r.seq = doubled.substr(i, 60);
    r.quals.assign(60, 'I');
    reads.push_back(std::move(r));
  }
  const auto contigs = assemble_contigs(reads, 21, 2);
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_GE(contigs[0].seq.size(), circle.size());
  EXPECT_TRUE(contigs[0].left.code == 'O' || contigs[0].right.code == 'O');
}

// ---- Oracle partitioning ----

TEST(Oracle, CoLocatesContigKmers) {
  std::mt19937_64 rng(131);
  std::vector<std::string> contigs;
  for (int i = 0; i < 16; ++i) contigs.push_back(sim::random_dna(800, rng));
  const pgas::Topology topo{8, 2};
  std::size_t total_kmers = 0;
  for (const auto& c : contigs) total_kmers += c.size() - 20;
  const auto oracle =
      OraclePartition::build(contigs, 21, topo, total_kmers * 4);
  EXPECT_LT(oracle.collision_rate(), 0.3);

  // For most contigs, the vast majority of k-mers resolve to one rank.
  int well_placed = 0;
  for (const auto& c : contigs) {
    std::map<std::uint32_t, int> owners;
    int n = 0;
    for (seq::KmerScanner<KmerT::kMaxK> it(c, 21); !it.done(); it.next()) {
      ++owners[oracle.rank_of(it.canonical().hash())];
      ++n;
    }
    int top = 0;
    for (const auto& [r, cnt] : owners) top = std::max(top, cnt);
    if (top > n * 8 / 10) ++well_placed;
  }
  EXPECT_GE(well_placed, 14);
}

TEST(Oracle, MoreSlotsFewerCollisions) {
  std::mt19937_64 rng(137);
  std::vector<std::string> contigs;
  for (int i = 0; i < 10; ++i) contigs.push_back(sim::random_dna(2000, rng));
  const pgas::Topology topo{4, 2};
  std::size_t total_kmers = 10 * (2000 - 20);
  const auto small = OraclePartition::build(contigs, 21, topo, total_kmers);
  const auto large = OraclePartition::build(contigs, 21, topo, total_kmers * 8);
  EXPECT_LT(large.collision_rate(), small.collision_rate());
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

TEST(Oracle, NodeModeKeepsKmersOnNode) {
  std::mt19937_64 rng(139);
  std::vector<std::string> contigs = {sim::random_dna(3000, rng),
                                      sim::random_dna(3000, rng)};
  const pgas::Topology topo{8, 4};  // 2 nodes
  const auto oracle = OraclePartition::build(
      contigs, 21, topo, 50000, OraclePartition::Granularity::kNode);
  // Each contig's k-mers land on ranks of a single node (modulo collisions).
  for (const auto& c : contigs) {
    std::map<int, int> node_counts;
    int n = 0;
    for (seq::KmerScanner<KmerT::kMaxK> it(c, 21); !it.done(); it.next()) {
      node_counts[topo.node_of(static_cast<int>(oracle.rank_of(it.canonical().hash())))]++;
      ++n;
    }
    int top = 0;
    for (const auto& [node, cnt] : node_counts) top = std::max(top, cnt);
    EXPECT_GT(top, n * 8 / 10);
  }
}

TEST(Oracle, TraversalWithOracleProducesSameContigs) {
  // Assemble individual 1, build an oracle from its contigs, then assemble
  // individual 2 (0.2% diverged) with and without the oracle: identical
  // contig sets, far less off-node communication.
  // Some repeat content so individual 1 assembles into many contigs — with
  // a single contig the cyclic contig->rank assignment cannot balance and
  // the oracle degenerates (real genomes yield millions of contigs).
  sim::GenomeConfig gc;
  gc.length = 40000;
  gc.repeat_fraction = 0.15;
  gc.repeat_families = 4;
  gc.repeat_unit_length = 200;
  gc.seed = 149;
  const auto genome1 = sim::simulate_genome(gc);
  const auto genome2_primary =
      sim::mutate_individual(genome1.primary, 0.002, 151);
  sim::Genome genome2;
  genome2.primary = genome2_primary;

  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 12.0;
  lc.error_rate = 0.0;
  lc.seed = 152;
  const auto reads1 = sim::simulate_library(genome1, lc);
  lc.seed = 153;
  const auto reads2 = sim::simulate_library(genome2, lc);

  const int k = 25;
  const int nranks = 8;
  const auto contigs1 = assemble_contigs(reads1, k, nranks);
  std::vector<std::string> contig_strings = contig_seqs(contigs1);

  std::size_t total_kmers = 0;
  for (const auto& c : contig_strings) total_kmers += c.size();
  const pgas::Topology topo{nranks, 2};
  const auto oracle =
      OraclePartition::build(contig_strings, k, topo, total_kmers * 4);

  double plain_offnode = 0.0;
  double oracle_offnode = 0.0;
  const auto plain =
      contig_seqs(assemble_contigs(reads2, k, nranks, nullptr, &plain_offnode));
  const auto oracled =
      contig_seqs(assemble_contigs(reads2, k, nranks, &oracle, &oracle_offnode));

  EXPECT_EQ(plain, oracled) << "oracle must not change assembly output";

  // Traversal-phase communication: the oracle must cut the off-node
  // lookup fraction substantially. The paper's Table 2 reports a 41-44%
  // reduction for the memory-light "oracle-1" and 75-76% for "oracle-4";
  // at this test's tiny scale (69 contigs over 8 ranks) we require at
  // least the oracle-1 band.
  EXPECT_GT(plain_offnode, 0.3);
  EXPECT_LT(oracle_offnode, plain_offnode * 0.65);
}

}  // namespace
}  // namespace hipmer::dbg
