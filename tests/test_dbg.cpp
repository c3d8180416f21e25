#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>

#include "dbg/contig_generator.hpp"
#include "dbg/contig_wire.hpp"
#include "dbg/oracle.hpp"
#include "kcount/kmer_analysis.hpp"
#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/datasets.hpp"
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

/// The de Bruijn graph of `molecules` (circular ones wrap around) as UFX
/// records: each k-mer's canonical-frame extension is its unique neighbor
/// base, 'F' when the molecules disagree, 'X' when none.
std::vector<std::pair<KmerT, kcount::KmerSummary>> graph_of(
    const std::vector<std::pair<std::string, bool>>& molecules, int k) {
  std::map<KmerT, std::array<std::set<char>, 2>> exts;
  std::map<KmerT, std::uint32_t> depth;
  const auto kk = static_cast<std::size_t>(k);
  for (const auto& [mol, circular] : molecules) {
    const std::string s = circular ? mol + mol.substr(0, kk) : mol;
    const std::size_t n = circular ? mol.size() : mol.size() - kk + 1;
    for (std::size_t i = 0; i < n; ++i) {
      const KmerT km = KmerT::from_string(std::string_view(s).substr(i, kk));
      char left = seq::kExtNone;
      char right = seq::kExtNone;
      if (i > 0) left = s[i - 1];
      else if (circular) left = mol.back();
      if (i + kk < s.size()) right = s[i + kk];
      const bool canonical = km.is_canonical();
      const KmerT canon = km.canonical();
      auto& sides = exts[canon];
      auto comp = [](char c) {
        return seq::is_base_ext(c) ? seq::complement_base(c) : c;
      };
      const char cl = canonical ? left : comp(right);
      const char cr = canonical ? right : comp(left);
      if (seq::is_base_ext(cl)) sides[0].insert(cl);
      if (seq::is_base_ext(cr)) sides[1].insert(cr);
      depth[canon] += 10;
    }
  }
  auto code = [](const std::set<char>& bases) {
    if (bases.empty()) return seq::kExtNone;
    return bases.size() == 1 ? *bases.begin() : seq::kExtFork;
  };
  std::vector<std::pair<KmerT, kcount::KmerSummary>> ufx;
  for (const auto& [canon, sides] : exts) {
    kcount::KmerSummary summary;
    summary.depth = depth[canon];
    summary.left_ext = code(sides[0]);
    summary.right_ext = code(sides[1]);
    ufx.emplace_back(canon, summary);
  }
  return ufx;
}

/// Contig generation over a hand-built graph, dealt round-robin to ranks.
std::vector<Contig> traverse_graph(
    const std::vector<std::pair<KmerT, kcount::KmerSummary>>& ufx, int k,
    int nranks) {
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  ContigGenConfig cc;
  cc.k = k;
  ContigGenerator gen(team, cc, ufx.size());
  team.run([&](pgas::Rank& rank) {
    std::vector<std::pair<KmerT, kcount::KmerSummary>> mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < ufx.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.push_back(ufx[i]);
    gen.build_graph(rank, mine);
    gen.traverse(rank);
  });
  return gen.all_contigs();
}

TEST(ContigGen, CircularChainTerminates) {
  // One graph holding a pure cycle, a linear chain, a chain closed by a
  // reverse-complement hairpin at one end (x + rc(x)), and one closed by
  // hairpins at both ends (y + rc(y) + y). The cycle and the double hairpin
  // have no chain end, so only the cycle sweep can emit them.
  const int k = 21;
  std::mt19937_64 rng(127);
  const auto circle = sim::random_dna(500, rng);
  const auto linear = sim::random_dna(300, rng);
  const auto x = sim::random_dna(200, rng);
  const auto y = sim::random_dna(150, rng);
  const auto ufx = graph_of({{circle, true},
                             {linear, false},
                             {x + seq::revcomp(x), false},
                             {y + seq::revcomp(y) + y, false}},
                            k);

  std::vector<Contig> reference;
  for (const int nranks : {1, 3, 8}) {
    const auto contigs = traverse_graph(ufx, k, nranks);
    if (reference.empty()) {
      reference = contigs;
      continue;
    }
    ASSERT_EQ(contigs.size(), reference.size()) << "nranks=" << nranks;
    for (std::size_t i = 0; i < contigs.size(); ++i) {
      EXPECT_EQ(contigs[i].seq, reference[i].seq) << "nranks=" << nranks;
      EXPECT_EQ(contigs[i].left.code, reference[i].left.code);
      EXPECT_EQ(contigs[i].right.code, reference[i].right.code);
      EXPECT_EQ(contigs[i].avg_depth, reference[i].avg_depth);
    }
  }

  // Exact cover: every graph k-mer lies in exactly one contig.
  std::map<KmerT, int> seen;
  for (const auto& c : reference)
    for (seq::KmerScanner<KmerT::kMaxK> it(c.seq, k); !it.done(); it.next())
      ++seen[it.canonical()];
  ASSERT_EQ(seen.size(), ufx.size());
  for (const auto& [km, n] : seen) EXPECT_EQ(n, 1);

  ASSERT_EQ(reference.size(), 4u);
  auto contig_of = [&](const std::string& part) -> const Contig& {
    for (const auto& c : reference)
      if (c.seq.find(part) != std::string::npos ||
          c.seq.find(seq::revcomp(part)) != std::string::npos)
        return c;
    ADD_FAILURE() << "no contig holds " << part;
    return reference.front();
  };
  // The cycle: emitted once, each k-mer once, rotated to start at its
  // smallest canonical k-mer (then stored in canonical orientation).
  const auto& cyc = contig_of(circle.substr(100, 100));
  EXPECT_EQ(cyc.seq.size(), circle.size() + static_cast<std::size_t>(k) - 1);
  EXPECT_EQ(cyc.left.code, 'O');
  EXPECT_EQ(cyc.right.code, 'O');
  KmerT smallest;
  // Named, not a temporary: the scanner keeps a view of the sequence.
  const std::string wrapped = circle + circle.substr(0, k - 1);
  for (seq::KmerScanner<KmerT::kMaxK> it(wrapped, k); !it.done(); it.next())
    if (it.position() == 0 || it.canonical() < smallest)
      smallest = it.canonical();
  const auto kk = static_cast<std::size_t>(k);
  const KmerT head = KmerT::from_string(cyc.seq.substr(0, kk));
  const KmerT tail = KmerT::from_string(cyc.seq.substr(cyc.seq.size() - kk));
  EXPECT_TRUE(head == smallest || tail.revcomp() == smallest);

  const auto& lin = contig_of(linear);
  EXPECT_EQ(lin.seq.size(), linear.size());
  EXPECT_EQ(lin.left.code, 'X');
  EXPECT_EQ(lin.right.code, 'X');

  // x + rc(x) folds onto itself at its center: the chain ends at the read
  // end on one side and re-enters itself on the other.
  const auto& hairpin = contig_of(x);
  EXPECT_EQ(hairpin.seq.size(), x.size() + (kk - 1) / 2);
  EXPECT_EQ(std::min(hairpin.left.code, hairpin.right.code), 'O');
  EXPECT_EQ(std::max(hairpin.left.code, hairpin.right.code), 'X');

  const auto& folded = contig_of(y.substr(20, 100));
  EXPECT_EQ(folded.left.code, 'O');
  EXPECT_EQ(folded.right.code, 'O');
}

TEST(ContigGen, CountersRepeatExactly) {
  // The traversal is a pure function of the graph and the partition, so
  // every rank's counters, its Table-2 lookups and the contigs repeat
  // exactly, even with 16 ranks sharing the host's cores.
  const auto ds = sim::make_human_like(30000, 6001, 15.0);
  const int k = 31;
  pgas::ThreadTeam team(pgas::Topology{16, 4});
  kcount::KmerAnalysisConfig kc;
  kc.k = k;
  kcount::KmerAnalysis ka(team, kc);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    const auto& reads = ds.reads[0];
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });
  std::size_t total_ufx = 0;
  for (int r = 0; r < team.nranks(); ++r) total_ufx += ka.ufx(r).size();

  struct Run {
    std::vector<std::string> counters;
    std::vector<std::uint64_t> lookups;
    std::vector<std::vector<std::byte>> contigs;
  };
  std::optional<Run> first;
  for (int repeat = 0; repeat < 10; ++repeat) {
    ContigGenConfig cc;
    cc.k = k;
    ContigGenerator gen(team, cc, total_ufx);
    const auto before = team.snapshot_all();
    team.run([&](pgas::Rank& rank) {
      gen.build_graph(rank, ka.ufx(rank.id()));
      gen.traverse(rank);
    });
    const auto after = team.snapshot_all();
    Run run;
    for (int r = 0; r < team.nranks(); ++r) {
      const auto ur = static_cast<std::size_t>(r);
      run.counters.push_back((after[ur] - before[ur]).to_string());
      const auto ls = gen.lookup_stats(r);
      run.lookups.insert(run.lookups.end(), {ls.local, ls.onnode, ls.offnode});
      std::vector<std::byte> bytes;
      for (const auto& c : gen.contigs(r)) serialize_contig(bytes, c);
      run.contigs.push_back(std::move(bytes));
    }
    if (!first) {
      ASSERT_GT(gen.total_lookup_stats().offnode, 0u);
      first = std::move(run);
      continue;
    }
    EXPECT_EQ(run.counters, first->counters) << "repeat " << repeat;
    EXPECT_EQ(run.lookups, first->lookups) << "repeat " << repeat;
    EXPECT_EQ(run.contigs, first->contigs) << "repeat " << repeat;
  }
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
