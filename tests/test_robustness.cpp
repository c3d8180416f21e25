// Cross-module edge cases and robustness tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "align/contig_store.hpp"
#include "dbg/contig_generator.hpp"
#include "dbg/contig_wire.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pipeline/pipeline.hpp"
#include "scaffold/ordering.hpp"
#include "seq/dna.hpp"
#include "sim/datasets.hpp"
#include "sim/read_sim.hpp"

namespace hipmer {
namespace {

// ---- contig wire serialization preserves everything ----

TEST(ContigWire, RoundTripWithJunctions) {
  std::mt19937_64 rng(3141);
  std::vector<dbg::Contig> contigs;
  for (int i = 0; i < 20; ++i) {
    dbg::Contig c;
    c.id = static_cast<std::uint64_t>(i * 7);
    c.seq = sim::random_dna(40 + rng() % 500, rng);
    c.avg_depth = static_cast<double>(i) * 1.5f;
    c.left.code = "FNXO"[i % 4];
    c.right.code = "NXFO"[i % 4];
    c.left.has_junction = (i % 3 == 0);
    c.right.has_junction = (i % 2 == 0);
    if (c.left.has_junction)
      c.left.junction = seq::KmerT::from_string(sim::random_dna(21, rng));
    if (c.right.has_junction)
      c.right.junction = seq::KmerT::from_string(sim::random_dna(21, rng));
    contigs.push_back(std::move(c));
  }
  std::vector<std::byte> buf;
  for (const auto& c : contigs) dbg::serialize_contig(buf, c);
  const auto back = dbg::deserialize_contigs(buf);
  ASSERT_EQ(back.size(), contigs.size());
  for (std::size_t i = 0; i < contigs.size(); ++i) {
    EXPECT_EQ(back[i].id, contigs[i].id);
    EXPECT_EQ(back[i].seq, contigs[i].seq);
    EXPECT_FLOAT_EQ(static_cast<float>(back[i].avg_depth),
                    static_cast<float>(contigs[i].avg_depth));
    EXPECT_EQ(back[i].left.code, contigs[i].left.code);
    EXPECT_EQ(back[i].right.code, contigs[i].right.code);
    EXPECT_EQ(back[i].left.has_junction, contigs[i].left.has_junction);
    if (contigs[i].left.has_junction) {
      EXPECT_EQ(back[i].left.junction, contigs[i].left.junction);
    }
    if (contigs[i].right.has_junction) {
      EXPECT_EQ(back[i].right.junction, contigs[i].right.junction);
    }
  }
}

// ---- contig generation options ----

TEST(ContigGenOptions, MinContigLenFilters) {
  // Fragmented genome: with a length filter, only long contigs survive,
  // and the k-mer table still marks everything complete (no hangs).
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.repeat_fraction = 0.3;
  gc.repeat_families = 4;
  gc.repeat_unit_length = 150;
  gc.seed = 2718;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 12.0;
  lc.error_rate = 0.0;
  lc.seed = 2719;
  const auto reads = sim::simulate_library(genome, lc);

  pgas::ThreadTeam team(pgas::Topology{4, 2});
  kcount::KmerAnalysisConfig kc;
  kc.k = 21;
  kcount::KmerAnalysis ka(team, kc);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += 4)
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });
  std::size_t ufx = 0;
  for (int r = 0; r < 4; ++r) ufx += ka.ufx(r).size();

  dbg::ContigGenConfig cc;
  cc.k = 21;
  cc.min_contig_len = 100;
  dbg::ContigGenerator gen(team, cc, ufx);
  team.run([&](pgas::Rank& rank) {
    gen.build_graph(rank, ka.ufx(rank.id()));
    gen.traverse(rank);
  });
  const auto contigs = gen.all_contigs();
  ASSERT_GT(contigs.size(), 0u);
  for (const auto& c : contigs) EXPECT_GE(c.seq.size(), 100u);
  // Lookup stats were recorded.
  EXPECT_GT(gen.total_lookup_stats().total(), 0u);
}

// ---- ordering flip invariants ----

TEST(OrderingFlip, DoubleTraversalIsStable) {
  // A 4-chain with mixed orientations; repeated order_and_orient calls on
  // the same input must give identical output (pure function).
  using namespace scaffold;
  std::vector<Tie> ties = {
      Tie{ContigEnd{0, 1}, ContigEnd{1, 1}, 5, 10.0},   // 1 enters reversed
      Tie{ContigEnd{1, 0}, ContigEnd{2, 0}, 5, -8.0},   // overlap link
      Tie{ContigEnd{2, 1}, ContigEnd{3, 0}, 5, 42.0},
  };
  std::vector<ContigLen> lens = {{0, 900}, {1, 800}, {2, 700}, {3, 600}};
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  std::vector<ScaffoldRecord> first;
  std::vector<ScaffoldRecord> second;
  team.run([&](pgas::Rank& rank) {
    first = order_and_orient(rank, ties, lens);
    second = order_and_orient(rank, ties, lens);
  });
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first[0].placements.size(), 4u);
  for (std::size_t i = 0; i < first[0].placements.size(); ++i) {
    EXPECT_EQ(first[0].placements[i].contig, second[0].placements[i].contig);
    EXPECT_EQ(first[0].placements[i].reversed, second[0].placements[i].reversed);
    EXPECT_DOUBLE_EQ(first[0].placements[i].gap_after,
                     second[0].placements[i].gap_after);
  }
  // Chain covers every contig exactly once with consistent orientations:
  // contig 1 must be reversed (entered through its end 1).
  std::vector<std::uint32_t> ids;
  for (const auto& p : first[0].placements) ids.push_back(p.contig);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// ---- multi-round scaffolding ----

TEST(PipelineRounds, SecondRoundDoesNotRegress) {
  auto ds = sim::make_wheat_like(60'000, 1618);
  pipeline::PipelineConfig one;
  one.k = 25;
  one.merge_bubbles = false;
  one.kmer.min_count = 3;
  one.scaffolding_rounds = 1;
  one.sync_k();
  pipeline::Pipeline pipe1(pgas::Topology{4, 2}, one);
  const auto r1 = pipe1.run(ds.reads, ds.libraries);

  auto two = one;
  two.scaffolding_rounds = 2;
  pipeline::Pipeline pipe2(pgas::Topology{4, 2}, two);
  const auto r2 = pipe2.run(ds.reads, ds.libraries);

  EXPECT_GE(r2.scaffold_stats.n50, r1.scaffold_stats.n50)
      << "an extra scaffolding round must not fragment the assembly";
  EXPECT_LE(r2.scaffolds.size(), r1.scaffolds.size());
}

// ---- heavy hitters flow through the full pipeline ----

TEST(PipelineHeavyHitters, WheatEndToEndDetectsAndSurvives) {
  auto ds = sim::make_wheat_like(80'000, 4242);
  pipeline::PipelineConfig cfg;
  cfg.k = 21;
  cfg.merge_bubbles = false;
  cfg.kmer.min_count = 3;
  cfg.kmer.mg_capacity = 8192;
  cfg.sync_k();
  pipeline::Pipeline pipe(pgas::Topology{4, 2}, cfg);
  const auto result = pipe.run(ds.reads, ds.libraries);
  EXPECT_GT(result.heavy_hitters, 0u);
  // Repeats collapse: expected assembled length ~= unique fraction plus one
  // copy of each repeat family (~53k for this 80k genome at 43% repeat).
  EXPECT_GT(result.scaffold_stats.total_length, 45'000u);
  // And no runaway duplication from the hyper repeats.
  EXPECT_LT(result.scaffold_stats.total_length, 100'000u);
}

// ---- reverse-complement read handling end to end ----

TEST(Robustness, AllReverseComplementedInputGivesSameAssembly) {
  // Flipping every read to its reverse complement must produce the same
  // canonical assembly (the pipeline is strand-oblivious).
  sim::GenomeConfig gc;
  gc.length = 25'000;
  gc.seed = 999;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 90;
  lc.coverage = 14.0;
  lc.error_rate = 0.0;
  lc.seed = 998;
  auto reads = sim::simulate_library(genome, lc);
  auto flipped = reads;
  for (auto& r : flipped) {
    r.seq = seq::revcomp(r.seq);
    std::reverse(r.quals.begin(), r.quals.end());
  }

  auto run = [&](const std::vector<seq::Read>& input) {
    pgas::ThreadTeam team(pgas::Topology{3, 2});
    kcount::KmerAnalysisConfig kc;
    kc.k = 21;
    kcount::KmerAnalysis ka(team, kc);
    team.run([&](pgas::Rank& rank) {
      seq::ReadStore mine;
      for (std::size_t i = static_cast<std::size_t>(rank.id());
           i < input.size(); i += 3)
        mine.append(input[i]);
      ka.run(rank, {mine});
    });
    std::size_t ufx = 0;
    for (int r = 0; r < 3; ++r) ufx += ka.ufx(r).size();
    dbg::ContigGenConfig cc;
    cc.k = 21;
    dbg::ContigGenerator gen(team, cc, ufx);
    team.run([&](pgas::Rank& rank) {
      gen.build_graph(rank, ka.ufx(rank.id()));
      gen.traverse(rank);
    });
    std::vector<std::string> seqs;
    for (const auto& c : gen.all_contigs()) seqs.push_back(c.seq);
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  EXPECT_EQ(run(reads), run(flipped));
}

// ---- contig store under skewed ownership ----

TEST(Robustness, ContigStoreHandlesEmptyRanks) {
  pgas::ThreadTeam team(pgas::Topology{8, 4});
  align::ContigStore store(team);
  // Only 2 contigs over 8 ranks: most shards empty.
  std::mt19937_64 rng(555);
  dbg::Contig a;
  a.id = 0;
  a.seq = sim::random_dna(100, rng);
  dbg::Contig b;
  b.id = 5;
  b.seq = sim::random_dna(100, rng);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.id() == 3 ? std::vector<dbg::Contig>{a, b}
                                     : std::vector<dbg::Contig>{});
    rank.barrier();
    EXPECT_EQ(store.read(rank, 0).seq, a.seq);
    EXPECT_EQ(store.read(rank, 5).seq, b.seq);
    EXPECT_TRUE(store.read(rank, 7).seq.empty());  // absent contig
    EXPECT_EQ(store.read(rank, 3).seq.size(), 0u);  // absent length
  });
  EXPECT_EQ(store.num_contigs(), 2u);
}

}  // namespace
}  // namespace hipmer
