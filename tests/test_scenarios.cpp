// Scenario tests: biologically motivated end-to-end situations.

#include <gtest/gtest.h>

#include <random>

#include "kcount/kmer_analysis.hpp"
#include "pipeline/pipeline.hpp"
#include "seq/dna.hpp"
#include "sim/datasets.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace hipmer {
namespace {

/// Long-insert mate pairs must jump repeats that fragment the contigs:
/// the classic reason scaffolding exists. Genome = unique A + repeat R +
/// unique B + ... with R longer than a read but much shorter than the
/// mate-pair insert; contigs break at R, spans bridge it.
TEST(Scenarios, MatePairsJumpRepeatsLongerThanReads) {
  std::mt19937_64 rng(20'24);
  const auto repeat = sim::random_dna(400, rng);  // longer than any read
  std::string genome_seq;
  std::vector<std::string> uniques;
  for (int i = 0; i < 6; ++i) {
    uniques.push_back(sim::random_dna(3000, rng));
    genome_seq += uniques.back();
    if (i + 1 < 6) genome_seq += repeat;
  }
  sim::Genome genome;
  genome.primary = genome_seq;

  sim::Dataset ds;
  ds.name = "repeat_jump";
  // Short-insert library for contigs...
  sim::LibraryConfig pe;
  pe.name = "pe";
  pe.read_length = 100;
  pe.mean_insert = 300.0;
  pe.stddev_insert = 25.0;
  pe.coverage = 18.0;
  pe.error_rate = 0.0;
  pe.seed = 11;
  ds.libraries.push_back(seq::ReadLibrary{"pe", 300.0, 25.0, 100, "", true});
  ds.reads.push_back(sim::simulate_library(genome, pe));
  // ...plus a mate-pair library whose insert clears the repeat.
  sim::LibraryConfig mp;
  mp.name = "mp";
  mp.read_length = 100;
  mp.mean_insert = 2000.0;
  mp.stddev_insert = 150.0;
  mp.coverage = 6.0;
  mp.error_rate = 0.0;
  mp.seed = 13;
  ds.libraries.push_back(seq::ReadLibrary{"mp", 2000.0, 150.0, 100, "", false});
  ds.reads.push_back(sim::simulate_library(genome, mp));

  pipeline::PipelineConfig cfg;
  cfg.k = 31;
  cfg.merge_bubbles = false;
  cfg.sync_k();
  pipeline::Pipeline pipe(pgas::Topology{4, 2}, cfg);
  const auto result = pipe.run(ds.reads, ds.libraries);

  // Contigs are fragmented by the repeat (> 6 pieces)...
  EXPECT_GT(result.num_contigs, 6u);
  // ...but scaffolds bridge it: N50 well above the 3k unique-segment size.
  EXPECT_GT(result.scaffold_stats.n50, 5'000u)
      << "mate pairs should chain unique segments across the repeat";
  // And every unique segment's interior is present in some scaffold.
  int found = 0;
  for (const auto& unique_piece : uniques) {
    const auto core = unique_piece.substr(500, 2000);
    bool hit = false;
    for (const auto& rec : result.scaffolds) {
      if (rec.seq.find(core) != std::string::npos ||
          rec.seq.find(seq::revcomp(core)) != std::string::npos) {
        hit = true;
        break;
      }
    }
    found += hit;
  }
  EXPECT_EQ(found, 6);
}

/// Quality-aware extension counting: neighbors below the quality threshold
/// must not contribute extensions, which is how Meraculous avoids error
/// branches without discarding the k-mers themselves.
TEST(Scenarios, LowQualityNeighborsDoNotCreateExtensions) {
  // Two read groups covering the same 41bp sequence; in group B the base
  // after position 30 is miscalled with LOW quality. The k-mer ending at
  // position 30 must keep a unique high-quality right extension.
  std::mt19937_64 rng(31'337);
  const auto core = sim::random_dna(41, rng);
  const int k = 21;

  std::vector<seq::Read> reads;
  for (int copy = 0; copy < 6; ++copy) {
    seq::Read good;
    good.name = "g:" + std::to_string(copy) + "/0";
    good.seq = core;
    good.quals.assign(core.size(), 'I');  // q40
    reads.push_back(good);

    seq::Read bad = good;
    bad.name = "b:" + std::to_string(copy) + "/0";
    bad.seq[31] = seq::complement_base(bad.seq[31]);  // miscall
    bad.quals[31] = seq::phred_to_char(5);            // low quality
    reads.push_back(bad);
  }

  pgas::ThreadTeam team(pgas::Topology{2, 2});
  kcount::KmerAnalysisConfig cfg;
  cfg.k = k;
  cfg.min_count = 2;
  cfg.qual_threshold = 20;
  cfg.min_ext_count = 2;
  kcount::KmerAnalysis ka(team, cfg);
  seq::ReadStore store;
  for (const auto& r : reads) store.append(r);
  const seq::ReadStore none;
  team.run([&](pgas::Rank& rank) {
    ka.run(rank, {rank.is_root() ? store : none});
  });

  // The k-mer at positions [11, 32) has its right neighbor at position 32;
  // the k-mer at [10, 31) has its right neighbor at the miscalled 31.
  const auto target = seq::KmerT::from_string(core.substr(10, k));
  const auto canon = target.canonical();
  bool found = false;
  for (int r = 0; r < 2; ++r) {
    for (const auto& [km, summary] : ka.ufx(r)) {
      if (!(km == canon)) continue;
      found = true;
      // Recover the forward-frame extension pair from the canonical frame.
      auto pair = seq::ExtPair{summary.left_ext, summary.right_ext};
      if (canon != target) pair = seq::flip(pair);
      // All 12 reads cover this k-mer; 6 high-quality + 6 low-quality
      // sightings of the neighbor: the unique HQ base must win (not 'F').
      EXPECT_EQ(pair.right, core[31])
          << "low-quality miscalls must not fork the extension";
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace hipmer
