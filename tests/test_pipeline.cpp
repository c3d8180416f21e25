#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>

#include "pipeline/pipeline.hpp"
#include "seq/dna.hpp"
#include "sim/datasets.hpp"
#include "sim/read_sim.hpp"
#include "seq/kmer_scanner.hpp"
#include <unordered_set>

namespace hipmer::pipeline {
namespace {

namespace fs = std::filesystem;

/// Fraction of the reference covered by exact scaffold placements
/// (greedy, both strands; N-split scaffolds are matched piecewise).
double reference_coverage(const std::string& reference,
                          const std::vector<io::FastaRecord>& scaffolds) {
  std::vector<bool> covered(reference.size(), false);
  auto mark = [&](const std::string& piece) {
    if (piece.size() < 31) return;
    for (const std::string& s : {piece, seq::revcomp(piece)}) {
      const std::size_t pos = reference.find(s);
      if (pos == std::string::npos) continue;
      for (std::size_t i = pos; i < pos + s.size(); ++i) covered[i] = true;
      return;
    }
  };
  for (const auto& rec : scaffolds) {
    // Split on N runs; each real segment should be an exact substring.
    std::size_t start = 0;
    while (start < rec.seq.size()) {
      const std::size_t n = rec.seq.find('N', start);
      const std::size_t end = (n == std::string::npos) ? rec.seq.size() : n;
      if (end > start) mark(rec.seq.substr(start, end - start));
      if (n == std::string::npos) break;
      start = rec.seq.find_first_not_of('N', n);
      if (start == std::string::npos) break;
    }
  }
  const auto hit = static_cast<double>(
      std::count(covered.begin(), covered.end(), true));
  return hit / static_cast<double>(reference.size());
}

/// K-mer spectrum comparison, the right fidelity metric for diploid
/// assemblies: bubble merging picks one haplotype per site, so a scaffold
/// is a haplotype *mosaic* and exact substring matching fails even for a
/// perfect assembly.
struct KmerFidelity {
  /// Fraction of scaffold k-mers present in the reference (union of
  /// haplotypes): ~1 unless sequence was fabricated.
  double accuracy = 0.0;
  /// Fraction of primary-haplotype k-mers recovered in the scaffolds.
  double completeness = 0.0;
};

KmerFidelity kmer_fidelity(const sim::Genome& genome,
                           const std::vector<io::FastaRecord>& scaffolds,
                           int k = 31) {
  using seq::KmerT;
  std::unordered_set<KmerT, seq::KmerHashT> ref_union;
  std::unordered_set<KmerT, seq::KmerHashT> ref_primary;
  for (seq::KmerScanner<KmerT::kMaxK> it(genome.primary, k); !it.done();
       it.next()) {
    ref_union.insert(it.canonical());
    ref_primary.insert(it.canonical());
  }
  if (genome.diploid()) {
    for (seq::KmerScanner<KmerT::kMaxK> it(genome.secondary, k); !it.done();
         it.next())
      ref_union.insert(it.canonical());
  }
  std::unordered_set<KmerT, seq::KmerHashT> assembled;
  for (const auto& rec : scaffolds)
    for (seq::KmerScanner<KmerT::kMaxK> it(rec.seq, k); !it.done(); it.next())
      assembled.insert(it.canonical());

  KmerFidelity f;
  std::size_t good = 0;
  for (const auto& km : assembled) good += ref_union.contains(km);
  f.accuracy = assembled.empty()
                   ? 0.0
                   : static_cast<double>(good) / static_cast<double>(assembled.size());
  std::size_t found = 0;
  for (const auto& km : ref_primary) found += assembled.contains(km);
  f.completeness = ref_primary.empty()
                       ? 0.0
                       : static_cast<double>(found) /
                             static_cast<double>(ref_primary.size());
  return f;
}

PipelineConfig small_config(int k = 25) {
  PipelineConfig cfg;
  cfg.k = k;
  // ~20x datasets with Illumina-like 0.8% errors: count >= 3 keeps repeated
  // error k-mers (two miscalls of the same base) out of the contigs.
  cfg.kmer.min_count = 3;
  cfg.sync_k();
  return cfg;
}

TEST(Pipeline, EndToEndHumanLike) {
  auto ds = sim::make_human_like(60000, 7771);
  Pipeline pipeline(pgas::Topology{4, 2}, small_config());
  const auto result = pipeline.run(ds.reads, ds.libraries);

  // The assembly exists and is substantial.
  ASSERT_GT(result.scaffolds.size(), 0u);
  EXPECT_GT(result.num_contigs, 0u);
  EXPECT_GT(result.scaffold_stats.total_length, 50000u);

  // Scaffolding improves contiguity over raw contigs.
  EXPECT_GE(result.scaffold_stats.n50, result.contig_stats.n50);

  // Assembled sequence is faithful (haplotype-mosaic aware): no fabricated
  // sequence, and nearly the whole genome recovered.
  const auto fidelity = kmer_fidelity(ds.genome, result.scaffolds);
  EXPECT_GT(fidelity.accuracy, 0.99);
  EXPECT_GT(fidelity.completeness, 0.90);

  // Every stage ran.
  EXPECT_GT(result.wall_for(kStageKmerAnalysis), 0.0);
  EXPECT_GT(result.wall_for(kStageContigGen), 0.0);
  EXPECT_GT(result.wall_for(kStageAligner), 0.0);
  EXPECT_GT(result.wall_for(kStageGapClosing), 0.0);
  EXPECT_GT(result.modeled_total(), 0.0);

  // K-mer analysis timed its four passes inside the stage's wall.
  ASSERT_TRUE(result.kmer_passes.has_value());
  const auto& passes = *result.kmer_passes;
  EXPECT_GT(passes.sketch, 0.0);
  EXPECT_GT(passes.candidate, 0.0);
  EXPECT_GT(passes.count, 0.0);
  EXPECT_LE(passes.sketch + passes.candidate + passes.count + passes.finalize,
            result.wall_for(kStageKmerAnalysis));

  // Insert size was recovered (the simulator used 395 +/- 30).
  ASSERT_FALSE(result.insert_estimates.empty());
  EXPECT_NEAR(result.insert_estimates[0].mean, 395.0, 20.0);
}

TEST(Pipeline, StageLinePutsKmerPassWallsBeforeModeled) {
  // Tools strip "wall ... , " and parse what follows ", modeled ", so the
  // pass walls and the RSS mark sit between the two with no comma of their
  // own. A repeated stage shows its highest mark.
  PipelineResult result;
  result.stages.push_back(
      StageReport{kStageKmerAnalysis, 1.5, 0.25, {}, 155.5});
  result.stages.push_back(StageReport{kStageContigGen, 0.5, 0.125, {}, 160});
  result.stages.push_back(StageReport{kStageContigGen, 0.25, 0.125, {}, 158});
  result.kmer_passes = kcount::KmerPassSeconds{0.25, 0.5, 0.625, 0.125};
  EXPECT_EQ(result.format_stages(),
            "  kmer_analysis: wall 1.5s (sketch 0.25s candidate 0.5s count "
            "0.625s finalize 0.125s) peak_rss 155.5MB, modeled 0.25s\n"
            "  contig_generation: wall 0.75s peak_rss 160MB, modeled 0.25s\n");
}

TEST(Pipeline, StagesRecordTheRssHighWaterMark) {
  auto ds = sim::make_human_like(20000, 7781, 15.0);
  Pipeline pipeline(pgas::Topology{2, 2}, small_config());
  const auto result = pipeline.run(ds.reads, ds.libraries);
  ASSERT_FALSE(result.stages.empty());
  double previous = 0.0;
  for (const auto& stage : result.stages) {
    EXPECT_GT(stage.peak_rss_mb, 0.0) << stage.name;
    EXPECT_GE(stage.peak_rss_mb, previous) << stage.name;
    previous = stage.peak_rss_mb;
  }
}

TEST(Pipeline, EndToEndWheatLike) {
  auto ds = sim::make_wheat_like(80000, 7773);
  auto cfg = small_config(25);
  cfg.merge_bubbles = false;  // homozygous line
  cfg.scaffolding_rounds = 2;
  Pipeline pipeline(pgas::Topology{4, 2}, cfg);
  const auto result = pipeline.run(ds.reads, ds.libraries);

  ASSERT_GT(result.scaffolds.size(), 0u);
  // Repeats fragment the contigs badly...
  EXPECT_GT(result.num_contigs, 20u);
  // ...and heavy hitters exist in the k-mer spectrum.
  EXPECT_GT(result.heavy_hitters, 0u);
  // Scaffolding stitches across repeats: N50 improves substantially.
  EXPECT_GT(result.scaffold_stats.n50, result.contig_stats.n50);
}

TEST(Pipeline, DeterministicAcrossRankCounts) {
  auto ds = sim::make_human_like(30000, 7779, 15.0);
  std::vector<std::string> reference_scaffolds;
  for (int nranks : {1, 3, 4}) {
    Pipeline pipeline(pgas::Topology{nranks, 2}, small_config());
    const auto result = pipeline.run(ds.reads, ds.libraries);
    std::vector<std::string> seqs;
    for (const auto& rec : result.scaffolds) {
      const auto rc = seq::revcomp(rec.seq);
      seqs.push_back(std::min(rec.seq, rc));
    }
    std::sort(seqs.begin(), seqs.end());
    if (reference_scaffolds.empty()) {
      reference_scaffolds = seqs;
    } else {
      EXPECT_EQ(seqs, reference_scaffolds) << "nranks=" << nranks;
    }
  }
}

TEST(Pipeline, FromFastqMatchesInMemory) {
  auto ds = sim::make_human_like(25000, 7781, 15.0);
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_pipe_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  ASSERT_TRUE(sim::write_dataset_fastq(ds, dir.string()));

  Pipeline mem_pipeline(pgas::Topology{3, 2}, small_config());
  const auto mem = mem_pipeline.run(ds.reads, ds.libraries);
  Pipeline fastq_pipeline(pgas::Topology{3, 2}, small_config());
  const auto fastq = fastq_pipeline.run_from_fastq(ds.libraries);
  fs::remove_all(dir);

  auto canon = [](const std::vector<io::FastaRecord>& records) {
    std::vector<std::string> seqs;
    for (const auto& r : records)
      seqs.push_back(std::min(r.seq, seq::revcomp(r.seq)));
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  EXPECT_EQ(canon(mem.scaffolds), canon(fastq.scaffolds));
  // The FASTQ path reports I/O.
  EXPECT_GT(fastq.wall_for(kStageIo), 0.0);
  std::uint64_t io_bytes = fastq.stages[0].comm.io_read_bytes;
  EXPECT_GT(io_bytes, 0u);
}

TEST(Pipeline, GapsAreClosedOnCleanData) {
  // Moderate repeats fragment contigs; with clean reads the gap closer
  // should seal most scaffold gaps.
  sim::Dataset ds;
  ds.name = "gaps";
  sim::GenomeConfig gc;
  gc.length = 50000;
  gc.repeat_fraction = 0.25;
  gc.repeat_families = 5;
  gc.repeat_unit_length = 120;  // repeats longer than k but shorter than reads
  gc.seed = 7787;
  ds.genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.name = "pe";
  lc.read_length = 100;
  lc.mean_insert = 350.0;
  lc.stddev_insert = 30.0;
  lc.coverage = 20.0;
  lc.error_rate = 0.0;
  lc.seed = 7789;
  ds.libraries.push_back(seq::ReadLibrary{"pe", 350.0, 30.0, 100, "", true});
  ds.reads.push_back(sim::simulate_library(ds.genome, lc));

  auto cfg = small_config(31);
  cfg.merge_bubbles = false;
  Pipeline pipeline(pgas::Topology{4, 2}, cfg);
  const auto result = pipeline.run(ds.reads, ds.libraries);
  if (result.closure_stats.gaps_total > 0) {
    EXPECT_GT(static_cast<double>(result.closure_stats.gaps_closed),
              0.5 * static_cast<double>(result.closure_stats.gaps_total));
  }
  // Closed gaps must contain real sequence: scaffolds still map exactly.
  const double cov = reference_coverage(ds.genome.primary, result.scaffolds);
  EXPECT_GT(cov, 0.8);
}

}  // namespace
}  // namespace hipmer::pipeline
