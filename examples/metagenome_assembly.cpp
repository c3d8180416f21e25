// Metagenome contig generation (§5.4) — assemble a simulated multi-species
// community through k-mer analysis + contig generation, the part of the
// pipeline the paper runs on the Twitchell wetlands data ("we will only
// execute HipMer through the uncontested contig generation").
//
//   ./metagenome_assembly [--species 40] [--ranks 16] [--coverage 20]
//
// Demonstrates the metagenome-specific behaviors the paper discusses:
//   - the flat k-mer count histogram (low singleton fraction vs isolates);
//   - rare community members falling below assembly depth ("typically 90%
//     of the reads cannot be assembled" in real soil data);
//   - per-species recovery as a function of abundance.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "dbg/contig_generator.hpp"
#include "kcount/kmer_analysis.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/metagenome_sim.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hipmer;
  using seq::KmerT;
  util::Options opts(argc, argv);
  sim::MetagenomeConfig mc;
  mc.num_species = static_cast<int>(opts.get_int("species", 40));
  mc.mean_genome_length =
      static_cast<std::uint64_t>(opts.get_int("mean-genome", 25'000));
  mc.total_coverage = static_cast<double>(opts.get_int("coverage", 20));
  mc.seed = 777;
  const int ranks = static_cast<int>(opts.get_int("ranks", 16));
  const int k = static_cast<int>(opts.get_int("k", 31));

  std::printf("simulating %d-species community...\n", mc.num_species);
  const auto mg = sim::simulate_metagenome(mc);
  std::printf("  %zu reads from %zu species\n", mg.reads.size(),
              mg.species.size());

  pgas::ThreadTeam team(pgas::Topology{ranks, 4});
  kcount::KmerAnalysisConfig kcfg;
  kcfg.k = k;
  kcfg.min_count = 2;  // low threshold: rare species live near the floor
  kcount::KmerAnalysis ka(team, kcfg);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id());
         i < mg.reads.size(); i += static_cast<std::size_t>(ranks))
      mine.append(mg.reads[i]);
    ka.run(rank, {mine});
  });

  std::printf("\nk-mer spectrum: %llu distinct, singleton fraction %.1f%% "
              "(isolates are typically far higher — the Bloom filter "
              "eliminates less here, as in the paper)\n",
              static_cast<unsigned long long>(ka.distinct_kmers()),
              ka.singleton_fraction() * 100.0);
  // Histogram head: the "much flatter" distribution of §5.4.
  std::printf("count histogram (2..10): ");
  for (int c = 2; c <= 10; ++c)
    std::printf("%llu ", static_cast<unsigned long long>(ka.histogram()[static_cast<std::size_t>(c)]));
  std::printf("\n");

  std::size_t ufx = 0;
  for (int r = 0; r < ranks; ++r) ufx += ka.ufx(r).size();
  dbg::ContigGenConfig ccfg;
  ccfg.k = k;
  ccfg.min_contig_len = static_cast<std::size_t>(2 * k);
  dbg::ContigGenerator gen(team, ccfg, ufx);
  team.run([&](pgas::Rank& rank) {
    gen.build_graph(rank, ka.ufx(rank.id()));
    gen.traverse(rank);
  });
  const auto contigs = gen.all_contigs();

  std::vector<std::uint64_t> lengths;
  for (const auto& c : contigs) lengths.push_back(c.seq.size());
  std::printf("\ncontigs: %s\n",
              util::format_assembly_stats(
                  util::compute_assembly_stats(std::move(lengths)))
                  .c_str());

  // Per-species recovery vs abundance: k-mers of each species found in the
  // assembled contigs.
  std::unordered_set<KmerT, seq::KmerHashT> assembled;
  for (const auto& c : contigs)
    for (seq::KmerScanner<KmerT::kMaxK> it(c.seq, k); !it.done(); it.next())
      assembled.insert(it.canonical());

  struct SpeciesRow {
    double abundance;
    double coverage;
    double recovered;
  };
  std::vector<SpeciesRow> rows;
  std::uint64_t community_bases = 0;
  for (const auto& g : mg.species) community_bases += g.primary.size();
  for (std::size_t s = 0; s < mg.species.size(); ++s) {
    const auto& genome = mg.species[s].primary;
    std::size_t found = 0;
    std::size_t total = 0;
    for (seq::KmerScanner<KmerT::kMaxK> it(genome, k); !it.done(); it.next()) {
      found += assembled.contains(it.canonical());
      ++total;
    }
    // Approximate realized coverage of this species.
    const double cov = mc.total_coverage * mg.abundance[s] *
                       static_cast<double>(mg.species.size());
    rows.push_back(SpeciesRow{mg.abundance[s], cov,
                              total == 0 ? 0.0
                                         : static_cast<double>(found) /
                                               static_cast<double>(total)});
  }
  std::sort(rows.begin(), rows.end(), [](const SpeciesRow& a, const SpeciesRow& b) {
    return a.abundance > b.abundance;
  });
  util::TextTable table({"abundance", "approx_coverage", "genome_recovered"});
  for (const auto& row : rows)
    table.add_row({util::TextTable::fmt_pct(row.abundance),
                   util::TextTable::fmt(row.coverage, 1) + "x",
                   util::TextTable::fmt_pct(row.recovered)});
  std::printf("\nper-species recovery (sorted by abundance — rare members "
              "fall below assembly depth, the paper's 'low-abundance "
              "organisms' effect):\n%s",
              table.to_string().c_str());
  return 0;
}
