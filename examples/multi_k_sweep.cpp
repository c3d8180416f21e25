// Multi-k assembly sweep with oracle partitioning — the §3.2 use case:
// "Typically, computational biologists begin the genome assembly process
// ... with a reasonable initial k value. Different k lengths are then
// explored to optimize the quality of the assembly output. Thus we can
// generate our oracle partitioning function during the initial contig
// generation phase, and use it to significantly reduce communication for
// subsequent assemblies that explore different k values."
//
//   ./multi_k_sweep [--genome 300000] [--ranks 16]
//
// The program assembles once at the initial k, builds the oracle from the
// draft contigs, then re-assembles at several other k values with and
// without the oracle, reporting assembly quality (to pick the best k) and
// the off-node communication saved.

#include <cstdio>

#include "dbg/contig_generator.hpp"
#include "dbg/oracle.hpp"
#include "kcount/kmer_analysis.hpp"
#include "sim/datasets.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hipmer;

struct KResult {
  util::AssemblyStats stats;
  dbg::ContigGenerator::LookupStats lookups;
  std::vector<std::string> contig_seqs;
};

KResult assemble_at_k(pgas::ThreadTeam& team,
                      const std::vector<seq::Read>& reads, int k,
                      const dbg::OraclePartition* oracle) {
  kcount::KmerAnalysisConfig kcfg;
  kcfg.k = k;
  kcfg.min_count = 3;
  kcount::KmerAnalysis ka(team, kcfg);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });
  std::size_t ufx = 0;
  for (int r = 0; r < team.nranks(); ++r) ufx += ka.ufx(r).size();
  dbg::ContigGenConfig ccfg;
  ccfg.k = k;
  ccfg.min_contig_len = static_cast<std::size_t>(2 * k);
  dbg::ContigGenerator gen(team, ccfg, ufx);
  if (oracle) gen.set_oracle(oracle);
  team.run([&](pgas::Rank& rank) {
    gen.build_graph(rank, ka.ufx(rank.id()));
    gen.traverse(rank);
  });
  KResult result;
  result.lookups = gen.total_lookup_stats();
  std::vector<std::uint64_t> lengths;
  for (const auto& contig : gen.all_contigs()) {
    lengths.push_back(contig.seq.size());
    result.contig_seqs.push_back(contig.seq);
  }
  result.stats = util::compute_assembly_stats(std::move(lengths));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 300'000));
  const int ranks = static_cast<int>(opts.get_int("ranks", 16));
  const int initial_k = static_cast<int>(opts.get_int("initial-k", 25));

  auto ds = sim::make_human_like(genome_len, 4242);
  const auto& reads = ds.reads[0];
  const pgas::Topology topo{ranks, 4};
  pgas::ThreadTeam team(topo);

  // Draft assembly at the initial k; learn the oracle from its contigs.
  std::printf("draft assembly at k=%d...\n", initial_k);
  const auto draft = assemble_at_k(team, reads, initial_k, nullptr);
  std::printf("  draft: %s\n", util::format_assembly_stats(draft.stats).c_str());

  std::size_t draft_kmers = 0;
  for (const auto& c : draft.contig_seqs) draft_kmers += c.size();

  util::TextTable table({"k", "contigs", "N50", "offnode_no_oracle",
                         "offnode_with_oracle", "comm_saved"});
  for (int k : {21, 29, 33, 41, 51}) {
    // The oracle vector is rebuilt from the *draft* contigs at the new k —
    // the contigs barely change between nearby k values, which is exactly
    // the genetic-similarity insight.
    const auto oracle = dbg::OraclePartition::build(draft.contig_seqs, k, topo,
                                                    draft_kmers * 4);
    const auto plain = assemble_at_k(team, reads, k, nullptr);
    const auto oracled = assemble_at_k(team, reads, k, &oracle);
    const double off_plain = plain.lookups.offnode_fraction();
    const double off_oracle = oracled.lookups.offnode_fraction();
    table.add_row({std::to_string(k), std::to_string(oracled.stats.num_sequences),
                   std::to_string(oracled.stats.n50),
                   util::TextTable::fmt_pct(off_plain),
                   util::TextTable::fmt_pct(off_oracle),
                   util::TextTable::fmt_pct(1.0 - off_oracle / off_plain)});
  }
  std::printf("\nk sweep (oracle built once from the k=%d draft):\n%s",
              initial_k, table.to_string().c_str());
  std::printf("pick the k with the best N50; every sweep point after the "
              "draft ran with oracle-partitioned communication.\n");
  return 0;
}
