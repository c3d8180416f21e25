// Figure 6 — strong scaling of k-mer analysis on wheat, with and without
// the heavy-hitter optimization (§3.1, §5.1).
//
// Paper result being reproduced: on the heavily repetitive wheat genome the
// default owner-computes counting is communication-bound — the hot owners
// of the ultra-frequent repeat k-mers serialize the run, and the
// communication share of the critical path grows from 23% (960 cores) to
// 68% (15,360). Treating heavy hitters specially (local accumulation + one
// final reduction) caps that share (16% -> 22% in the paper) and yields up
// to 2.4x at scale. We expect the same shape: flat-ish comm% with heavy
// hitters, growing comm% and a widening gap without.
//
// Also reproduced: the paper's θ-insensitivity claim ("performance was not
// sensitive to the choice of θ, which was varied between 1K and 64K with
// negligible (less than 10%) performance difference").

#include <cstdio>

#include "bench_common.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/thread_team.hpp"
#include "sim/datasets.hpp"
#include "util/timer.hpp"

namespace {

using namespace hipmer;

struct RunResult {
  double wall = 0.0;
  double modeled = 0.0;
  double comm_fraction = 0.0;
  std::size_t heavy_hitters = 0;
};

RunResult run_once(const sim::Dataset& ds, const bench::ScalePoint& scale,
                   bool heavy_hitters, std::size_t mg_capacity,
                   const pgas::MachineModel& machine) {
  pgas::ThreadTeam team(scale.topology());
  kcount::KmerAnalysisConfig cfg;
  cfg.k = 21;
  cfg.use_heavy_hitters = heavy_hitters;
  cfg.mg_capacity = mg_capacity;
  kcount::KmerAnalysis ka(team, cfg);

  const auto before = team.snapshot_all();
  util::WallTimer timer;
  team.run([&](pgas::Rank& rank) {
    std::vector<seq::ReadStore> mine(ds.reads.size());
    std::vector<seq::ReadSetView> sets;
    for (std::size_t lib = 0; lib < ds.reads.size(); ++lib) {
      if (!ds.libraries[lib].for_contigging) continue;
      for (std::size_t i = 0; i < ds.reads[lib].size(); ++i) {
        if (static_cast<int>((i / 2) % static_cast<std::size_t>(rank.nranks())) ==
            rank.id())
          mine[lib].append(ds.reads[lib][i]);
      }
      sets.emplace_back(mine[lib]);
    }
    ka.run(rank, sets);
  });

  RunResult result;
  result.wall = timer.seconds();
  const auto delta = bench::snapshot_delta(before, team.snapshot_all());
  result.modeled = machine.phase_seconds_no_io(delta);
  result.comm_fraction = machine.comm_fraction(delta);
  result.heavy_hitters = ka.heavy_hitters().size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 600'000));
  std::printf("Figure 6 reproduction: wheat-like genome of %llu bp\n",
              static_cast<unsigned long long>(genome_len));
  auto ds = sim::make_wheat_like(genome_len, 4243);
  std::printf("dataset: %llu reads, %llu bases\n",
              static_cast<unsigned long long>(ds.total_reads()),
              static_cast<unsigned long long>(ds.total_bases()));

  pgas::MachineModel machine;
  const auto axis = bench::default_scale_axis(opts);

  util::TextTable table({"ranks", "default_s", "hh_s", "speedup",
                         "default_comm", "hh_comm", "hh_count",
                         "default_wall_s", "hh_wall_s"});
  for (const auto& scale : axis) {
    const auto def = run_once(ds, scale, false, 32768, machine);
    const auto hh = run_once(ds, scale, true, 32768, machine);
    table.add_row({std::to_string(scale.ranks),
                   util::TextTable::fmt(def.modeled, 3),
                   util::TextTable::fmt(hh.modeled, 3),
                   util::TextTable::fmt(def.modeled / hh.modeled, 2) + "x",
                   util::TextTable::fmt_pct(def.comm_fraction),
                   util::TextTable::fmt_pct(hh.comm_fraction),
                   std::to_string(hh.heavy_hitters),
                   util::TextTable::fmt(def.wall, 2),
                   util::TextTable::fmt(hh.wall, 2)});
  }
  bench::emit("fig6_kmer_heavy_hitters",
              "Fig. 6: k-mer analysis on wheat — default vs heavy hitters "
              "(modeled seconds; paper: up to 2.4x at scale)",
              table);

  // θ sensitivity (paper: <10% across 1K..64K).
  util::TextTable theta({"theta", "modeled_s", "vs_32K"});
  const auto scale = axis.back();
  const double ref = run_once(ds, scale, true, 32768, machine).modeled;
  for (std::size_t t : {1024u, 8192u, 32768u, 65536u}) {
    const auto r = run_once(ds, scale, true, t, machine);
    theta.add_row({std::to_string(t), util::TextTable::fmt(r.modeled, 3),
                   util::TextTable::fmt_pct(r.modeled / ref - 1.0)});
  }
  bench::emit("fig6_theta_sensitivity",
              "θ sensitivity at the largest concurrency (paper: <10%)",
              theta);
  return 0;
}
