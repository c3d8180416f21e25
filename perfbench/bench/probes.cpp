#include "probes.hpp"

#include <atomic>
#include <stdexcept>

#include "io/fastq.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/types.hpp"

namespace perfbench {

namespace hm = hipmer;
using hm::pgas::Rank;

namespace {

/// Bounds probe memory: k-mer instances stored and looked up per repeat.
constexpr std::size_t kMaxKeys = 1'000'000;
constexpr int kRepeats = 3;
constexpr int kTeamRuns = 200;
constexpr int kBarriers = 2000;
constexpr std::size_t kReadCacheCapacity = 1 << 15;

struct SumMerge {
  void operator()(std::uint32_t& a, const std::uint32_t& b) const { a += b; }
};
using Map = hm::pgas::DistHashMap<hm::seq::KmerT, std::uint32_t,
                                  hm::seq::KmerHashT, SumMerge>;

std::vector<std::vector<hm::seq::KmerT>> rank_keys(const Input& input) {
  const auto reads = hm::io::read_fastq(input.libraries.front().fastq_path);
  std::vector<std::vector<hm::seq::KmerT>> keys(kRanks);
  std::size_t total = 0;
  for (std::size_t i = 0; i < reads.size() && total < kMaxKeys; ++i) {
    auto& mine = keys[(i / 2) % kRanks];
    for (hm::seq::KmerScanner<hm::seq::KmerT::kMaxK> scan(reads[i].seq,
                                                          input.config.k);
         !scan.done() && total < kMaxKeys; scan.next(), ++total)
      mine.push_back(scan.canonical());
  }
  return keys;
}

double timed_run(hm::pgas::ThreadTeam& team,
                 const std::function<void(Rank&)>& fn) {
  const auto t0 = Clock::now();
  team.run(fn);
  return seconds_since(t0);
}

}  // namespace

MetricTable probe_pgas(const Input& input) {
  hm::pgas::ThreadTeam team(hm::pgas::Topology{kRanks, kRanksPerNode});
  const auto keys = rank_keys(input);
  std::size_t nkeys = 0;
  for (const auto& k : keys) nkeys += k.size();
  const double mops = static_cast<double>(nkeys) / 1e6;

  Samples store_s, lookup_s, cached_s;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Map map(team, Map::Config{nkeys, input.config.kmer.flush_threshold});
    store_s.add(timed_run(team, [&](Rank& rank) {
      for (const auto& km : keys[static_cast<std::size_t>(rank.id())])
        map.update_buffered(rank, km, 1u);
      map.flush(rank);
      rank.barrier();
    }));
    for (const bool cached : {false, true}) {
      std::atomic<std::size_t> found{0};
      const double s = timed_run(team, [&](Rank& rank) {
        std::size_t mine = 0;
        auto handler = [&mine](const hm::seq::KmerT&, const std::uint32_t* v,
                               std::uint64_t) {
          if (v != nullptr) ++mine;
        };
        if (cached) map.enable_read_cache(rank, kReadCacheCapacity);
        for (const auto& km : keys[static_cast<std::size_t>(rank.id())])
          map.find_buffered(rank, km, 0, handler);
        map.process_lookups(rank, handler);
        if (cached) map.disable_read_cache(rank);
        found.fetch_add(mine);
        rank.barrier();
      });
      if (found.load() != nkeys)
        throw std::runtime_error("pgas probe: stored keys not found");
      (cached ? cached_s : lookup_s).add(s);
    }
  }

  Samples team_run_s;
  for (int i = 0; i < kTeamRuns; ++i)
    team_run_s.add(timed_run(team, [](Rank&) {}));
  Samples barrier_s;
  for (int rep = 0; rep < kRepeats; ++rep)
    barrier_s.add(timed_run(team, [](Rank& rank) {
                    for (int i = 0; i < kBarriers; ++i) rank.barrier();
                  }) /
                  kBarriers);

  MetricTable m;
  m["pgas.store_Mops"] = {mops / store_s.median(), "Mops/s", store_s.size()};
  m["pgas.lookup_Mops"] = {mops / lookup_s.median(), "Mops/s", lookup_s.size()};
  m["pgas.lookup_cached_Mops"] = {mops / cached_s.median(), "Mops/s",
                                  cached_s.size()};
  m["pgas.team_run_ms"] = {team_run_s.median() * 1e3, "ms", team_run_s.size()};
  m["pgas.barrier_us"] = {barrier_s.median() * 1e6, "us", barrier_s.size()};
  std::printf("  pgas probe: %zu keys per repeat\n", nkeys);
  return m;
}

}  // namespace perfbench
