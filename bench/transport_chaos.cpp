// Transport chaos overhead — what the delivery protocol costs, and what
// each fault schedule costs on top of it.
//
// Two layers are swept across the built-in chaos schedules:
//
//   1. **Raw envelope throughput**: every rank streams fixed-size payloads
//      to every peer through Transport::send (frame + CRC-32C + seq/ack +
//      retry). The clean row is the protocol's intrinsic overhead; the
//      lossy rows show how retries/backoff scale with the fault rate.
//   2. **Distributed store path**: the k-mer counting inner loop
//      (update_buffered -> flush) with the table's batches riding the
//      lossy fabric. This is the number that matters for the pipeline:
//      end-to-end store throughput including dedup/reorder bookkeeping.
//      The clean row measures the in-place path (no frame, no CRC: the
//      transport lets each in-process batch apply from the engine's
//      buffer); every chaos row frames each batch between two ranks.
//
// Assemblies are byte-identical under every schedule (tests/test_chaos.cpp
// asserts that); this bench reports what that guarantee costs.

#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "pgas/chaos.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/fault.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/transport.hpp"
#include "util/timer.hpp"

namespace {

using namespace hipmer;

struct Schedule {
  const char* name;
  const char* spec;
};
constexpr Schedule kSchedules[] = {
    {"clean", ""},
    {"drop10", "drop=0.10"},
    {"dup5", "dup=0.05"},
    {"reorder30", "reorder=0.30"},
    {"delay30", "delay=0.30"},
    {"corrupt5", "corrupt=0.05"},
    {"combined", "drop=0.08,dup=0.04,reorder=0.10,delay=0.10,corrupt=0.03"},
};

struct Measured {
  double seconds;
  pgas::CommStatsSnapshot comm;
};

/// Raw envelope streaming: `batches` payloads of `payload_bytes` from every
/// rank to every other rank, then drain.
Measured raw_envelopes(const pgas::Topology& topo, const char* spec,
                       int batches, std::size_t payload_bytes) {
  pgas::ThreadTeam team(topo);
  team.transport().set_plan(pgas::ChaosPlan::parse(4242, spec));
  const auto ch = team.transport().open_channel("bench/raw");
  const auto before = team.snapshot_all();
  util::WallTimer timer;
  team.run([&](pgas::Rank& rank) {
    std::vector<std::byte> payload(payload_bytes);
    std::memset(payload.data(), 0x5a, payload.size());
    auto sink = [](int, const std::byte*, std::size_t) {};
    for (int b = 0; b < batches; ++b)
      for (int dst = 0; dst < rank.nranks(); ++dst) {
        if (dst == rank.id()) continue;
        team.transport().send(rank.id(), dst, ch, payload, rank.stats(), sink);
      }
    team.transport().drain(rank.id(), ch, rank.stats(), sink);
    rank.barrier();
  });
  const double secs = timer.seconds();
  return {secs, bench::sum_stats(bench::snapshot_delta(before, team.snapshot_all()))};
}

struct AddMerge {
  void operator()(std::uint32_t& existing, const std::uint32_t& incoming) const {
    existing += incoming;
  }
};

/// The k-mer counting inner loop: `ops` buffered increments per rank into a
/// distributed table whose batches travel the lossy fabric.
Measured store_path(const pgas::Topology& topo, const char* spec, int ops) {
  pgas::ThreadTeam team(topo);
  team.transport().set_plan(pgas::ChaosPlan::parse(4242, spec));
  using Table = pgas::DistHashMap<std::uint64_t, std::uint32_t,
                                  std::hash<std::uint64_t>, AddMerge>;
  Table counts(team, Table::Config{50'000, 512});
  counts.set_name("bench/counts");
  const auto before = team.snapshot_all();
  util::WallTimer timer;
  team.run([&](pgas::Rank& rank) {
    std::uint64_t key = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rank.id() + 1);
    for (int i = 0; i < ops; ++i) {
      key = key * 6364136223846793005ull + 1442695040888963407ull;
      counts.update_buffered(rank, key % 50000, 1u);
    }
    counts.flush(rank);
    rank.barrier();
  });
  const double secs = timer.seconds();
  return {secs, bench::sum_stats(bench::snapshot_delta(before, team.snapshot_all()))};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipmer;
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.get_int("ranks", 8));
  const int rpn = static_cast<int>(opts.get_int("ranks-per-node", 4));
  const int batches = static_cast<int>(opts.get_int("batches", 2000));
  const auto payload = static_cast<std::size_t>(opts.get_int("payload", 4096));
  const int ops = static_cast<int>(opts.get_int("ops", 200'000));
  const pgas::Topology topo{ranks, rpn};

  util::TextTable raw({"schedule", "wall_s", "MB_per_s", "retries", "dups",
                       "reorders", "corrupts"});
  for (const auto& s : kSchedules) {
    const auto m = raw_envelopes(topo, s.spec, batches, payload);
    const double bytes = static_cast<double>(batches) * static_cast<double>(payload) *
                         static_cast<double>(ranks) * static_cast<double>(ranks - 1);
    raw.add_row({s.name, util::TextTable::fmt(m.seconds, 3),
                 util::TextTable::fmt(bytes / 1e6 / m.seconds, 1),
                 std::to_string(m.comm.transport_retries),
                 std::to_string(m.comm.transport_dups),
                 std::to_string(m.comm.transport_reorders),
                 std::to_string(m.comm.transport_corrupts)});
  }
  bench::emit("transport_chaos_raw",
              "raw envelope throughput under chaos schedules (" +
                  std::to_string(ranks) + " ranks, " + std::to_string(payload) +
                  "B payloads)",
              raw);

  util::TextTable store({"schedule", "wall_s", "Mops_per_s", "retries",
                         "dups", "reorders", "corrupts"});
  for (const auto& s : kSchedules) {
    const auto m = store_path(topo, s.spec, ops);
    const double total_ops = static_cast<double>(ops) * static_cast<double>(ranks);
    store.add_row({s.name, util::TextTable::fmt(m.seconds, 3),
                   util::TextTable::fmt(total_ops / 1e6 / m.seconds, 2),
                   std::to_string(m.comm.transport_retries),
                   std::to_string(m.comm.transport_dups),
                   std::to_string(m.comm.transport_reorders),
                   std::to_string(m.comm.transport_corrupts)});
  }
  bench::emit("transport_chaos_store",
              "buffered store throughput under chaos schedules (" +
                  std::to_string(ranks) + " ranks)",
              store);
  return 0;
}
