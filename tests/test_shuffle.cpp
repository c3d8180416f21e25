// Locality shuffle: the ShuffleExchange substrate (exactly-once delivery in
// deterministic order, with and without chaos), the read-shuffle invariants
// (nothing lost, mates co-located with each other and their alignments),
// and the headline guarantee — assembly output is byte-identical with
// --shuffle-reads and --packed-reads in any combination, on multiple team
// sizes and under a chaos schedule — while gap closing sends fewer
// off-node messages.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "pgas/chaos.hpp"
#include "pgas/shuffle.hpp"
#include "pgas/thread_team.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/read_shuffle.hpp"
#include "seq/read_name.hpp"
#include "seq/read_store.hpp"
#include "sim/datasets.hpp"

namespace hipmer {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string string_of(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Every rank sends a deterministic set of tagged records to every other
/// rank; collect() must return exactly that multiset, in (src asc, send
/// order) order, on every rank.
void exchange_delivers_exactly_once(pgas::ChaosPlan plan) {
  const int p = 4;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  team.transport().set_plan(plan);
  pgas::ShuffleExchange exchange(team, "test.shuffle_exchange");
  std::vector<std::vector<std::string>> received(p);
  team.run([&](pgas::Rank& rank) {
    const int me = rank.id();
    for (int round = 0; round < 50; ++round) {
      const int dest = (me + 1 + round) % p;
      if (dest == me) continue;
      exchange.send(rank, dest,
                    bytes_of("src" + std::to_string(me) + ".r" +
                             std::to_string(round)));
    }
    auto records = exchange.collect(rank);
    for (const auto& r : records)
      received[static_cast<std::size_t>(me)].push_back(string_of(r));
  });

  for (int me = 0; me < p; ++me) {
    std::vector<std::string> expected;
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      for (int round = 0; round < 50; ++round)
        if ((src + 1 + round) % p == me)
          expected.push_back("src" + std::to_string(src) + ".r" +
                             std::to_string(round));
    }
    EXPECT_EQ(received[static_cast<std::size_t>(me)], expected)
        << "rank " << me;
  }
}

TEST(ShuffleExchange, DeliversExactlyOnceInOrder) {
  exchange_delivers_exactly_once(pgas::ChaosPlan{});
}

TEST(ShuffleExchange, SurvivesDropDupReorderChaos) {
  exchange_delivers_exactly_once(
      pgas::ChaosPlan::parse(17, "drop=0.15,dup=0.1,reorder=0.1"));
}

TEST(ShuffleExchange, ReusableAcrossPhases) {
  const int p = 3;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  pgas::ShuffleExchange exchange(team, "test.shuffle_reuse");
  std::vector<std::vector<std::string>> got(p);
  team.run([&](pgas::Rank& rank) {
    const int me = rank.id();
    for (int phase = 0; phase < 3; ++phase) {
      std::string tag = "p";
      tag += std::to_string(phase);
      exchange.send(rank, (me + 1) % p, bytes_of(tag));
      auto records = exchange.collect(rank);
      for (const auto& r : records)
        got[static_cast<std::size_t>(me)].push_back(string_of(r));
    }
  });
  for (int me = 0; me < p; ++me)
    EXPECT_EQ(got[static_cast<std::size_t>(me)],
              (std::vector<std::string>{"p0", "p1", "p2"}));
}

// ---- read shuffle invariants ----

struct ShuffleFixture {
  int p = 4;
  std::vector<std::vector<seq::ReadStore>> libs;       // [rank][lib]
  std::vector<std::vector<align::ReadAlignment>> alns;  // [rank]
};

/// Build a deterministic distributed read set (2 libraries) where pair i of
/// library l aligns to contig (i * 7 + l) % 16, plus some unaligned pairs.
ShuffleFixture make_fixture(bool packed) {
  ShuffleFixture f;
  f.libs.assign(static_cast<std::size_t>(f.p), {});
  f.alns.assign(static_cast<std::size_t>(f.p), {});
  for (int r = 0; r < f.p; ++r)
    for (int lib = 0; lib < 2; ++lib)
      f.libs[static_cast<std::size_t>(r)].emplace_back(packed);
  const int pairs_per_lib = 40;
  for (int lib = 0; lib < 2; ++lib) {
    for (int pair = 0; pair < pairs_per_lib; ++pair) {
      const int home = pair % f.p;  // ingest deal
      auto& store = f.libs[static_cast<std::size_t>(home)][static_cast<std::size_t>(lib)];
      for (int mate = 0; mate < 2; ++mate) {
        const std::string name = "lib" + std::to_string(lib) + ":" +
                                 std::to_string(pair) + "/" +
                                 std::to_string(mate);
        store.append(name, "ACGTACGTACGTACGTACGT", "IIIIIIIIIIIIIIIIIIII");
      }
      if (pair % 5 == 4) continue;  // every 5th pair has no alignment
      align::ReadAlignment a;
      a.pair_id = static_cast<std::uint64_t>(pair);
      a.mate = 0;
      a.library = lib;
      a.contig_id = static_cast<std::uint32_t>((pair * 7 + lib) % 16);
      a.score = 20;
      a.read_len = 20;
      f.alns[static_cast<std::size_t>(home)].push_back(a);
    }
  }
  return f;
}

void check_shuffle_invariants(bool packed) {
  auto f = make_fixture(packed);
  pgas::ThreadTeam team(pgas::Topology{f.p, 2});
  pgas::ShuffleExchange exchange(team, "test.read_shuffle");
  std::vector<pipeline::ReadShuffleStats> stats(static_cast<std::size_t>(f.p));
  team.run([&](pgas::Rank& rank) {
    const auto r = static_cast<std::size_t>(rank.id());
    pipeline::shuffle_reads_by_alignment(rank, exchange, f.libs[r], f.alns[r],
                                         &stats[r]);
  });

  // Nothing lost, nothing duplicated: the global (name -> rank) map covers
  // every read exactly once.
  std::map<std::string, int> rank_of;
  std::size_t total_reads = 0;
  std::size_t total_alns = 0;
  for (int r = 0; r < f.p; ++r) {
    for (int lib = 0; lib < 2; ++lib) {
      const auto& store =
          f.libs[static_cast<std::size_t>(r)][static_cast<std::size_t>(lib)];
      EXPECT_EQ(store.packed(), packed);
      for (std::size_t i = 0; i < store.size(); ++i) {
        const auto [it, inserted] =
            rank_of.emplace(std::string(store.name(i)), r);
        EXPECT_TRUE(inserted) << "duplicate read " << it->first;
        ++total_reads;
      }
    }
    total_alns += f.alns[static_cast<std::size_t>(r)].size();
  }
  EXPECT_EQ(total_reads, 2u * 2u * 40u);
  EXPECT_EQ(total_alns, 2u * 32u);

  std::uint64_t moved = 0;
  for (const auto& s : stats) moved += s.pairs_moved;
  EXPECT_GT(moved, 0u);

  for (int r = 0; r < f.p; ++r) {
    // Mates stay co-located AND adjacent mate-0-first (the read_id ^ 1
    // convention downstream consumers rely on).
    for (int lib = 0; lib < 2; ++lib) {
      const auto& store =
          f.libs[static_cast<std::size_t>(r)][static_cast<std::size_t>(lib)];
      ASSERT_EQ(store.size() % 2, 0u);
      for (std::size_t i = 0; i < store.size(); i += 2) {
        std::uint64_t p0 = 0, p1 = 0;
        int m0 = 0, m1 = 0;
        ASSERT_TRUE(seq::parse_read_name(store.name(i), p0, m0));
        ASSERT_TRUE(seq::parse_read_name(store.name(i + 1), p1, m1));
        EXPECT_EQ(p0, p1);
        EXPECT_EQ(m0, 0);
        EXPECT_EQ(m1, 1);
      }
    }
    // Aligned pairs landed on their contig's owner, alignments beside them.
    for (const auto& a : f.alns[static_cast<std::size_t>(r)]) {
      EXPECT_EQ(static_cast<int>(a.contig_id % static_cast<std::uint32_t>(f.p)),
                r)
          << "alignment for pair " << a.pair_id << " not on contig owner";
      const std::string name = "lib" + std::to_string(a.library) + ":" +
                               std::to_string(a.pair_id) + "/0";
      ASSERT_TRUE(rank_of.count(name));
      EXPECT_EQ(rank_of[name], r) << "read " << name
                                  << " separated from its alignment";
    }
  }
}

TEST(ReadShuffle, InvariantsPlainStore) { check_shuffle_invariants(false); }
TEST(ReadShuffle, InvariantsPackedStore) { check_shuffle_invariants(true); }

// ---- pipeline byte-identity ----

pipeline::PipelineConfig base_config() {
  pipeline::PipelineConfig cfg;
  cfg.k = 25;
  cfg.kmer.min_count = 3;
  cfg.sync_k();
  return cfg;
}

std::vector<std::pair<std::string, std::string>> run_pipeline(
    int nranks, pipeline::PipelineConfig cfg, const sim::Dataset& ds,
    double* gap_offnode = nullptr) {
  pipeline::Pipeline pipe(pgas::Topology{nranks, 2}, cfg);
  const auto result = pipe.run(ds.reads, ds.libraries);
  if (gap_offnode != nullptr) {
    *gap_offnode = 0;
    for (const auto& s : result.stages)
      if (s.name == pipeline::kStageGapClosing)
        *gap_offnode += static_cast<double>(s.comm.offnode_msgs);
  }
  std::vector<std::pair<std::string, std::string>> records;
  for (const auto& rec : result.scaffolds) records.emplace_back(rec.name, rec.seq);
  return records;
}

TEST(ReadShuffle, AssemblyByteIdenticalAcrossModes) {
  auto ds = sim::make_human_like(30000, 4242, 15.0);
  for (const int nranks : {3, 4}) {
    auto cfg = base_config();
    const auto baseline = run_pipeline(nranks, cfg, ds);
    ASSERT_FALSE(baseline.empty());

    cfg.packed_reads = true;
    EXPECT_EQ(run_pipeline(nranks, cfg, ds), baseline)
        << "packed-reads changed output at nranks=" << nranks;

    cfg.packed_reads = false;
    cfg.shuffle_reads = true;
    EXPECT_EQ(run_pipeline(nranks, cfg, ds), baseline)
        << "shuffle-reads changed output at nranks=" << nranks;

    cfg.packed_reads = true;
    EXPECT_EQ(run_pipeline(nranks, cfg, ds), baseline)
        << "packed+shuffle changed output at nranks=" << nranks;
  }
}

TEST(ReadShuffle, ByteIdenticalUnderChaosAndMultipleRounds) {
  auto ds = sim::make_human_like(30000, 4243, 15.0);
  auto cfg = base_config();
  cfg.scaffolding_rounds = 2;
  const auto baseline = run_pipeline(4, cfg, ds);
  ASSERT_FALSE(baseline.empty());

  cfg.packed_reads = true;
  cfg.shuffle_reads = true;
  cfg.chaos = pgas::ChaosPlan::parse(23, "drop=0.05,dup=0.05");
  EXPECT_EQ(run_pipeline(4, cfg, ds), baseline);
}

TEST(ReadShuffle, MultiLibraryWheatByteIdenticalOverRounds) {
  // Five libraries number their pairs independently, and the shuffle puts
  // reads of different libraries that share a pair id on one rank. Splint
  // detection must keep them apart for the output not to depend on it.
  auto ds = sim::make_wheat_like(200000, 1002);
  pipeline::PipelineConfig cfg;
  cfg.scaffolding_rounds = 2;
  const auto baseline = run_pipeline(4, cfg, ds);
  ASSERT_FALSE(baseline.empty());
  cfg.shuffle_reads = true;
  EXPECT_EQ(run_pipeline(4, cfg, ds), baseline);
}

TEST(ReadShuffle, GapClosingSendsFewerOffNodeMessages) {
  auto ds = sim::make_human_like(40000, 4244, 18.0);
  auto cfg = base_config();
  double without = 0.0;
  double with = 0.0;
  const auto baseline = run_pipeline(4, cfg, ds, &without);
  cfg.shuffle_reads = true;
  const auto shuffled = run_pipeline(4, cfg, ds, &with);
  EXPECT_EQ(shuffled, baseline);
  // The whole point of the shuffle: gap closing's projections become
  // mostly local.
  EXPECT_LT(with, without) << "with=" << with << " without=" << without;
}

}  // namespace
}  // namespace hipmer
