// HIPMER_CHECKED phase-discipline checker tests.
//
// Each violation class gets a test that deliberately commits it and asserts
// the checker reports the named diagnostic. The fixture swaps the process
// abort handler for one that records the Violation and throws
// PhaseViolation, which ThreadTeam::run propagates to the test body.
//
// This file is only built when the tree is configured with
// -DHIPMER_CHECKED=ON (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "align/contig_store.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/fault.hpp"
#include "pgas/phase_checker.hpp"
#include "pgas/thread_team.hpp"

namespace hipmer {
namespace {

struct SumMerge {
  void operator()(std::uint64_t& a, const std::uint64_t& b) const { a += b; }
};
using Map = pgas::DistHashMap<std::uint64_t, std::uint64_t,
                              std::hash<std::uint64_t>, SumMerge>;

/// Smallest key that `owner` owns under the map's default placement.
std::uint64_t key_owned_by(int owner, int p) {
  for (std::uint64_t k = 0;; ++k) {
    if (std::hash<std::uint64_t>{}(k) % static_cast<std::uint64_t>(p) ==
        static_cast<std::uint64_t>(owner))
      return k;
  }
}

/// Cross-rank ordering without a barrier (barriers would advance the epoch
/// and legalize exactly the races these tests must create).
void await(const std::atomic<int>& flag, int value) {
  while (flag.load(std::memory_order_acquire) < value)
    std::this_thread::yield();
}

class PhaseCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = pgas::set_violation_handler([this](const pgas::Violation& v) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        violations_.push_back(v);
      }
      throw pgas::PhaseViolation(v);
    });
  }

  void TearDown() override { pgas::set_violation_handler(previous_); }

  [[nodiscard]] std::vector<pgas::Violation> violations() {
    std::lock_guard<std::mutex> lock(mu_);
    return violations_;
  }

 private:
  std::mutex mu_;
  std::vector<pgas::Violation> violations_;
  pgas::ViolationHandler previous_;
};

// ---- lookup-during-WRITE ----

TEST_F(PhaseCheckerTest, LookupWithOwnBufferedStoresPending) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 // lint-phases: allow(flush-missing)
                 map.update_buffered(rank, 7, 1);
                 (void)map.find(rank, 7);  // never flushed
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleLookupDuringWrite);
  EXPECT_EQ(vs[0].table, "test.map");
  EXPECT_EQ(vs[0].rank, 0);
  // The diagnostic carries both call sites, captured in this file.
  EXPECT_NE(std::string(vs[0].site.file).find("test_phase_checker"),
            std::string::npos);
  EXPECT_NE(std::string(vs[0].other_site.file).find("test_phase_checker"),
            std::string::npos);
}

TEST_F(PhaseCheckerTest, LookupRacingAnotherRanksStore) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  std::atomic<int> stored{0};
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 if (rank.id() == 0) {
                   map.update(rank, 3, 1);
                   stored.store(1, std::memory_order_release);
                 } else {
                   await(stored, 1);
                   (void)map.find(rank, 3);  // no barrier since the store
                 }
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleLookupDuringWrite);
  EXPECT_EQ(vs[0].rank, 1);
  EXPECT_EQ(vs[0].other_rank, 0);
}

// ---- store-during-READ ----

TEST_F(PhaseCheckerTest, StoreRacingAnotherRanksLookup) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  std::atomic<int> looked{0};
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 if (rank.id() == 1) {
                   (void)map.find(rank, 11);
                   looked.store(1, std::memory_order_release);
                 } else {
                   await(looked, 1);
                   map.update(rank, 11, 1);  // table still in its READ phase
                 }
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleStoreDuringRead);
  EXPECT_EQ(vs[0].rank, 0);
  EXPECT_EQ(vs[0].other_rank, 1);
}

// ---- undrained-rows-at-barrier ----

TEST_F(PhaseCheckerTest, BarrierWithBufferedRowsPending) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 // lint-phases: allow(flush-missing)
                 map.update_buffered(rank, 5, 1);
                 rank.barrier();  // no flush() before the phase boundary
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleUndrained);
  EXPECT_EQ(vs[0].table, "test.map");
  EXPECT_NE(vs[0].detail.find("1 buffered store"), std::string::npos);
}

// ---- stale-cache-across-write ----

TEST_F(PhaseCheckerTest, ReadCacheSurvivingAWritePhase) {
  const int p = 2;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  const std::uint64_t remote = key_owned_by(0, p);  // remote from rank 1
  EXPECT_THROW(
      team.run([&](pgas::Rank& rank) {
        // Epoch 0: write phase.
        if (rank.id() == 0) map.update(rank, remote, 42);
        rank.barrier();
        // Epoch 1: rank 1 opens a cache and warms it. The missing
        // disable_read_cache *is* the bug under test, so the static lint
        // is waved off where the runtime checker must fire.
        if (rank.id() == 1) {
          map.enable_read_cache(rank, 8);  // lint-phases: allow(cache-undropped)
          map.find_buffered(rank, remote, 0,
                            [](const std::uint64_t&, const std::uint64_t*,
                               std::uint64_t) {});
          map.process_lookups(rank, [](const std::uint64_t&,
                                       const std::uint64_t*, std::uint64_t) {});
        }
        rank.barrier();
        // Epoch 2: a write phase — the cache should have been dropped.
        if (rank.id() == 0) map.update(rank, remote, 1);
        rank.barrier();
        // Epoch 3: rank 1 consults the stale cache.
        if (rank.id() == 1) {
          map.find_buffered(rank, remote, 1,
                            [](const std::uint64_t&, const std::uint64_t*,
                               std::uint64_t) {});
        }
      }),
      pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleStaleCache);
  EXPECT_EQ(vs[0].rank, 1);
  // The "other side" is the write that moved the table version.
  EXPECT_EQ(vs[0].other_rank, 0);
}

// ---- mismatched-collective ----

TEST_F(PhaseCheckerTest, RanksEnterDifferentCollectives) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 // Same barrier instance, different collectives. Both
                 // publish/consume identical slot traffic, so the only
                 // divergence is the collective kind itself.
                 if (rank.id() == 0) {
                   (void)rank.allreduce_sum(std::uint64_t{1});
                 } else {
                   (void)rank.allgather(std::uint64_t{1});
                 }
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_GE(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleMismatchedCollective);
  EXPECT_NE(vs[0].detail.find("allreduce"), std::string::npos);
  EXPECT_NE(vs[0].detail.find("allgather"), std::string::npos);
}

// ---- mixed-access ----

TEST_F(PhaseCheckerTest, FineAndBufferedStoresInOneEpoch) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 // lint-phases: allow(flush-missing)
                 map.update(rank, 1, 1);
                 map.update_buffered(rank, 2, 1);  // same epoch, same table
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleMixedAccess);
  // to_string() is the abort message: rule, table and both sites in one blob.
  const std::string msg = vs[0].to_string();
  EXPECT_NE(msg.find(pgas::kRuleMixedAccess), std::string::npos);
  EXPECT_NE(msg.find("test.map"), std::string::npos);
  EXPECT_NE(msg.find("test_phase_checker"), std::string::npos);
}

// ---- legal protocols stay silent ----

TEST_F(PhaseCheckerTest, BarrierReopensTheTable) {
  const int p = 2;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  // The canonical bulk-synchronous cycle: WRITE -> flush -> barrier -> READ
  // -> barrier -> WRITE again. No diagnostics.
  team.run([&](pgas::Rank& rank) {
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t k = 0; k < 32; ++k)
        map.update_buffered(rank, k, 1);
      map.flush(rank);
      rank.barrier();
      for (std::uint64_t k = 0; k < 32; ++k)
        EXPECT_TRUE(map.find(rank, k).has_value());
      rank.barrier();
    }
  });
  EXPECT_TRUE(violations().empty());
}

TEST_F(PhaseCheckerTest, SameRankFineStoreThenReadIsAllowed) {
  // A single rank interleaving its own fine stores and reads is sequential
  // code — there is nothing to race.
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  team.run([&](pgas::Rank& rank) {
    map.update(rank, 9, 2);
    EXPECT_EQ(map.find(rank, 9).value_or(0), 2u);
    map.update(rank, 9, 3);
    EXPECT_EQ(map.find(rank, 9).value_or(0), 5u);
  });
  EXPECT_TRUE(violations().empty());
}

TEST_F(PhaseCheckerTest, RelaxedPhaseOptsOutOfTheRules) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  team.run([&](pgas::Rank& rank) {
    pgas::RelaxedPhase relaxed(rank, map);
    map.update(rank, 1, 1);
    map.update_buffered(rank, 2, 1);  // mixed-access, but relaxed
    (void)map.find(rank, 1);          // lookup-during-WRITE, but relaxed
    map.flush(rank);
  });
  EXPECT_TRUE(violations().empty());
}

// ---- ContigStore is held to the same contract ----

TEST_F(PhaseCheckerTest, ContigStoreDepthWriteRacingAFetch) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  align::ContigStore store(team);
  std::atomic<int> fetched{0};
  EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                 store.build(rank, {});  // ends with a barrier: store phase
                 if (rank.id() == 1) {
                   (void)store.read(rank, 0);
                   fetched.store(1, std::memory_order_release);
                 } else {
                   await(fetched, 1);
                   store.set_local_depth(rank, 0, 2.5);  // races the fetch
                 }
               }),
               pgas::PhaseViolation);
  const auto vs = violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, pgas::kRuleStoreDuringRead);
  EXPECT_EQ(vs[0].table, "align.contig_store");
  EXPECT_EQ(vs[0].rank, 0);
  EXPECT_EQ(vs[0].other_rank, 1);
}

// ---- fault injection: a killed team is not a phase violation ----

TEST_F(PhaseCheckerTest, RankKillUnwindReportsNoViolations) {
  // Rank 0 dies at a barrier while it still holds buffered rows. The unwind
  // (arrive_and_drop, survivors draining) must surface as RankKilled only —
  // the checker suppresses itself once fault injection fires, and a fresh
  // team restarts clean, mirroring the checkpoint/resume path.
  {
    pgas::ThreadTeam team(pgas::Topology{2, 2});
    Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
    map.set_name("test.map");
    team.faults().set_plan(pgas::FaultPlan{0, "write", 0, 0});
    team.faults().begin_stage("write");
    EXPECT_THROW(team.run([&](pgas::Rank& rank) {
                   if (rank.id() == 0) {
                     // Dies at the barrier below with these rows buffered —
                     // exactly the state a real mid-phase crash leaves.
                     map.update_buffered(rank, 1, 1);
                   } else {
                     map.update_buffered(rank, 2, 1);
                     map.flush(rank);
                   }
                   rank.barrier();
                   (void)map.find(rank, 2);
                   rank.barrier();
                 }),
                 pgas::RankKilled);
    EXPECT_TRUE(team.faults().fired());
    EXPECT_TRUE(violations().empty());
  }
  // Restart: a fresh team and table run the same protocol to completion.
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 64});
  map.set_name("test.map");
  team.run([&](pgas::Rank& rank) {
    map.update_buffered(rank, static_cast<std::uint64_t>(rank.id()), 1);
    map.flush(rank);
    rank.barrier();
    EXPECT_TRUE(map.find(rank, static_cast<std::uint64_t>(rank.id())).has_value());
  });
  EXPECT_TRUE(violations().empty());
}

}  // namespace
}  // namespace hipmer
