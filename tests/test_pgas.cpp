#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pgas/aggregating_engine.hpp"
#include "pgas/chaos.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/read_cache.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/topology.hpp"

namespace hipmer::pgas {
namespace {

TEST(Topology, NodeMapping) {
  Topology topo{10, 4};
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(9), 2);
  EXPECT_EQ(topo.num_nodes(), 3);
  EXPECT_TRUE(topo.same_node(4, 7));
  EXPECT_FALSE(topo.same_node(3, 4));
}

TEST(ThreadTeam, RunsEveryRankExactlyOnce) {
  ThreadTeam team(Topology{8, 4});
  std::atomic<int> counter{0};
  std::array<std::atomic<int>, 8> seen{};
  team.run([&](Rank& rank) {
    counter.fetch_add(1);
    seen[static_cast<std::size_t>(rank.id())].fetch_add(1);
    EXPECT_EQ(rank.nranks(), 8);
    EXPECT_EQ(rank.node(), rank.id() / 4);
  });
  EXPECT_EQ(counter.load(), 8);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadTeam, PropagatesExceptions) {
  ThreadTeam team(Topology{4, 4});
  EXPECT_THROW(
      team.run([&](Rank& rank) {
        if (rank.id() == 2) throw std::runtime_error("rank 2 failed");
      }),
      std::runtime_error);
}

TEST(Collectives, AllreduceSumMaxMin) {
  ThreadTeam team(Topology{6, 3});
  team.run([&](Rank& rank) {
    const int sum = rank.allreduce_sum(rank.id() + 1);
    EXPECT_EQ(sum, 21);  // 1+2+...+6
    const int mx = rank.allreduce_max(rank.id());
    EXPECT_EQ(mx, 5);
    const int mn = rank.allreduce_min(rank.id() + 10);
    EXPECT_EQ(mn, 10);
  });
}

TEST(Collectives, AllgatherOrdered) {
  ThreadTeam team(Topology{5, 2});
  team.run([&](Rank& rank) {
    const auto all = rank.allgather(rank.id() * rank.id());
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    std::vector<int> mine(static_cast<std::size_t>(rank.id()), rank.id());
    const auto all = rank.allgatherv(mine);
    // Sizes 0+1+2+3 = 6 elements, in rank order.
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all, (std::vector<int>{1, 2, 2, 3, 3, 3}));
  });
}

TEST(Collectives, BroadcastFromNonZeroRoot) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    const double v = rank.broadcast(rank.id() == 2 ? 2.718 : -1.0, 2);
    EXPECT_DOUBLE_EQ(v, 2.718);
  });
}

TEST(Collectives, ExscanSum) {
  ThreadTeam team(Topology{5, 5});
  team.run([&](Rank& rank) {
    const int prefix = rank.exscan_sum(10);
    EXPECT_EQ(prefix, rank.id() * 10);
  });
}

TEST(Collectives, AlltoallvDeliversExactly) {
  const int p = 6;
  ThreadTeam team(Topology{p, 3});
  team.run([&](Rank& rank) {
    // Rank r sends r*1000+d repeated (d+1) times to each destination d.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d + 1),
                                              rank.id() * 1000 + d);
    const auto in = rank.alltoallv(out);
    // This rank receives (id+1) copies of s*1000+id from every sender s.
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p * (rank.id() + 1)));
    std::size_t idx = 0;
    for (int s = 0; s < p; ++s)
      for (int c = 0; c <= rank.id(); ++c)
        EXPECT_EQ(in[idx++], s * 1000 + rank.id());
  });
}

TEST(Collectives, AlltoallvAllEmptyDestinations) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  team.run([&](Rank& rank) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    const auto in = rank.alltoallv(out);
    EXPECT_TRUE(in.empty());
  });
}

TEST(Collectives, AlltoallvSomeEmptyContributions) {
  // Only even ranks send; everyone still converges and receives exactly
  // the even ranks' payloads.
  const int p = 6;
  ThreadTeam team(Topology{p, 3});
  team.run([&](Rank& rank) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    if (rank.id() % 2 == 0)
      for (int d = 0; d < p; ++d)
        out[static_cast<std::size_t>(d)].push_back(rank.id());
    const auto in = rank.alltoallv(out);
    ASSERT_EQ(in.size(), 3u);  // ranks 0, 2, 4
    EXPECT_EQ(in, (std::vector<int>{0, 2, 4}));
  });
}

TEST(Collectives, AllgathervAllEmpty) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    const auto all = rank.allgatherv(std::vector<int>{});
    EXPECT_TRUE(all.empty());
  });
}

TEST(Collectives, SingleRankTeam) {
  // A team of one: every collective degenerates to the identity and must
  // not deadlock on itself.
  ThreadTeam team(Topology{1, 1});
  team.run([&](Rank& rank) {
    EXPECT_EQ(rank.nranks(), 1);
    rank.barrier();
    EXPECT_EQ(rank.allreduce_sum(7), 7);
    EXPECT_EQ(rank.allreduce_max(-3), -3);
    EXPECT_EQ(rank.exscan_sum(5), 0);
    EXPECT_DOUBLE_EQ(rank.broadcast(1.5, 0), 1.5);
    EXPECT_EQ(rank.allgather(9), std::vector<int>{9});
    EXPECT_EQ(rank.allgatherv(std::vector<int>{1, 2}),
              (std::vector<int>{1, 2}));
    std::vector<std::vector<int>> out{{42}};
    EXPECT_EQ(rank.alltoallv(out), std::vector<int>{42});
    rank.barrier();
  });
}

TEST(Collectives, RepeatedBarriersStayInLockstep) {
  ThreadTeam team(Topology{8, 2});
  std::atomic<int> phase_sum{0};
  team.run([&](Rank& rank) {
    for (int round = 0; round < 50; ++round) {
      phase_sum.fetch_add(1);
      rank.barrier();
      EXPECT_EQ(phase_sum.load() % 8, 0) << "round " << round;
      rank.barrier();
    }
  });
}

// ---- DistHashMap ----

using Map = DistHashMap<std::uint64_t, std::uint64_t>;

struct SumMerge {
  void operator()(std::uint64_t& a, const std::uint64_t& b) const { a += b; }
};
using CountMap = DistHashMap<std::uint64_t, std::uint64_t,
                             std::hash<std::uint64_t>, SumMerge>;

TEST(DistHashMap, InsertFindAcrossRanks) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 16});
  team.run([&](Rank& rank) {
    // Each rank inserts a disjoint key range.
    for (std::uint64_t i = 0; i < 100; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(rank.id()) * 1000 + i;
      map.update(rank, key, key * 2);
    }
    rank.barrier();
    // Every rank can read every key.
    for (int r = 0; r < rank.nranks(); ++r) {
      for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(r) * 1000 + i;
        const auto v = map.find(rank, key);
        ASSERT_TRUE(v.has_value()) << key;
        EXPECT_EQ(*v, key * 2);
      }
    }
    EXPECT_FALSE(map.find(rank, 999999u).has_value());
  });
  EXPECT_EQ(map.size_unsafe(), 400u);
}

TEST(DistHashMap, ConcurrentSumsAreExact) {
  // All ranks hammer the same small key set with additive updates; the
  // totals must be exact (per-bucket locking, no lost updates).
  const int p = 8;
  ThreadTeam team(Topology{p, 4});
  CountMap map(team, CountMap::Config{.global_capacity = 64, .flush_threshold = 8});
  const int updates_per_rank = 5000;
  team.run([&](Rank& rank) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()));
    for (int i = 0; i < updates_per_rank; ++i)
      map.update(rank, rng() % 10, 1);
  });
  std::atomic<std::uint64_t> total{0};
  team.run([&](Rank& rank) {
    if (!rank.is_root()) return;
    for (std::uint64_t key = 0; key < 10; ++key)
      total += map.find(rank, key).value_or(0);
  });
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(p) * updates_per_rank);
}

TEST(DistHashMap, BufferedPathMatchesUnbuffered) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  CountMap direct(team, CountMap::Config{.global_capacity = 2048, .flush_threshold = 1});
  CountMap buffered(team, CountMap::Config{.global_capacity = 2048, .flush_threshold = 64});
  team.run([&](Rank& rank) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()) + 99);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng() % 500;
      direct.update(rank, key, 1);
      buffered.update_buffered(rank, key, 1);
    }
    buffered.flush(rank);
    rank.barrier();
    for (std::uint64_t key = 0; key < 500; ++key)
      EXPECT_EQ(direct.find(rank, key).value_or(0),
                buffered.find(rank, key).value_or(0));
  });
}

TEST(DistHashMap, AggregatingStoresReduceMessageCount) {
  const int p = 4;
  ThreadTeam team(Topology{p, 1});  // every rank its own node
  CountMap fine(team, CountMap::Config{.global_capacity = 4096, .flush_threshold = 1});
  // Key ≡ (rank+1) mod p, so every update targets a remote owner
  // (std::hash<uint64_t> is the identity in libstdc++).
  auto remote_key = [p](int rank, std::uint64_t i) {
    return i * static_cast<std::uint64_t>(p) +
           static_cast<std::uint64_t>((rank + 1) % p);
  };
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      fine.update(rank, remote_key(rank.id(), i), 1);
  });
  const auto fine_stats = team.snapshot_all();
  team.reset_stats();
  CountMap coarse(team, CountMap::Config{.global_capacity = 4096, .flush_threshold = 256});
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      coarse.update_buffered(rank, remote_key(rank.id(), i), 1);
    coarse.flush(rank);
  });
  const auto coarse_stats = team.snapshot_all();
  std::uint64_t fine_msgs = 0;
  std::uint64_t coarse_msgs = 0;
  for (int r = 0; r < p; ++r) {
    fine_msgs += fine_stats[static_cast<std::size_t>(r)].total_msgs();
    coarse_msgs += coarse_stats[static_cast<std::size_t>(r)].total_msgs();
  }
  // 256-element batches should cut message count by roughly 256x.
  EXPECT_GT(fine_msgs, coarse_msgs * 100);
}

TEST(DistHashMap, AdmitPolicySkipsUnadmittedKeys) {
  ThreadTeam team(Topology{2, 2});
  CountMap map(team, CountMap::Config{.global_capacity = 128, .flush_threshold = 4});
  // Admits exactly the pre-inserted key, and runs only on a miss.
  const std::uint64_t admitted = map.hash_of(42u);
  std::atomic<int> consulted{0};
  map.set_admission([&](std::uint32_t owner, std::uint64_t hash) {
    EXPECT_EQ(owner, map.owner_of(43u));
    consulted.fetch_add(1);
    return hash == admitted;
  });
  team.run([&](Rank& rank) {
    if (rank.id() == 0) map.update(rank, 42u, 5);
    rank.barrier();
    map.update(rank, 42u, 1, CountMap::Policy::kAdmit);
    map.update(rank, 43u, 1, CountMap::Policy::kAdmit);
    rank.barrier();
    EXPECT_EQ(map.find(rank, 42u).value_or(0), 7u);  // 5 + 1 + 1
    EXPECT_FALSE(map.find(rank, 43u).has_value());
  });
  EXPECT_EQ(consulted.load(), 2);  // the two misses on 43, never 42
}

TEST(DistHashMap, EraseLocalIf) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 8});
  team.run([&](Rank& rank) {
    if (rank.is_root())
      for (std::uint64_t i = 0; i < 200; ++i) map.update(rank, i, i);
    rank.barrier();
    map.erase_local_if(rank, [](const std::uint64_t&, const std::uint64_t& v) {
      return v % 2 == 0;
    });
    rank.barrier();
    for (std::uint64_t i = 0; i < 200; ++i)
      EXPECT_EQ(map.find(rank, i).has_value(), i % 2 == 1) << i;
  });
  EXPECT_EQ(map.size_unsafe(), 100u);
}

TEST(DistHashMap, ForEachLocalVisitsOwnShardExactly) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 4096, .flush_threshold = 8});
  std::atomic<std::uint64_t> visited{0};
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 500; ++i)
      if (static_cast<int>(i) % p == rank.id()) map.update(rank, i, 1);
    rank.barrier();
    map.for_each_local(rank, [&](const std::uint64_t& k, std::uint64_t& v) {
      EXPECT_EQ(map.owner_of(k), static_cast<std::uint32_t>(rank.id()));
      EXPECT_EQ(v, 1u);
      visited.fetch_add(1);
    });
  });
  EXPECT_EQ(visited.load(), 500u);
}

TEST(DistHashMap, ExactShardGeometryOnThreeRanks) {
  // Capacities that are not powers of two, on a rank count that is not
  // either: each shard gets exactly ceil(2 * per_shard / kInline) buckets,
  // and the multiply-shift bucket choice still finds, visits and compacts
  // every entry. 10 keys of capacity with 900 keys chains every bucket.
  const int p = 3;
  ThreadTeam team(Topology{p, 2});
  for (const std::size_t capacity : {10, 1000, 3001}) {
    SCOPED_TRACE(capacity);
    CountMap map(team, CountMap::Config{.global_capacity = capacity,
                                        .flush_threshold = 16});
    const std::size_t per_shard = (capacity + p - 1) / p;
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(map.bucket_count(r),
                (2 * per_shard + CountMap::kInline - 1) / CountMap::kInline);
    const std::uint64_t nkeys = 900;
    std::vector<std::multiset<std::uint64_t>> visited(p);
    std::vector<std::size_t> erased(p, 0);
    team.run([&](Rank& rank) {
      // Every rank adds key + 1 to every key of its stride.
      for (std::uint64_t key = static_cast<std::uint64_t>(rank.id());
           key < nkeys; key += p)
        map.update_buffered(rank, key * 7919, key + 1);
      map.flush(rank);
      rank.barrier();
      for (std::uint64_t key = 0; key < nkeys; ++key)
        EXPECT_EQ(map.find(rank, key * 7919).value_or(0), key + 1) << key;
      auto& mine = visited[static_cast<std::size_t>(rank.id())];
      map.for_each_local(rank, [&](const std::uint64_t& k, std::uint64_t&) {
        mine.insert(k);
      });
      rank.barrier();
      erased[static_cast<std::size_t>(rank.id())] = map.erase_local_if(
          rank, [](const std::uint64_t&, const std::uint64_t& v) {
            return v % 3 == 0;
          });
      rank.barrier();
      for (std::uint64_t key = 0; key < nkeys; ++key)
        EXPECT_EQ(map.find(rank, key * 7919).has_value(), (key + 1) % 3 != 0)
            << key;
    });
    std::set<std::uint64_t> all;
    for (int r = 0; r < p; ++r) {
      const auto& mine = visited[static_cast<std::size_t>(r)];
      for (const std::uint64_t k : mine) {
        EXPECT_EQ(map.owner_of(k), static_cast<std::uint32_t>(r));
        EXPECT_EQ(mine.count(k), 1u) << k;
        all.insert(k);
      }
    }
    EXPECT_EQ(all.size(), nkeys);
    EXPECT_EQ(std::accumulate(erased.begin(), erased.end(), std::size_t{0}),
              nkeys / 3);
    EXPECT_EQ(map.size_unsafe(), nkeys - nkeys / 3);
    // Compaction leaves each survivor exactly once in its owner's shard.
    team.run([&](Rank& rank) {
      std::multiset<std::uint64_t> left;
      map.for_each_local(rank, [&](const std::uint64_t& k, std::uint64_t& v) {
        EXPECT_NE(v % 3, 0u);
        left.insert(k);
      });
      EXPECT_EQ(left.size(), map.local_size(rank.id()));
      EXPECT_EQ(std::set<std::uint64_t>(left.begin(), left.end()).size(),
                left.size());
    });
  }
}

TEST(DistHashMap, CustomRankMapperControlsPlacement) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 4});
  map.set_rank_mapper([](std::uint64_t) { return 3u; });  // everything on rank 3
  team.run([&](Rank& rank) {
    map.update(rank, static_cast<std::uint64_t>(rank.id()), 1);
    rank.barrier();
    EXPECT_EQ(map.local_size(3), 4u);
    EXPECT_EQ(map.local_size(rank.id() == 3 ? 0 : rank.id()), 0u);
  });
}

TEST(DistHashMap, MatchesModelThroughChainedBuckets) {
  // Two buckets per shard for ~2000 keys: every bucket chains far past its
  // inline slots. Each phase's shard contents are checked against a
  // std::map model, and the table is destroyed still holding its chains.
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  CountMap map(team,
               CountMap::Config{.global_capacity = 16, .flush_threshold = 8});

  using Model = std::map<std::uint64_t, std::uint64_t>;
  struct Op {
    std::uint64_t key;
    std::uint64_t delta;
  };
  auto ops_for = [](int phase, int rank, std::uint64_t key_range) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(phase * 100 + rank));
    std::vector<Op> ops(500);
    for (auto& op : ops) op = {rng() % key_range, rng() % 7 + 1};
    return ops;
  };
  // Phases: 0 fine inserts, 1 buffered inserts, 2 buffered kAdmit, 3 fine
  // kAdmit, 4 fine finds (no writes), 5 erase_local_if. Ranges 2-4 are
  // twice as wide, so half their keys are absent; admission passes exactly
  // the keys phases 0-1 inserted, so absent keys stay out.
  const int phases = 6;
  auto range_of = [](int phase) -> std::uint64_t {
    return phase >= 2 ? 4000 : 2000;
  };
  auto erased = [](const std::uint64_t& v) { return v % 3 == 0; };
  std::vector<Model> expected;
  Model model;
  for (int phase = 0; phase < phases; ++phase) {
    if (phase == 5) {
      std::erase_if(model, [&](const auto& kv) { return erased(kv.second); });
    } else if (phase != 4) {
      for (int r = 0; r < p; ++r)
        for (const Op& op : ops_for(phase, r, range_of(phase)))
          if (phase < 2 || model.contains(op.key)) model[op.key] += op.delta;
    }
    expected.push_back(model);
  }
  std::set<std::uint64_t> admitted;
  for (const auto& kv : expected[1]) admitted.insert(map.hash_of(kv.first));
  map.set_admission([&](std::uint32_t, std::uint64_t hash) {
    return admitted.contains(hash);
  });

  auto check_local = [&](Rank& rank, const Model& m) {
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> want;
    map.for_each_local(rank, [&](const std::uint64_t& k, std::uint64_t& v) {
      seen.emplace(k, v);
    });
    for (const auto& [k, v] : m)
      if (map.owner_of(k) == static_cast<std::uint32_t>(rank.id()))
        want.emplace(k, v);
    EXPECT_EQ(seen, want) << "rank " << rank.id();
    EXPECT_EQ(map.local_size(rank.id()), want.size()) << "rank " << rank.id();
  };

  team.run([&](Rank& rank) {
    const int me = rank.id();
    for (int phase = 0; phase < phases; ++phase) {
      const auto ops = ops_for(phase, me, range_of(phase));
      const Model& before =
          phase == 0 ? Model{} : expected[static_cast<std::size_t>(phase - 1)];
      switch (phase) {
        case 0:
          for (const Op& op : ops) map.update(rank, op.key, op.delta);
          break;
        case 1:
          for (const Op& op : ops) map.update_buffered(rank, op.key, op.delta);
          map.flush(rank);
          break;
        case 2:
          for (const Op& op : ops)
            map.update_buffered(rank, op.key, op.delta,
                                CountMap::Policy::kAdmit);
          map.flush(rank);
          break;
        case 3:
          for (const Op& op : ops)
            map.update(rank, op.key, op.delta, CountMap::Policy::kAdmit);
          break;
        case 4:
          for (const Op& op : ops) {
            const auto v = map.find(rank, op.key);
            const auto it = before.find(op.key);
            EXPECT_EQ(v.has_value(), it != before.end()) << op.key;
            if (v && it != before.end()) {
              EXPECT_EQ(*v, it->second) << op.key;
            }
          }
          break;
        default:
          map.erase_local_if(rank, [&](const std::uint64_t&,
                                       const std::uint64_t& v) {
            return erased(v);
          });
      }
      rank.barrier();
      check_local(rank, expected[static_cast<std::size_t>(phase)]);
      rank.barrier();
    }

    // Both read paths agree with the final model, hits and misses alike.
    const Model& final_model = expected.back();
    for (std::uint64_t key = 0; key < 4000; ++key) {
      const auto it = final_model.find(key);
      const auto v = map.find(rank, key);
      ASSERT_EQ(v.has_value(), it != final_model.end()) << key;
      if (v) {
        EXPECT_EQ(*v, it->second) << key;
      }
    }
    rank.barrier();
    std::size_t answered = 0;
    auto check = [&](const std::uint64_t& key, const std::uint64_t* value,
                     std::uint64_t) {
      ++answered;
      const auto it = final_model.find(key);
      ASSERT_EQ(value != nullptr, it != final_model.end()) << key;
      if (value != nullptr) {
        EXPECT_EQ(*value, it->second) << key;
      }
    };
    for (std::uint64_t key = 0; key < 4000; ++key)
      map.find_buffered(rank, key, key, check);
    map.process_lookups(rank, check);
    EXPECT_EQ(answered, 4000u);
  });
  EXPECT_EQ(map.size_unsafe(), expected.back().size());
}

// ---- AggregatingEngine / batched lookups / read cache ----

TEST(AggregatingEngine, FlushesAtThresholdAndDrainsRoundRobin) {
  AggregatingEngine<int> engine(4, 3);
  std::vector<std::pair<std::uint32_t, std::vector<int>>> batches;
  auto record = [&](std::uint32_t dest, std::vector<int>& ops) {
    batches.emplace_back(dest, ops);
  };
  // Two ops stay buffered; the third auto-flushes the full batch.
  engine.enqueue(0, 2, 10, record);
  engine.enqueue(0, 2, 11, record);
  EXPECT_TRUE(batches.empty());
  EXPECT_EQ(engine.pending(0), 2u);
  engine.enqueue(0, 2, 12, record);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].first, 2u);
  EXPECT_EQ(batches[0].second, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(engine.pending(0), 0u);

  // flush() drains round-robin from the initiator's successor: rank 2's
  // buffers drain in dest order 3, 0, 1.
  batches.clear();
  engine.enqueue(2, 0, 1, record);
  engine.enqueue(2, 1, 2, record);
  engine.enqueue(2, 3, 3, record);
  engine.flush(2, record);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].first, 3u);
  EXPECT_EQ(batches[1].first, 0u);
  EXPECT_EQ(batches[2].first, 1u);
  EXPECT_EQ(engine.pending(2), 0u);
  // A rank that never buffered flushes as a no-op (lazy rows).
  engine.flush(1, record);
  EXPECT_EQ(batches.size(), 3u);
}

TEST(ReadCache, DirectMappedEvictionAndCounters) {
  // 3 slots round up to 4; the slot is the caller's hash mod 4.
  ReadCache<std::uint64_t, int> cache(3);
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
  cache.insert(1, 1, 100);
  cache.insert(2, 2, 200);  // distinct slots coexist
  ASSERT_NE(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(*cache.lookup(2, 2), 200);
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(5, 5, 500);  // slot 1 again: evicts key 1
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(*cache.lookup(5, 5), 500);
  EXPECT_EQ(cache.size(), 2u);  // an overwrite occupies no new slot
  cache.insert(1, 1, 101);      // and key 1 evicts key 5 back
  EXPECT_EQ(cache.lookup(5, 5), nullptr);
  EXPECT_EQ(*cache.lookup(1, 1), 101);
  // The slot compare is on the key, not the hash: a different key with
  // the same slot hash misses.
  EXPECT_EQ(cache.lookup(9, 1), nullptr);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(ReadCache, VersionChangeDropsEverything) {
  ReadCache<std::uint64_t, int> cache(8);
  cache.check_version(1);
  cache.insert(5, 5, 50);
  cache.check_version(1);  // unchanged version: cache intact
  EXPECT_NE(cache.lookup(5, 5), nullptr);
  cache.check_version(2);  // table was written: everything goes
  EXPECT_EQ(cache.lookup(5, 5), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DistHashMap, BatchedLookupsMatchFind) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 2048, .flush_threshold = 32});
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(rank.id()) * 1000 + i;
      map.update(rank, key, key + 7);
    }
    rank.barrier();
    // Probe every key plus a stripe of absent ones; replies (in any order,
    // possibly inside find_buffered) must match the fine-grained path.
    std::vector<std::uint64_t> keys;
    for (int r = 0; r < p; ++r)
      for (std::uint64_t i = 0; i < 250; ++i)  // 200 present + 50 absent
        keys.push_back(static_cast<std::uint64_t>(r) * 1000 + i);
    // Fine-grained reference pass first, then a barrier: the comparison
    // itself must not mix fine and batched lookups in one phase (the
    // checker's mixed-access rule — calling find() from inside a batched
    // reply handler was exactly that).
    std::vector<std::optional<std::uint64_t>> expected;
    expected.reserve(keys.size());
    for (const auto& key : keys) expected.push_back(map.find(rank, key));
    rank.barrier();
    std::vector<char> answered(keys.size(), 0);
    auto check = [&](const std::uint64_t& key, const std::uint64_t* value,
                     std::uint64_t tag) {
      answered[static_cast<std::size_t>(tag)] = 1;
      const auto& exp = expected[static_cast<std::size_t>(tag)];
      ASSERT_EQ(value != nullptr, exp.has_value()) << key;
      if (value != nullptr) {
        EXPECT_EQ(*value, *exp);
      }
    };
    for (std::size_t i = 0; i < keys.size(); ++i)
      map.find_buffered(rank, keys[i], i, check);
    map.process_lookups(rank, check);
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(answered[i], 1) << keys[i];
  });
}

TEST(DistHashMap, InPlaceAndFramedHopsAgree) {
  // The same stores and batched lookups twice: over clean in-process links,
  // where every batch is applied in place, and under a seeded lossy
  // schedule, where every batch between two ranks is framed, retried,
  // deduplicated and reordered. Tables, replies and each rank's traffic
  // counters must agree.
  const int p = 4;
  using Reply = std::tuple<std::uint64_t, bool, std::uint64_t>;
  struct Outcome {
    std::vector<std::map<std::uint64_t, std::uint64_t>> shards;
    std::vector<std::vector<Reply>> replies;
    std::vector<CommStatsSnapshot> stats;
  };
  auto run = [&](const std::string& chaos_spec) {
    ThreadTeam team(Topology{p, 2});
    team.transport().set_plan(ChaosPlan::parse(77, chaos_spec));
    CountMap map(team, CountMap::Config{.global_capacity = 2048,
                                        .flush_threshold = 16});
    Outcome out;
    out.shards.resize(p);
    out.replies.resize(p);
    team.run([&](Rank& rank) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()) + 5);
      for (std::uint64_t i = 0; i < 3000; ++i)
        map.update_buffered(rank, rng() % 700, i % 7 + 1);
      map.flush(rank);
      rank.barrier();
      auto& mine = out.replies[static_cast<std::size_t>(rank.id())];
      auto record = [&](const std::uint64_t& key, const std::uint64_t* value,
                        std::uint64_t tag) {
        EXPECT_EQ(key, tag);
        mine.emplace_back(tag, value != nullptr,
                          value != nullptr ? *value : 0);
      };
      for (std::uint64_t key = 0; key < 800; ++key)
        map.find_buffered(rank, key, key, record);
      map.process_lookups(rank, record);
      std::sort(mine.begin(), mine.end());
      map.for_each_local(rank, [&](const std::uint64_t& key,
                                   std::uint64_t& value) {
        out.shards[static_cast<std::size_t>(rank.id())][key] = value;
      });
    });
    out.stats = team.snapshot_all();
    return out;
  };
  const Outcome in_place = run("");
  const Outcome framed =
      run("drop=0.1,dup=0.05,reorder=0.1,delay=0.1,corrupt=0.05");

  EXPECT_EQ(framed.shards, in_place.shards);
  EXPECT_EQ(framed.replies, in_place.replies);
  std::uint64_t faults = 0;
  for (int r = 0; r < p; ++r) {
    const auto& a = in_place.stats[static_cast<std::size_t>(r)];
    const auto& b = framed.stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(b.local_accesses, a.local_accesses) << "rank " << r;
    EXPECT_EQ(b.onnode_msgs, a.onnode_msgs) << "rank " << r;
    EXPECT_EQ(b.offnode_msgs, a.offnode_msgs) << "rank " << r;
    EXPECT_EQ(b.onnode_bytes, a.onnode_bytes) << "rank " << r;
    EXPECT_EQ(b.offnode_bytes, a.offnode_bytes) << "rank " << r;
    EXPECT_EQ(b.recv_ops, a.recv_ops) << "rank " << r;
    EXPECT_EQ(a.transport_retries + a.transport_dups + a.transport_reorders +
                  a.transport_corrupts,
              0u);
    faults += b.transport_retries + b.transport_dups + b.transport_reorders;
  }
  EXPECT_GT(faults, 0u);  // the lossy run really framed its batches
  std::size_t entries = 0;
  for (const auto& shard : in_place.shards) entries += shard.size();
  EXPECT_EQ(entries, 700u);
}

TEST(DistHashMap, DrainInvariantAfterFlushAndProcessLookups) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 1000});
  std::atomic<std::uint64_t> replies{0};
  team.run([&](Rank& rank) {
    // Far below the threshold: everything stays buffered until the
    // explicit drain, and nothing is left behind afterwards.
    for (std::uint64_t i = 0; i < 10; ++i)
      map.update_buffered(rank, i * 131, i);
    EXPECT_GT(map.pending_store_ops(rank.id()), 0u);
    map.flush(rank);
    EXPECT_EQ(map.pending_store_ops(rank.id()), 0u);
    rank.barrier();

    auto count = [&](const std::uint64_t&, const std::uint64_t*,
                     std::uint64_t) { replies.fetch_add(1); };
    for (std::uint64_t i = 0; i < 10; ++i)
      map.find_buffered(rank, i * 131, i, count);
    map.process_lookups(rank, count);
    EXPECT_EQ(map.pending_lookups(rank.id()), 0u);
  });
  // Every queued lookup produced exactly one reply.
  EXPECT_EQ(replies.load(), static_cast<std::uint64_t>(p) * 10u);
}

TEST(DistHashMap, ReadCacheNeverServesStaleValues) {
  // A value cached during one read phase must not survive a write phase:
  // the table's write version moves and the cache self-invalidates.
  ThreadTeam team(Topology{2, 1});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 8});
  map.set_rank_mapper([](std::uint64_t) { return 1u; });  // all keys on rank 1
  team.run([&](Rank& rank) {
    if (rank.id() == 1) map.update(rank, 7u, 100);
    rank.barrier();
    if (rank.id() == 0) {
      map.enable_read_cache(rank, 16);
      std::uint64_t seen = 0;
      auto capture = [&](const std::uint64_t&, const std::uint64_t* v,
                         std::uint64_t) { seen = v ? *v : 0; };
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(seen, 100u);
      // Cached now: a repeat lookup is a hit.
      EXPECT_EQ(rank.stats().snapshot().read_cache_hits, 0u);
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(rank.stats().snapshot().read_cache_hits, 1u);
    }
    rank.barrier();
    if (rank.id() == 1) map.update(rank, 7u, 999);  // write phase
    rank.barrier();
    if (rank.id() == 0) {
      // Deliberate contract violation: the cache is left enabled across the
      // write phase above, precisely to prove the version bump makes it
      // self-invalidate (the safety net under the stale-cache-across-write
      // rule). RelaxedPhase documents the intent and keeps the checker from
      // aborting the probe.
      pgas::RelaxedPhase relaxed(rank, map);
      std::uint64_t seen = 0;
      auto capture = [&](const std::uint64_t&, const std::uint64_t* v,
                         std::uint64_t) { seen = v ? *v : 0; };
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(seen, 999u) << "cache served a value across a write phase";
      EXPECT_EQ(rank.stats().snapshot().read_cache_hits, 1u);
      map.disable_read_cache(rank);
    }
  });
}

TEST(DistHashMap, CachedBatchedLookupsCutOffnodeMessages) {
  // Re-probing the same remote key set: fine-grained pays one off-node
  // message per probe; batching pays one per batch; the cache answers
  // repeats locally.
  const int p = 4;
  ThreadTeam team(Topology{p, 1});  // every rank its own node
  Map map(team, Map::Config{.global_capacity = 4096, .flush_threshold = 64});
  // The direct-mapped cache answers every repeat only for a working set
  // with no two keys in one slot (slot = fmix64 of the key hash; the
  // ReadCache tests cover conflicting keys), so each rank probes the first
  // 100 keys owned by its right neighbour that land in distinct slots.
  constexpr std::size_t kCacheSlots = 4096;
  std::vector<std::vector<std::uint64_t>> keys(p);
  for (int r = 0; r < p; ++r) {
    std::set<std::uint64_t> slots;
    for (std::uint64_t i = 0; keys[static_cast<std::size_t>(r)].size() < 100;
         ++i) {
      const std::uint64_t key = i * static_cast<std::uint64_t>(p) +
                                static_cast<std::uint64_t>((r + 1) % p);
      const std::uint64_t slot =
          util::fmix64(std::hash<std::uint64_t>{}(key)) & (kCacheSlots - 1);
      if (slots.insert(slot).second)
        keys[static_cast<std::size_t>(r)].push_back(key);
    }
  }
  auto probes = [&](const Rank& rank) -> const std::vector<std::uint64_t>& {
    return keys[static_cast<std::size_t>(rank.id())];
  };
  team.run([&](Rank& rank) {
    for (const auto key : keys[static_cast<std::size_t>((rank.id() + p - 1) % p)])
      map.update(rank, key, 1);
  });
  team.reset_stats();
  const int rounds = 20;
  auto sink = [](const std::uint64_t&, const std::uint64_t*, std::uint64_t) {};
  team.run([&](Rank& rank) {
    for (int round = 0; round < rounds; ++round)
      for (const auto key : probes(rank)) (void)map.find(rank, key);
  });
  const auto fine = team.snapshot_all();
  team.reset_stats();
  team.run([&](Rank& rank) {
    map.enable_read_cache(rank, kCacheSlots);
    for (int round = 0; round < rounds; ++round) {
      for (const auto key : probes(rank)) map.find_buffered(rank, key, 0, sink);
      map.process_lookups(rank, sink);  // round 1's replies fill the cache
    }
    map.disable_read_cache(rank);
  });
  const auto cached = team.snapshot_all();
  std::uint64_t fine_msgs = 0;
  std::uint64_t cached_msgs = 0;
  std::uint64_t cache_hits = 0;
  for (int r = 0; r < p; ++r) {
    fine_msgs += fine[static_cast<std::size_t>(r)].offnode_msgs;
    cached_msgs += cached[static_cast<std::size_t>(r)].offnode_msgs;
    cache_hits += cached[static_cast<std::size_t>(r)].read_cache_hits;
  }
  EXPECT_EQ(fine_msgs, static_cast<std::uint64_t>(p) * rounds * 100);
  // Round 1 misses fill the cache (100 keys / 64-batches = 2 messages per
  // rank); rounds 2..20 are all hits.
  EXPECT_EQ(cached_msgs, static_cast<std::uint64_t>(p) * 2);
  EXPECT_EQ(cache_hits, static_cast<std::uint64_t>(p) * (rounds - 1) * 100);
}

TEST(DistHashMap, FindMissChargesKeyOnlyBytes) {
  // Satellite of the charging model: a miss ships only the key-sized
  // request; a hit additionally ships the value back.
  ThreadTeam team(Topology{2, 1});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 8});
  map.set_rank_mapper([](std::uint64_t) { return 1u; });
  team.run([&](Rank& rank) {
    if (rank.id() == 1) map.update(rank, 1u, 5);
  });
  team.reset_stats();
  team.run([&](Rank& rank) {
    if (rank.id() == 0) {
      EXPECT_TRUE(map.find(rank, 1u).has_value());   // hit
      EXPECT_FALSE(map.find(rank, 2u).has_value());  // miss
    }
  });
  const auto stats = team.snapshot_all();
  EXPECT_EQ(stats[0].offnode_bytes,
            2 * sizeof(std::uint64_t)      // two key-sized requests
                + sizeof(std::uint64_t));  // one value-sized reply (the hit)
  EXPECT_EQ(stats[0].offnode_msgs, 2u);
}

TEST(CommStats, LocalityClassification) {
  // 2 nodes of 2 ranks. Rank 0 sends to rank 1 (on-node) and rank 2
  // (off-node) via a rank mapper that pins keys to specific owners.
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 1});
  map.set_rank_mapper([](std::uint64_t h) { return static_cast<std::uint32_t>(h % 4); });
  team.run([&](Rank& rank) {
    if (rank.id() == 0) {
      // std::hash<uint64_t> is identity for libstdc++, so key == owner here.
      map.update(rank, 0u, 1);  // local
      map.update(rank, 1u, 1);  // on-node
      map.update(rank, 2u, 1);  // off-node
      map.update(rank, 3u, 1);  // off-node
    }
  });
  const auto stats = team.snapshot_all();
  EXPECT_EQ(stats[0].local_accesses, 1u);
  EXPECT_EQ(stats[0].onnode_msgs, 1u);
  EXPECT_EQ(stats[0].offnode_msgs, 2u);
  EXPECT_EQ(stats[1].recv_ops, 1u);
  EXPECT_EQ(stats[2].recv_ops, 1u);
  EXPECT_EQ(stats[3].recv_ops, 1u);
}

TEST(MachineModel, OffNodeDominatesAndLoadImbalanceShows) {
  MachineModel model;
  CommStatsSnapshot local_heavy;
  local_heavy.local_accesses = 1000;
  CommStatsSnapshot off_heavy;
  off_heavy.offnode_msgs = 1000;
  EXPECT_GT(model.rank_seconds(off_heavy), 10 * model.rank_seconds(local_heavy));

  // Phase time is the max over ranks: one hot rank dominates.
  CommStatsSnapshot idle;
  CommStatsSnapshot hot;
  hot.recv_ops = 1'000'000;
  const Topology topo{4, 2};
  const double balanced =
      model.phase_seconds({idle, idle, idle, idle}, topo);
  const double imbalanced = model.phase_seconds({idle, idle, idle, hot}, topo);
  EXPECT_GT(imbalanced, balanced + 0.05);
}

TEST(MachineModel, IoSaturates) {
  MachineModel model;
  const std::uint64_t bytes = 100ull << 30;
  const double t1 = model.io_seconds(bytes, 1);
  const double t8 = model.io_seconds(bytes, 8);
  EXPECT_NEAR(t1 / t8, 8.0, 0.01);  // scales below saturation
  const double t100 = model.io_seconds(bytes, 100);
  const double t200 = model.io_seconds(bytes, 200);
  EXPECT_NEAR(t100, t200, 1e-9);  // flat beyond the saturation point
}

TEST(CommStats, SnapshotArithmetic) {
  CommStats stats;
  stats.add_work(10);
  stats.add_offnode_msg(100);
  const auto before = stats.snapshot();
  stats.add_work(5);
  stats.add_onnode_msg(50);
  const auto delta = stats.snapshot() - before;
  EXPECT_EQ(delta.work_units, 5u);
  EXPECT_EQ(delta.onnode_msgs, 1u);
  EXPECT_EQ(delta.offnode_msgs, 0u);
  EXPECT_EQ(delta.onnode_bytes, 50u);
}

}  // namespace
}  // namespace hipmer::pgas
