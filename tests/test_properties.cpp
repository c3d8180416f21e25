// Cross-cutting property and failure-injection tests.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <unordered_map>

#include "io/fastq.hpp"
#include "io/parallel_fastq.hpp"
#include "kcount/bloom_filter.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/thread_team.hpp"
#include "sim/genome_sim.hpp"

namespace hipmer {
namespace {

namespace fs = std::filesystem;

// ---- conservation: every message sent is received by exactly one owner ----

TEST(Conservation, SentOpsEqualReceivedOps) {
  struct SumMerge {
    void operator()(std::uint64_t& a, const std::uint64_t& b) const { a += b; }
  };
  using Map = pgas::DistHashMap<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>, SumMerge>;
  const int p = 6;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 1 << 14, .flush_threshold = 32});
  team.run([&](pgas::Rank& rank) {
    // Deliberately interleaves the fine and buffered store paths (the
    // checker's mixed-access rule) — the property under test is message
    // *accounting*, which must hold regardless of phase discipline, and
    // SumMerge makes the interleaving semantically safe.
    pgas::RelaxedPhase relaxed(rank, map);
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()) * 77 + 1);
    for (int i = 0; i < 5000; ++i) {
      if (i % 3 == 0) {
        map.update(rank, rng() % 4096, 1);
      } else {
        map.update_buffered(rank, rng() % 4096, 1);
      }
    }
    map.flush(rank);
  });
  const auto stats = team.snapshot_all();
  std::uint64_t sent_remote_ops = 0;
  std::uint64_t local_ops = 0;
  std::uint64_t received = 0;
  for (const auto& s : stats) {
    local_ops += s.local_accesses;
    received += s.recv_ops;
  }
  // Each update is either a local access on the initiator or a received op
  // at the owner; totals must account for every one of the 6*5000 updates.
  sent_remote_ops = 6 * 5000 - local_ops;
  EXPECT_EQ(received, sent_remote_ops);
}

// ---- DistHashMap randomized differential test vs std::unordered_map ----

class MapDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MapDifferential, MatchesReferenceUnderRandomOps) {
  struct SumMerge {
    void operator()(std::int64_t& a, const std::int64_t& b) const { a += b; }
  };
  using Map = pgas::DistHashMap<std::uint64_t, std::int64_t,
                                std::hash<std::uint64_t>, SumMerge>;
  const int p = GetParam();
  pgas::ThreadTeam team(pgas::Topology{p, 3});
  // Deliberately undersized so overflow chains are exercised.
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 16});

  // Reference totals per key (deterministic: each rank updates a disjoint
  // key stripe so the interleaving does not matter... then all ranks hammer
  // shared keys with commutative deltas).
  std::map<std::uint64_t, std::int64_t> reference;
  for (int r = 0; r < p; ++r) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 31);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng() % 1500;
      const auto delta = static_cast<std::int64_t>(rng() % 9) - 4;
      reference[key] += delta;
    }
  }
  team.run([&](pgas::Rank& rank) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()) + 31);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng() % 1500;
      const auto delta = static_cast<std::int64_t>(rng() % 9) - 4;
      map.update_buffered(rank, key, delta);
    }
    map.flush(rank);
    rank.barrier();
    // Every rank verifies a slice of the keyspace.
    for (std::uint64_t key = static_cast<std::uint64_t>(rank.id()); key < 1500;
         key += static_cast<std::uint64_t>(p)) {
      auto it = reference.find(key);
      const auto got = map.find(rank, key);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(*got, it->second) << key;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, MapDifferential, ::testing::Values(1, 2, 5, 9));

// ---- Bloom filter FPR across parameterizations ----

class BloomParam
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(BloomParam, FalsePositiveRateWithinBound) {
  const auto [bits_per_key, probes, max_fpr] = GetParam();
  kcount::BloomFilter bloom(50'000, bits_per_key, probes);
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 50'000; ++i) bloom.test_and_set(rng());
  int fp = 0;
  for (int i = 0; i < 50'000; ++i) fp += bloom.test(rng());
  EXPECT_LT(static_cast<double>(fp) / 50'000.0, max_fpr)
      << bits_per_key << " bits/key, " << probes << " probes";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BloomParam,
    ::testing::Values(std::make_tuple(4, 3, 0.20), std::make_tuple(8, 4, 0.05),
                      std::make_tuple(12, 5, 0.02),
                      std::make_tuple(16, 6, 0.01)));

// ---- machine model sanity properties ----

TEST(MachineModelProps, MoreCommNeverFaster) {
  pgas::MachineModel model;
  pgas::CommStatsSnapshot a;
  a.work_units = 1000;
  pgas::CommStatsSnapshot b = a;
  b.offnode_msgs = 500;
  EXPECT_GT(model.rank_seconds(b), model.rank_seconds(a));
  b.onnode_msgs = 500;
  const auto c = b;
  pgas::CommStatsSnapshot d = c;
  d.offnode_bytes = 1 << 20;
  EXPECT_GT(model.rank_seconds(d), model.rank_seconds(c));
}

TEST(MachineModelProps, OffNodeCostsMoreThanOnNode) {
  pgas::MachineModel model;
  pgas::CommStatsSnapshot on;
  on.onnode_msgs = 1000;
  pgas::CommStatsSnapshot off;
  off.offnode_msgs = 1000;
  EXPECT_GT(model.rank_seconds(off), 2 * model.rank_seconds(on));
}

TEST(MachineModelProps, SerialIoDoesNotScale) {
  pgas::MachineModel model;
  // 1 GB all on one node vs spread over 8 nodes.
  std::vector<std::uint64_t> serial{1u << 30, 0, 0, 0, 0, 0, 0, 0};
  std::vector<std::uint64_t> spread(8, (1u << 30) / 8);
  EXPECT_GT(model.io_seconds_distributed(serial),
            4 * model.io_seconds_distributed(spread));
}

// ---- failure injection: corrupt FASTQ ----

class CorruptFastq : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hipmer_corrupt_" + std::to_string(std::random_device{}()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string write(const std::string& name, const std::string& content) {
    const auto path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }
  fs::path dir_;
};

TEST_F(CorruptFastq, SerialParserRejectsTruncation) {
  const auto path = write("t.fastq", "@r1\nACGT\n+\nIIII\n@r2\nACGT\n");
  EXPECT_THROW(io::read_fastq(path), std::runtime_error);
}

TEST_F(CorruptFastq, ParallelReaderRejectsLengthMismatch) {
  std::string content;
  for (int i = 0; i < 50; ++i)
    content += "@r" + std::to_string(i) + "\nACGTACGT\n+\nIIIIIIII\n";
  content += "@bad\nACGTACGT\n+\nIII\n";  // qual/seq length mismatch
  const auto path = write("bad.fastq", content);
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  io::ParallelFastqReader reader(path);
  EXPECT_THROW(
      team.run([&](pgas::Rank& rank) {
        seq::ReadStore mine;
        reader.read_my_records(rank, mine);
      }),
      std::runtime_error);
}

TEST_F(CorruptFastq, EmptyFileYieldsNoRecords) {
  const auto path = write("empty.fastq", "");
  pgas::ThreadTeam team(pgas::Topology{3, 2});
  std::atomic<std::size_t> total{0};
  io::ParallelFastqReader reader(path);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    reader.read_my_records(rank, mine);
    total += mine.size();
  });
  EXPECT_EQ(total.load(), 0u);
}

// ---- genome simulator: hyper repeats create the advertised skew ----

TEST(GenomeSimProps, HyperRepeatCreatesFewUltraFrequentKmers) {
  sim::GenomeConfig gc;
  gc.length = 200'000;
  gc.repeat_fraction = 0.2;
  gc.repeat_families = 6;
  gc.repeat_unit_length = 300;
  gc.hyper_repeat_fraction = 0.08;
  gc.hyper_repeat_unit_length = 8;
  gc.seed = 8811;
  const auto genome = sim::simulate_genome(gc);
  std::unordered_map<std::string, int> counts;
  for (std::size_t i = 0; i + 21 <= genome.primary.size(); ++i)
    ++counts[genome.primary.substr(i, 21)];
  int ultra = 0;  // k-mers appearing >1000 times in the genome itself
  for (const auto& [k, c] : counts) ultra += c > 1000;
  EXPECT_GT(ultra, 0);
  EXPECT_LT(ultra, 64) << "hyper repeats must concentrate on few k-mers";
}

}  // namespace
}  // namespace hipmer
