#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <set>
#include <unordered_map>

#include "kcount/bloom_filter.hpp"
#include "kcount/histogram.hpp"
#include "kcount/hyperloglog.hpp"
#include "kcount/kmer_analysis.hpp"
#include "kcount/misra_gries.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/datasets.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/hash.hpp"

namespace hipmer::kcount {
namespace {

using seq::KmerT;

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(10000);
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> keys(5000);
  for (auto& k : keys) k = rng();
  for (auto k : keys) bloom.test_and_set(util::mix64(k));
  for (auto k : keys) EXPECT_TRUE(bloom.test(util::mix64(k)));
}

TEST(BloomFilter, FalsePositiveRateBounded) {
  BloomFilter bloom(20000, 8, 4);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 20000; ++i) bloom.test_and_set(rng());
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) fp += bloom.test(rng());
  // Theoretical ~2.5% at 8 bits/key with 4 probes; allow slack.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomFilter, NoFalseNegativesAndFprAtMost3PercentAt500kKeys) {
  // Paper sizing (8 bits/key, 4 probes) at a realistic per-rank load. Keys
  // share a residue mod 4, as the hashes one owner rank sees do.
  const std::size_t n = 500'000;
  BloomFilter bloom(n, 8, 4);
  std::mt19937_64 rng(3);
  auto owner_hash = [&] { return (rng() & ~std::uint64_t{3}) | 1; };
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = owner_hash();
  for (auto k : keys) bloom.test_and_set(k);
  std::size_t missing = 0;
  for (auto k : keys) missing += bloom.test(k) ? 0 : 1;
  EXPECT_EQ(missing, 0u);
  std::size_t fp = 0;
  for (std::size_t i = 0; i < n; ++i) fp += bloom.test(owner_hash()) ? 1 : 0;
  EXPECT_LE(static_cast<double>(fp) / static_cast<double>(n), 0.03);
}

TEST(BloomFilter, TestAndSetReportsPriorState) {
  BloomFilter bloom(1000);
  EXPECT_FALSE(bloom.test_and_set(12345));
  EXPECT_TRUE(bloom.test_and_set(12345));
  EXPECT_TRUE(bloom.test(12345));
}

TEST(HyperLogLog, EstimatesWithinAdvertisedError) {
  for (const std::uint64_t truth : {100ull, 10'000ull, 1'000'000ull}) {
    HyperLogLog hll(12);
    std::mt19937_64 rng(truth);
    for (std::uint64_t i = 0; i < truth; ++i) hll.add_hash(rng());
    const double est = hll.estimate();
    EXPECT_NEAR(est, static_cast<double>(truth),
                static_cast<double>(truth) * 0.08)
        << "truth=" << truth;
  }
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> keys(1000);
  for (auto& k : keys) k = rng();
  for (int round = 0; round < 50; ++round)
    for (auto k : keys) hll.add_hash(k);
  EXPECT_NEAR(hll.estimate(), 1000.0, 100.0);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(12);
  HyperLogLog b(12);
  HyperLogLog u(12);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto h = rng();
    a.add_hash(h);
    u.add_hash(h);
  }
  for (int i = 0; i < 5000; ++i) {
    const auto h = rng();
    b.add_hash(h);
    u.add_hash(h);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), u.estimate());
}

TEST(MisraGries, GuaranteesLowerBoundAndCoverage) {
  // Stream: heavy items i=0..9 appear 1000 times each; 20000 singletons.
  const std::size_t theta = 64;
  MisraGries<std::uint64_t> mg(theta);
  std::mt19937_64 rng(9);
  std::vector<std::uint64_t> stream;
  for (std::uint64_t h = 0; h < 10; ++h)
    for (int i = 0; i < 1000; ++i) stream.push_back(h);
  for (int i = 0; i < 20000; ++i) stream.push_back(1000 + rng() % 1000000);
  std::shuffle(stream.begin(), stream.end(), rng);

  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (auto x : stream) ++truth[x];
  for (auto x : stream) mg.offer(x);

  EXPECT_EQ(mg.stream_length(), stream.size());
  const std::uint64_t n_over_theta = stream.size() / theta;
  for (std::uint64_t h = 0; h < 10; ++h) {
    const auto reported = mg.count(h);
    EXPECT_LE(reported, truth[h]) << "f'(x) <= f(x) violated for " << h;
    EXPECT_GE(reported + n_over_theta + 1, truth[h])
        << "f(x) - n/theta <= f'(x) violated for " << h;
    EXPECT_GT(reported, 0u) << "heavy item lost: " << h;
  }
  EXPECT_LE(mg.size(), theta);
}

TEST(MisraGries, MergePreservesHeavyItems) {
  const std::size_t theta = 32;
  MisraGries<std::uint64_t> a(theta);
  MisraGries<std::uint64_t> b(theta);
  std::mt19937_64 rng(11);
  // Item 7 is heavy in both halves.
  for (int i = 0; i < 2000; ++i) {
    a.offer(7);
    b.offer(7);
    a.offer(rng() % 100000 + 10);
    b.offer(rng() % 100000 + 10);
  }
  const auto truth_each = 2000u;
  a.merge(b);
  EXPECT_LE(a.count(7), 2 * truth_each);
  EXPECT_GE(a.count(7) + a.stream_length() / theta + 1, 2 * truth_each);
  EXPECT_LE(a.size(), theta);
}

TEST(MisraGries, WeightedOffersCountFullStream) {
  // Weights 1-5 drive the decrement-by-minimum branch; the stream length
  // must still be the full weight and the bounds must hold for every item.
  const std::size_t theta = 32;
  MisraGries<std::uint64_t> mg(theta);
  std::mt19937_64 rng(13);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  std::uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = (rng() & 1) == 0 ? rng() % 4 : rng() % 5000 + 4;
    const std::uint64_t w = rng() % 5 + 1;
    mg.offer(x, w);
    truth[x] += w;
    total += w;
  }
  EXPECT_EQ(mg.stream_length(), total);
  const std::uint64_t n_over_theta = total / theta;
  for (const auto& [x, f] : truth) {
    const auto reported = mg.count(x);
    EXPECT_LE(reported, f) << "f'(x) <= f(x) violated for " << x;
    EXPECT_GE(reported + n_over_theta, f)
        << "f(x) - n/theta <= f'(x) violated for " << x;
  }
  for (std::uint64_t h = 0; h < 4; ++h) EXPECT_GT(mg.count(h), 0u) << h;
  EXPECT_LE(mg.size(), theta);
}

TEST(MisraGries, GuaranteeThresholdTracksStream) {
  MisraGries<int> mg(10);
  for (int i = 0; i < 1000; ++i) mg.offer(i % 50);
  EXPECT_EQ(mg.guarantee_threshold(), 1000u / 11 + 1);
}

/// Textbook Misra–Gries over a std::map: the same decrement-by-minimum
/// offer and (θ+1)-largest merge, with none of the flat table's layout.
template <typename K>
class MapMisraGries {
 public:
  explicit MapMisraGries(std::size_t theta) : theta_(theta) {}

  void offer(const K& key, std::uint64_t w) {
    n_ += w;
    if (auto it = counters_.find(key); it != counters_.end()) {
      it->second += w;
      return;
    }
    while (counters_.size() >= theta_) {
      std::uint64_t dec = w;
      for (const auto& [k, c] : counters_) dec = std::min(dec, c);
      decrement_all(dec);
      w -= dec;
      if (w == 0) return;
    }
    counters_.emplace(key, w);
  }

  void merge(const MapMisraGries& other) {
    n_ += other.n_;
    for (const auto& [k, c] : other.counters_) counters_[k] += c;
    if (counters_.size() <= theta_) return;
    std::vector<std::uint64_t> counts;
    for (const auto& [k, c] : counters_) counts.push_back(c);
    std::sort(counts.begin(), counts.end(), std::greater<std::uint64_t>());
    decrement_all(counts[theta_]);
  }

  [[nodiscard]] const std::map<K, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] std::uint64_t stream_length() const { return n_; }

 private:
  void decrement_all(std::uint64_t dec) {
    std::erase_if(counters_, [dec](const auto& kv) { return kv.second <= dec; });
    for (auto& [k, c] : counters_) c -= dec;
  }

  std::size_t theta_;
  std::uint64_t n_ = 0;
  std::map<K, std::uint64_t> counters_;
};

template <typename K, typename Hash>
void expect_matches_reference(const MisraGries<K, Hash>& flat,
                              const MapMisraGries<K>& ref,
                              const std::string& what) {
  const auto items = flat.items();
  const std::map<K, std::uint64_t> got(items.begin(), items.end());
  EXPECT_EQ(items.size(), got.size()) << what << ": duplicate keys";
  EXPECT_EQ(flat.size(), got.size()) << what;
  EXPECT_TRUE(got == ref.counters()) << what << ": " << got.size()
                                     << " items vs " << ref.counters().size();
  EXPECT_EQ(flat.stream_length(), ref.stream_length()) << what;
}

TEST(MisraGries, MatchesReferenceOnWeightedStreams) {
  enum class Shape { kSkewed, kAllDistinct, kAllEqual };
  for (const std::size_t theta : {1, 7, 64, 1024}) {
    for (const Shape shape :
         {Shape::kSkewed, Shape::kAllDistinct, Shape::kAllEqual}) {
      std::mt19937_64 rng(theta * 31 + static_cast<std::uint64_t>(shape));
      std::uint64_t next_distinct = 0;
      // Skewed: half the offers go to five hot keys with frequencies 1/2,
      // 1/4, ..., 1/16, 1/16 of them, and the two halves have different hot
      // keys. The merged summary then holds more than θ distinct large
      // counts at small θ, so shrinking by the θ-th instead of the
      // (θ+1)-largest count would show.
      auto draw = [&](bool second) -> std::uint64_t {
        switch (shape) {
          case Shape::kSkewed:
            return (rng() & 1) == 0
                       ? static_cast<std::uint64_t>(std::countr_zero(rng() | 16)) +
                             (second ? 8 : 0)
                       : rng() % 20000 + 16;
          case Shape::kAllDistinct:
            return next_distinct++;
          case Shape::kAllEqual:
            return 42;
        }
        return 0;
      };
      MisraGries<std::uint64_t> a(theta);
      MisraGries<std::uint64_t> b(theta);
      MapMisraGries<std::uint64_t> ra(theta);
      MapMisraGries<std::uint64_t> rb(theta);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t x = draw(i % 2 == 1);
        const std::uint64_t w = rng() % 5 + 1;
        if (i % 2 == 0) {
          a.offer(x, w);
          ra.offer(x, w);
        } else {
          b.offer(x, w);
          rb.offer(x, w);
        }
      }
      const std::string what = "theta=" + std::to_string(theta) +
                               " shape=" +
                               std::to_string(static_cast<int>(shape));
      expect_matches_reference(a, ra, what + " a");
      expect_matches_reference(b, rb, what + " b");
      a.merge(b);
      ra.merge(rb);
      expect_matches_reference(a, ra, what + " merged");
    }
  }
}

TEST(MisraGries, MatchesReferenceOnSimulatedKmerStreams) {
  // Canonical 31-mer streams of a human-like (mostly unique) and a
  // wheat-like (repeat-heavy) read set, offered with the precomputed hash
  // as the sketch pass does; even and odd reads feed two sketches that
  // then merge.
  const int k = 31;
  for (const auto& ds : {sim::make_human_like(30'000, 501, 15.0),
                         sim::make_wheat_like(30'000, 502, 15.0)}) {
    for (const std::size_t theta : {256, 4096}) {
      using Flat = MisraGries<KmerT, seq::KmerHashT>;
      Flat a(theta);
      Flat b(theta);
      MapMisraGries<KmerT> ra(theta);
      MapMisraGries<KmerT> rb(theta);
      std::size_t read_index = 0;
      for (const auto& lib : ds.reads) {
        for (const auto& read : lib) {
          const bool even = read_index++ % 2 == 0;
          for (seq::KmerScanner<KmerT::kMaxK> it(read.seq, k); !it.done();
               it.next()) {
            const KmerT& canon = it.canonical();
            (even ? a : b).offer(canon, canon.hash(), 1);
            (even ? ra : rb).offer(canon, 1);
          }
        }
      }
      const std::string what = ds.name + " theta=" + std::to_string(theta);
      // Far more distinct k-mers than θ, so both sides decrement often.
      EXPECT_GT(a.stream_length(), 10 * theta) << what;
      expect_matches_reference(a, ra, what + " even");
      expect_matches_reference(b, rb, what + " odd");
      a.merge(b);
      ra.merge(rb);
      expect_matches_reference(a, ra, what + " merged");
    }
  }
}

// ---- end-to-end k-mer analysis ----

struct AnalysisResult {
  std::map<std::string, KmerSummary> ufx;
  double cardinality = 0;
  std::uint64_t distinct = 0;
  double singleton_fraction = 0;
  std::size_t heavy_count = 0;
  std::vector<std::uint64_t> histogram;
  std::uint32_t min_count = 0;
};

AnalysisResult run_analysis(const std::vector<seq::Read>& all_reads,
                            const KmerAnalysisConfig& cfg, int nranks) {
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  KmerAnalysis ka(team, cfg);
  team.run([&](pgas::Rank& rank) {
    // Round-robin read distribution.
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id());
         i < all_reads.size(); i += static_cast<std::size_t>(rank.nranks()))
      mine.append(all_reads[i]);
    ka.run(rank, {mine});
  });
  AnalysisResult result;
  for (int r = 0; r < nranks; ++r)
    for (const auto& [km, summary] : ka.ufx(r))
      result.ufx[km.to_string()] = summary;
  result.cardinality = ka.estimated_cardinality();
  result.distinct = ka.distinct_kmers();
  result.singleton_fraction = ka.singleton_fraction();
  result.heavy_count = ka.heavy_hitters().size();
  result.histogram = ka.histogram();
  result.min_count = ka.min_count();
  return result;
}

/// Brute-force reference: canonical k-mer counts + HQ extensions.
std::map<std::string, KmerTally> reference_tallies(
    const std::vector<seq::Read>& reads, int k, int qual_threshold) {
  std::map<std::string, KmerTally> ref;
  for (const auto& read : reads) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= read.seq.size(); ++i) {
      const auto sub = read.seq.substr(i, static_cast<std::size_t>(k));
      auto km = KmerT::from_string(sub);
      const auto canon = km.canonical();
      const bool flipped = canon != km;
      auto& tally = ref[canon.to_string()];
      tally.add_count(1);
      const std::size_t ri = i + static_cast<std::size_t>(k);
      if (i > 0 && seq::phred(read.quals[i - 1]) >= qual_threshold) {
        const auto code = seq::base_to_code(read.seq[i - 1]);
        if (!flipped) tally.add_left(code);
        else tally.add_right(seq::complement_code(code));
      }
      if (ri < read.seq.size() && seq::phred(read.quals[ri]) >= qual_threshold) {
        const auto code = seq::base_to_code(read.seq[ri]);
        if (!flipped) tally.add_right(code);
        else tally.add_left(seq::complement_code(code));
      }
    }
  }
  return ref;
}

class KmerAnalysisParam : public ::testing::TestWithParam<int> {};

TEST_P(KmerAnalysisParam, MatchesBruteForceOnCleanReads) {
  const int nranks = GetParam();
  sim::GenomeConfig gc;
  gc.length = 20000;
  gc.seed = 17;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 80;
  lc.coverage = 12.0;
  lc.error_rate = 0.0;
  lc.seed = 18;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig cfg;
  cfg.k = 21;
  cfg.min_count = 2;
  const auto result = run_analysis(reads, cfg, nranks);
  const auto ref = reference_tallies(reads, cfg.k, cfg.qual_threshold);

  // Every reference k-mer with count >= 2 must appear with the exact count
  // and the same resolved extensions.
  std::size_t checked = 0;
  for (const auto& [km, tally] : ref) {
    if (tally.count < 2) {
      EXPECT_EQ(result.ufx.count(km), 0u) << km;
      continue;
    }
    auto it = result.ufx.find(km);
    ASSERT_NE(it, result.ufx.end()) << km;
    EXPECT_EQ(it->second.depth, tally.count) << km;
    const auto expect = summarize(tally, cfg.min_ext_count);
    EXPECT_EQ(it->second.left_ext, expect.left_ext) << km;
    EXPECT_EQ(it->second.right_ext, expect.right_ext) << km;
    ++checked;
  }
  EXPECT_GT(checked, 15000u);
  // And nothing extra.
  for (const auto& [km, summary] : result.ufx) {
    auto it = ref.find(km);
    ASSERT_NE(it, ref.end()) << km;
    EXPECT_GE(it->second.count, 2u) << km;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, KmerAnalysisParam, ::testing::Values(1, 2, 4, 8));

TEST(KmerAnalysis, HeavyHitterPathMatchesDefaultPath) {
  // Repetitive genome -> real heavy hitters; both paths must agree exactly.
  sim::GenomeConfig gc;
  gc.length = 60000;
  gc.repeat_fraction = 0.5;
  gc.repeat_families = 3;
  gc.repeat_unit_length = 300;
  gc.seed = 19;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.001;
  lc.seed = 20;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig with_hh;
  with_hh.k = 21;
  with_hh.use_heavy_hitters = true;
  with_hh.mg_capacity = 4096;
  KmerAnalysisConfig without_hh = with_hh;
  without_hh.use_heavy_hitters = false;

  const auto a = run_analysis(reads, with_hh, 4);
  const auto b = run_analysis(reads, without_hh, 4);

  EXPECT_GT(a.heavy_count, 0u) << "repetitive genome must yield heavy hitters";
  ASSERT_EQ(a.ufx.size(), b.ufx.size());
  for (const auto& [km, summary] : a.ufx) {
    auto it = b.ufx.find(km);
    ASSERT_NE(it, b.ufx.end()) << km;
    EXPECT_EQ(summary.depth, it->second.depth) << km;
    EXPECT_EQ(summary.left_ext, it->second.left_ext) << km;
    EXPECT_EQ(summary.right_ext, it->second.right_ext) << km;
  }
}

/// 10x reads of a 40 kbp genome, half of it three repeat families, so
/// k-mer analysis finds heavy hitters.
std::vector<seq::Read> repetitive_reads(std::uint64_t seed,
                                        double error_rate) {
  sim::GenomeConfig gc;
  gc.length = 40000;
  gc.repeat_fraction = 0.5;
  gc.repeat_families = 3;
  gc.repeat_unit_length = 300;
  gc.seed = seed;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = error_rate;
  lc.seed = seed + 1;
  return sim::simulate_library(genome, lc);
}

TEST(KmerAnalysis, MatchesBruteForceOnErrorfulRepetitiveReads) {
  // Repeats give heavy hitters, 0.5% errors give singletons and Bloom
  // false positives: the UFX and the histogram must still equal the
  // reference cut at min_count, at one rank and at four.
  const auto reads = repetitive_reads(37, 0.005);

  KmerAnalysisConfig cfg;
  cfg.k = 21;
  cfg.min_count = 2;
  cfg.use_heavy_hitters = true;
  cfg.mg_capacity = 4096;
  const auto ref = reference_tallies(reads, cfg.k, cfg.qual_threshold);
  std::vector<std::uint64_t> want_hist(256, 0);
  std::size_t want_kept = 0;
  for (const auto& [km, tally] : ref) {
    if (tally.count < cfg.min_count) continue;
    ++want_hist[std::min<std::uint32_t>(tally.count, 255)];
    ++want_kept;
  }

  for (const int nranks : {1, 4}) {
    SCOPED_TRACE(nranks);
    const auto result = run_analysis(reads, cfg, nranks);
    EXPECT_GT(result.heavy_count, 0u);
    ASSERT_EQ(result.ufx.size(), want_kept);
    for (const auto& [km, summary] : result.ufx) {
      const auto it = ref.find(km);
      ASSERT_NE(it, ref.end()) << km;
      ASSERT_GE(it->second.count, cfg.min_count) << km;
      const auto expect = summarize(it->second, cfg.min_ext_count);
      EXPECT_EQ(summary.depth, expect.depth) << km;
      EXPECT_EQ(summary.left_ext, expect.left_ext) << km;
      EXPECT_EQ(summary.right_ext, expect.right_ext) << km;
    }
    EXPECT_EQ(result.histogram, want_hist);
  }
}

TEST(HeavyHitterIndex, MapsHeavyHittersToTheirPositions) {
  const auto reads = repetitive_reads(41, 0.002);

  KmerAnalysisConfig cfg;
  cfg.k = 21;
  cfg.mg_capacity = 4096;
  pgas::ThreadTeam team(pgas::Topology{4, 2});
  KmerAnalysis ka(team, cfg);
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });
  const auto& heavy = ka.heavy_hitters();
  const auto& index = ka.heavy_hitter_index();
  ASSERT_GT(heavy.size(), 0u);
  std::set<KmerT> heavy_set;
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    heavy_set.insert(heavy[i].first);
    EXPECT_EQ(index.find(heavy[i].first, heavy[i].first.hash()), i);
  }
  // Every other k-mer of the reads is absent.
  std::size_t probed = 0;
  for (const auto& read : reads) {
    for (seq::KmerScanner<KmerT::kMaxK> it(read.seq, cfg.k); !it.done();
         it.next()) {
      const KmerT& canon = it.canonical();
      if (heavy_set.contains(canon)) continue;
      EXPECT_EQ(index.find(canon, canon.hash()),
                KmerAnalysis::HeavyIndex::kAbsent);
      ++probed;
    }
  }
  EXPECT_GT(probed, 100000u);

  const KmerAnalysis::HeavyIndex empty;
  const KmerT some = KmerT::from_string("ACGTACGTACGTACGTACGTA");
  EXPECT_EQ(empty.find(some, some.hash()), KmerAnalysis::HeavyIndex::kAbsent);
  const KmerAnalysis::HeavyIndex from_empty(
      std::vector<std::pair<KmerT, std::uint64_t>>{});
  EXPECT_EQ(from_empty.find(some, some.hash()),
            KmerAnalysis::HeavyIndex::kAbsent);
}

TEST(KmerAnalysis, BloomOnOffAgreeOnSurvivingKmers) {
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.seed = 23;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.005;
  lc.seed = 24;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig with_bloom;
  with_bloom.k = 21;
  with_bloom.use_bloom = true;
  KmerAnalysisConfig without_bloom = with_bloom;
  without_bloom.use_bloom = false;
  without_bloom.min_count = 2;

  // A Bloom false positive admits a singleton, which enters the table with
  // count 1; none may reach the output, in depth or in either extension.
  const auto a = run_analysis(reads, with_bloom, 4);
  const auto b = run_analysis(reads, without_bloom, 4);
  ASSERT_EQ(a.ufx.size(), b.ufx.size());
  for (const auto& [km, summary] : a.ufx) {
    auto it = b.ufx.find(km);
    ASSERT_NE(it, b.ufx.end()) << km;
    EXPECT_EQ(summary.depth, it->second.depth) << km;
    EXPECT_EQ(summary.left_ext, it->second.left_ext) << km;
    EXPECT_EQ(summary.right_ext, it->second.right_ext) << km;
  }
}

TEST(KmerAnalysis, ErrorKmersAreExcluded) {
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.seed = 29;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 15.0;
  lc.error_rate = 0.004;
  lc.seed = 30;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig cfg;
  cfg.k = 25;
  const auto result = run_analysis(reads, cfg, 4);

  // Reference set of true genomic canonical k-mers.
  std::map<std::string, int> genomic;
  for (std::size_t i = 0; i + 25 <= genome.primary.size(); ++i)
    ++genomic[KmerT::from_string(genome.primary.substr(i, 25)).canonical().to_string()];

  std::size_t true_found = 0;
  std::size_t false_kept = 0;
  for (const auto& [km, summary] : result.ufx) {
    if (genomic.count(km)) ++true_found;
    else ++false_kept;
  }
  // Nearly all genomic k-mers recovered; false k-mers (error pairs that
  // collided twice) are a tiny fraction.
  EXPECT_GT(static_cast<double>(true_found) / static_cast<double>(genomic.size()), 0.98);
  EXPECT_LT(static_cast<double>(false_kept) / static_cast<double>(result.ufx.size()), 0.02);
  // With 15x coverage and ~0.4% errors, most distinct k-mers observed are
  // singletons (the "95% for human" effect, directionally).
  EXPECT_GT(result.singleton_fraction, 0.5);
}

TEST(KmerAnalysis, ReleasingTheTablesKeepsEveryResult) {
  sim::GenomeConfig gc;
  gc.length = 20000;
  gc.seed = 37;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.004;
  lc.seed = 38;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig cfg;
  cfg.k = 21;
  const int nranks = 3;
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  KmerAnalysis ka(team, cfg);
  EXPECT_FALSE(ka.has_table());
  team.run([&](pgas::Rank& rank) {
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.append(reads[i]);
    ka.run(rank, {mine});
  });
  ASSERT_TRUE(ka.has_table());
  EXPECT_GT(ka.bloom_bytes(), 0u);
  std::vector<std::vector<std::pair<KmerT, KmerSummary>>> ufx;
  for (int r = 0; r < nranks; ++r) ufx.push_back(ka.ufx(r));
  const auto histogram = ka.histogram();
  const auto peak = ka.peak_table_entries();

  ka.release_tables();
  EXPECT_FALSE(ka.has_table());
  EXPECT_EQ(ka.bloom_bytes(), 0u);
  std::size_t records = 0;
  for (int r = 0; r < nranks; ++r) {
    const auto& kept = ka.ufx(r);
    ASSERT_EQ(kept.size(), ufx[static_cast<std::size_t>(r)].size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].first, ufx[static_cast<std::size_t>(r)][i].first);
      EXPECT_EQ(kept[i].second.depth,
                ufx[static_cast<std::size_t>(r)][i].second.depth);
      EXPECT_EQ(kept[i].second.left_ext,
                ufx[static_cast<std::size_t>(r)][i].second.left_ext);
      EXPECT_EQ(kept[i].second.right_ext,
                ufx[static_cast<std::size_t>(r)][i].second.right_ext);
    }
    records += kept.size();
  }
  EXPECT_GT(records, 15000u);
  EXPECT_EQ(ka.histogram(), histogram);
  EXPECT_EQ(ka.peak_table_entries(), peak);
}

/// One errorful read set with every read repeated, as if each fragment had
/// been sequenced many times: every tenth read twice, the rest six times.
/// Error k-mers now occur twice or six times, so the count histogram's
/// valley sits above 2, with repeated error k-mers below it.
std::vector<seq::Read> repeated_reads() {
  sim::GenomeConfig gc;
  gc.length = 20000;
  gc.seed = 43;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.005;
  lc.seed = 44;
  const auto once = sim::simulate_library(genome, lc);
  std::vector<seq::Read> reads;
  for (int copy = 0; copy < 6; ++copy)
    for (std::size_t i = 0; i < once.size(); ++i)
      if (copy < 2 || i % 10 != 0) reads.push_back(once[i]);
  return reads;
}

TEST(KmerAnalysis, AutoMinCountPicksTheValleyOfItsOwnHistogram) {
  // Errorful reads sequenced once put the valley at 2, repeated ones above
  // it. Without the Bloom filter singletons reach finalize too; the
  // automatic cutoff must still read only the histogram of repeated k-mers.
  const std::vector<std::vector<seq::Read>> read_sets = {
      repetitive_reads(37, 0.005), repeated_reads()};
  for (std::size_t set = 0; set < read_sets.size(); ++set) {
    for (const bool bloom : {true, false}) {
      SCOPED_TRACE(testing::Message() << "set " << set << " bloom " << bloom);
      const auto& reads = read_sets[set];
      KmerAnalysisConfig numeric;
      numeric.k = 21;
      numeric.min_count = 2;
      numeric.use_bloom = bloom;
      const auto at_2 = run_analysis(reads, numeric, 4);
      const std::uint32_t valley = choose_min_count(at_2.histogram);

      numeric.min_count = valley;
      KmerAnalysisConfig automatic = numeric;
      automatic.min_count = 0;
      const auto want = run_analysis(reads, numeric, 4);
      EXPECT_EQ(want.min_count, valley);
      if (set == 1) {
        ASSERT_GT(valley, 2u) << "repeated reads must put the valley above 2";
        EXPECT_LT(want.ufx.size(), at_2.ufx.size()) << "the valley must cut";
      }
      for (const int nranks : {1, 4, 16}) {
        SCOPED_TRACE(nranks);
        const auto got = run_analysis(reads, automatic, nranks);
        EXPECT_EQ(got.min_count, valley);
        EXPECT_EQ(got.histogram, want.histogram);
        ASSERT_EQ(got.ufx.size(), want.ufx.size());
        for (const auto& [km, summary] : got.ufx) {
          const auto it = want.ufx.find(km);
          ASSERT_NE(it, want.ufx.end()) << km;
          EXPECT_EQ(summary.depth, it->second.depth) << km;
          EXPECT_EQ(summary.left_ext, it->second.left_ext) << km;
          EXPECT_EQ(summary.right_ext, it->second.right_ext) << km;
        }
      }
    }
  }
}

TEST(KmerAnalysis, CardinalityEstimateIsSane) {
  sim::GenomeConfig gc;
  gc.length = 40000;
  gc.seed = 31;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 8.0;
  lc.error_rate = 0.0;
  lc.seed = 32;
  const auto reads = sim::simulate_library(genome, lc);
  KmerAnalysisConfig cfg;
  cfg.k = 31;
  const auto result = run_analysis(reads, cfg, 2);
  // Error-free: distinct canonical k-mers ~= genome length - k + 1 (minus
  // coverage gaps and palindromic merges).
  EXPECT_NEAR(result.cardinality, 40000.0, 4000.0);
  EXPECT_NEAR(static_cast<double>(result.distinct), 40000.0, 4000.0);
}

}  // namespace
}  // namespace hipmer::kcount
