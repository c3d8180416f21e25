// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// pipeline: k-mer packing/canonicalization, Bloom filter ops, Misra-Gries
// offers, distributed hash-map updates (fine-grained vs aggregated — the
// per-element cost side of the "aggregating stores" optimization), and the
// alignment extension kernels.
//
// The k-mer section benchmarks each word-parallel kernel *against its
// retained base-loop `*_reference` twin* at k = 21 / 31 / 51, and a custom
// main() additionally runs a fixed-budget timing harness over the same pairs
// and mirrors the ns/op + speedup numbers to micro_kernels.csv, so the perf
// trajectory of these kernels is tracked in the same CSV scheme as the
// paper-figure benches. The same CSV carries a `crc32c` row: the portable
// table loop (`ref`) against the dispatched kernel (`word`, SSE4.2 where the
// CPU has it), in ns per 4 KiB buffer; and a `bloom_test_and_set` row: an
// unblocked filter that probes four random lines through a 64-bit `%`
// (`ref`, kept here only as the reference) against kcount's blocked filter
// (`word`), in ns per key; and a `misra_gries_offer` row: the node-based
// sketch kcount used to keep (`ref`, kept here only as the reference)
// against the flat kcount::MisraGries (`word`), in ns per offer of one
// rank's human-workload canonical 31-mer stream at θ = 32768; and a
// `heavy_hitter_probe` row: the `std::unordered_set` kcount used to probe
// (`ref`, kept here only as the reference) against the flat
// kcount::HeavyHitterIndex (`word`), in ns per probe of one rank's
// wheat-workload canonical 31-mer stream against that workload's real
// heavy-hitter set.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "align/smith_waterman.hpp"
#include "kcount/bloom_filter.hpp"
#include "kcount/hyperloglog.hpp"
#include "kcount/kmer_analysis.hpp"
#include "kcount/misra_gries.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/thread_team.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/types.hpp"
#include "sim/datasets.hpp"
#include "sim/genome_sim.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace {

using namespace hipmer;
using seq::KmerT;

std::string random_seq(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return sim::random_dna(n, rng);
}

std::vector<KmerT> random_kmers(int k, std::size_t n, std::uint64_t seed) {
  const auto s = random_seq(n + static_cast<std::size_t>(k), seed);
  std::vector<KmerT> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(KmerT::from_string(
        std::string_view(s).substr(i, static_cast<std::size_t>(k))));
  return out;
}

void BM_KmerFromString(benchmark::State& state) {
  const auto s = random_seq(64, 1);
  for (auto _ : state) {
    auto km = KmerT::from_string(
        std::string_view(s).substr(0, static_cast<std::size_t>(state.range(0))));
    benchmark::DoNotOptimize(km);
  }
}
BENCHMARK(BM_KmerFromString)->Arg(21)->Arg(31)->Arg(51)->Arg(63);

void BM_KmerRevcomp(benchmark::State& state) {
  const auto km = KmerT::from_string(
      random_seq(static_cast<std::size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto rc = km.revcomp();
    benchmark::DoNotOptimize(rc);
  }
}
BENCHMARK(BM_KmerRevcomp)->Arg(21)->Arg(31)->Arg(51);

void BM_KmerRevcompReference(benchmark::State& state) {
  const auto km = KmerT::from_string(
      random_seq(static_cast<std::size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto rc = km.revcomp_reference();
    benchmark::DoNotOptimize(rc);
  }
}
BENCHMARK(BM_KmerRevcompReference)->Arg(21)->Arg(31)->Arg(51);

void BM_KmerCanonical(benchmark::State& state) {
  const auto km = KmerT::from_string(
      random_seq(static_cast<std::size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto canon = km.canonical();
    benchmark::DoNotOptimize(canon);
  }
}
BENCHMARK(BM_KmerCanonical)->Arg(21)->Arg(31)->Arg(51);

void BM_KmerCanonicalReference(benchmark::State& state) {
  const auto km = KmerT::from_string(
      random_seq(static_cast<std::size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto canon = km.canonical_reference();
    benchmark::DoNotOptimize(canon);
  }
}
BENCHMARK(BM_KmerCanonicalReference)->Arg(21)->Arg(31)->Arg(51);

void BM_KmerScanner(benchmark::State& state) {
  const auto s = random_seq(10'000, 3);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint64_t h = 0;
    for (seq::KmerScanner<KmerT::kMaxK> it(s, k); !it.done(); it.next())
      h ^= it.canonical().hash();
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(s.size() - static_cast<std::size_t>(k) + 1));
}
BENCHMARK(BM_KmerScanner)->Arg(21)->Arg(31)->Arg(51);

void BM_KmerScannerReference(benchmark::State& state) {
  // The seed-era sliding extraction: one base-loop shift per window plus a
  // full O(k) revcomp + base-loop compare to canonicalize.
  const auto s = random_seq(10'000, 3);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint64_t h = 0;
    KmerT km = KmerT::from_string(
        std::string_view(s).substr(0, static_cast<std::size_t>(k)));
    h ^= km.canonical_reference().hash();
    for (std::size_t i = static_cast<std::size_t>(k); i < s.size(); ++i) {
      km = km.shifted_left_reference(seq::base_to_code(s[i]));
      h ^= km.canonical_reference().hash();
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(s.size() - static_cast<std::size_t>(k) + 1));
}
BENCHMARK(BM_KmerScannerReference)->Arg(21)->Arg(31)->Arg(51);

void BM_BloomTestAndSet(benchmark::State& state) {
  kcount::BloomFilter bloom(1 << 20);
  std::mt19937_64 rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(bloom.test_and_set(rng()));
}
BENCHMARK(BM_BloomTestAndSet);

/// Reference Bloom filter: each probe picks a bit anywhere in the array
/// through a 64-bit `%` and sets it with a locked fetch_or, so a key costs
/// up to four cache misses. The blocked kcount::BloomFilter replaced it;
/// it stays only as the baseline of the `bloom_test_and_set` row.
class ReferenceBloom {
 public:
  explicit ReferenceBloom(std::size_t expected_keys, int bits_per_key = 8,
                          int num_probes = 4)
      : num_probes_(num_probes) {
    std::size_t bits = expected_keys * static_cast<std::size_t>(bits_per_key);
    if (bits < 1024) bits = 1024;
    num_words_ = (bits + 63) / 64;
    words_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_words_);
    for (std::size_t i = 0; i < num_words_; ++i) words_[i] = 0;
  }

  bool test_and_set(std::uint64_t hash) noexcept {
    bool all_set = true;
    std::uint64_t h1 = hash;
    const std::uint64_t h2 = util::fmix64(hash) | 1;
    for (int p = 0; p < num_probes_; ++p) {
      const std::uint64_t bit = h1 % (num_words_ * 64);
      const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
      const std::uint64_t prev =
          words_[bit >> 6].fetch_or(mask, std::memory_order_relaxed);
      all_set &= (prev & mask) != 0;
      h1 += h2;
    }
    return all_set;
  }

 private:
  int num_probes_;
  std::size_t num_words_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

void BM_DistHashMapConstruct(benchmark::State& state) {
  // kcount's table geometry on the human workload: 804,470 expected
  // entries over 4 ranks. Construction and destruction should cost O(P)
  // whatever the bucket count.
  pgas::ThreadTeam team(pgas::Topology{4, 4});
  using Map = kcount::KmerAnalysis::Map;
  for (auto _ : state) {
    {
      Map map(team, {.global_capacity = 804'470});
      benchmark::DoNotOptimize(&map);
    }
    team.reset_for_job();  // drop the two channels each table opens
  }
}
BENCHMARK(BM_DistHashMapConstruct)->Unit(benchmark::kMillisecond);

void BM_HyperLogLogAdd(benchmark::State& state) {
  kcount::HyperLogLog hll;
  std::mt19937_64 rng(7);
  for (auto _ : state) hll.add_hash(rng());
  benchmark::DoNotOptimize(hll.estimate());
}
BENCHMARK(BM_HyperLogLogAdd);

void BM_MisraGriesOffer(benchmark::State& state) {
  // Zipf-ish stream: mixture of hot and cold items.
  kcount::MisraGries<std::uint64_t> mg(
      static_cast<std::size_t>(state.range(0)));
  std::mt19937_64 rng(9);
  for (auto _ : state) {
    const std::uint64_t x = (rng() & 7) == 0 ? rng() % 16 : rng();
    mg.offer(x);
  }
}
BENCHMARK(BM_MisraGriesOffer)->Arg(1024)->Arg(32768);

/// Reference Misra–Gries sketch: the same exact algorithm over a
/// std::unordered_map, so every new key allocates a node and every
/// decrement frees most of them, and each offer rehashes its key. The flat
/// kcount::MisraGries replaced it; it stays only as the baseline of the
/// `misra_gries_offer` row.
template <typename K, typename Hash>
class ReferenceMisraGries {
 public:
  explicit ReferenceMisraGries(std::size_t capacity) : capacity_(capacity) {
    counters_.reserve(capacity + 1);
  }

  void offer(const K& key, std::uint64_t w = 1) {
    n_ += w;
    if (auto it = counters_.find(key); it != counters_.end()) {
      it->second += w;
      return;
    }
    while (counters_.size() >= capacity_) {
      std::uint64_t dec = w;
      for (const auto& [k, c] : counters_) dec = std::min(dec, c);
      decrement_all(dec);
      w -= dec;
      if (w == 0) return;
    }
    counters_.emplace(key, w);
  }

  [[nodiscard]] std::size_t size() const noexcept { return counters_.size(); }

 private:
  void decrement_all(std::uint64_t dec) {
    for (auto it = counters_.begin(); it != counters_.end();) {
      if (it->second <= dec) {
        it = counters_.erase(it);
      } else {
        it->second -= dec;
        ++it;
      }
    }
  }

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  std::unordered_map<K, std::uint64_t, Hash> counters_;
};

struct SumMerge {
  void operator()(std::uint64_t& a, const std::uint64_t& b) const { a += b; }
};

void BM_DistMapUpdate(benchmark::State& state) {
  // Single-rank team: measures the data-structure cost (bucket lock +
  // probe + merge), the per-element term of aggregating stores.
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  pgas::DistHashMap<std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
                    SumMerge>
      map(team,
          {.global_capacity = 1 << 20,
           .flush_threshold = static_cast<std::size_t>(state.range(0))});
  team.run([&](pgas::Rank& rank) {
    std::mt19937_64 rng(11);
    for (auto _ : state) {
      map.update_buffered(rank, rng() % (1 << 20), 1);
    }
    // Nothing reads the table afterwards; the bench only measures the
    // store path.  // lint-phases: allow(flush-unpublished)
    map.flush(rank);
  });
}
BENCHMARK(BM_DistMapUpdate)->Arg(1)->Arg(64)->Arg(512);

void BM_DiagonalExtend(benchmark::State& state) {
  const auto target = random_seq(200, 13);
  auto query = target.substr(20, 100);
  query[50] = seq::complement_base(query[50]);
  for (auto _ : state) {
    auto aln = align::diagonal_extend(query, target, 20);
    benchmark::DoNotOptimize(aln);
  }
}
BENCHMARK(BM_DiagonalExtend);

void BM_BandedSW(benchmark::State& state) {
  const auto target = random_seq(200, 17);
  auto query = target.substr(20, 100);
  query.erase(50, 2);  // indel to force the banded path to matter
  for (auto _ : state) {
    auto aln = align::banded_smith_waterman(
        query, target, 20, static_cast<std::int32_t>(state.range(0)));
    benchmark::DoNotOptimize(aln);
  }
}
BENCHMARK(BM_BandedSW)->Arg(2)->Arg(4)->Arg(8);

// ---- CSV harness: word-parallel kernels vs base-loop references ----

/// Measure ns per logical operation: grows the repeat count until the
/// kernel has run for at least ~20ms.
template <typename F>
double ns_per_op(F&& fn, std::size_t ops_per_call) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    if (ns >= 2e7 || calls >= (std::size_t{1} << 22))
      return ns / static_cast<double>(calls * ops_per_call);
    calls *= 4;
  }
}

void write_kernel_csv() {
  util::TextTable table({"kernel", "k", "ref_ns_per_op", "word_ns_per_op",
                         "speedup", "word_mops_per_s"});
  const std::size_t n = 4096;
  for (const int k : {21, 31, 51}) {
    const auto kmers = random_kmers(k, n, static_cast<std::uint64_t>(k) * 977);
    const auto s = random_seq(100'000, static_cast<std::uint64_t>(k) * 71);
    const std::size_t windows = s.size() - static_cast<std::size_t>(k) + 1;

    struct Row {
      const char* kernel;
      double ref_ns;
      double word_ns;
    };
    std::vector<Row> rows;

    rows.push_back(
        {"revcomp",
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto rc = km.revcomp_reference();
                 benchmark::DoNotOptimize(rc);
               }
             },
             n),
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto rc = km.revcomp();
                 benchmark::DoNotOptimize(rc);
               }
             },
             n)});

    rows.push_back(
        {"canonical",
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto canon = km.canonical_reference();
                 benchmark::DoNotOptimize(canon);
               }
             },
             n),
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto canon = km.canonical();
                 benchmark::DoNotOptimize(canon);
               }
             },
             n)});

    rows.push_back(
        {"shift",
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto next = km.shifted_left_reference(seq::kBaseG);
                 benchmark::DoNotOptimize(next);
               }
             },
             n),
         ns_per_op(
             [&] {
               for (const auto& km : kmers) {
                 auto next = km.shifted_left(seq::kBaseG);
                 benchmark::DoNotOptimize(next);
               }
             },
             n)});

    rows.push_back(
        {"compare",
         ns_per_op(
             [&] {
               bool acc = false;
               for (std::size_t i = 0; i + 1 < kmers.size(); ++i)
                 acc ^= KmerT::less_reference(kmers[i], kmers[i + 1]);
               benchmark::DoNotOptimize(acc);
             },
             n - 1),
         ns_per_op(
             [&] {
               bool acc = false;
               for (std::size_t i = 0; i + 1 < kmers.size(); ++i)
                 acc ^= kmers[i] < kmers[i + 1];
               benchmark::DoNotOptimize(acc);
             },
             n - 1)});

    rows.push_back(
        {"sliding_extraction",
         ns_per_op(
             [&] {
               std::uint64_t h = 0;
               KmerT km = KmerT::from_string(
                   std::string_view(s).substr(0, static_cast<std::size_t>(k)));
               h ^= km.canonical_reference().hash();
               for (std::size_t i = static_cast<std::size_t>(k); i < s.size();
                    ++i) {
                 km = km.shifted_left_reference(seq::base_to_code(s[i]));
                 h ^= km.canonical_reference().hash();
               }
               benchmark::DoNotOptimize(h);
             },
             windows),
         ns_per_op(
             [&] {
               std::uint64_t h = 0;
               for (seq::KmerScanner<KmerT::kMaxK> it(s, k); !it.done();
                    it.next())
                 h ^= it.canonical().hash();
               benchmark::DoNotOptimize(h);
             },
             windows)});

    for (const auto& row : rows) {
      table.add_row({row.kernel, std::to_string(k),
                     util::TextTable::fmt(row.ref_ns, 2),
                     util::TextTable::fmt(row.word_ns, 2),
                     util::TextTable::fmt(row.ref_ns / row.word_ns, 2),
                     util::TextTable::fmt(1e3 / row.word_ns, 1)});
    }
  }
  // CRC-32C over one 4 KiB buffer (about one aggregated batch): the table
  // loop vs the dispatched kernel every envelope, frame and shard uses.
  {
    std::vector<unsigned char> buf(4096);
    std::mt19937_64 rng(19);
    for (auto& b : buf) b = static_cast<unsigned char>(rng());
    const double ref_ns = ns_per_op(
        [&] {
          benchmark::DoNotOptimize(
              util::crc32c_portable(buf.data(), buf.size()));
        },
        1);
    const double word_ns = ns_per_op(
        [&] {
          benchmark::DoNotOptimize(util::crc32c(buf.data(), buf.size()));
        },
        1);
    table.add_row({"crc32c", "-", util::TextTable::fmt(ref_ns, 2),
                   util::TextTable::fmt(word_ns, 2),
                   util::TextTable::fmt(ref_ns / word_ns, 2),
                   util::TextTable::fmt(1e3 / word_ns, 1)});
  }
  // Bloom test-and-set over a stream of fresh keys into a 512 KiB filter
  // (about one human-workload rank's, ~500k keys): the reference filter vs
  // the blocked one, at the same 8 bits/key and 4 probes.
  {
    const std::size_t keys = std::size_t{1} << 19;
    const std::size_t batch = 4096;
    ReferenceBloom ref(keys);
    kcount::BloomFilter blocked(keys);
    std::uint64_t ref_next = 0;
    std::uint64_t word_next = 0;
    const double ref_ns = ns_per_op(
        [&] {
          bool acc = false;
          for (std::size_t i = 0; i < batch; ++i)
            acc ^= ref.test_and_set(util::mix64(ref_next++));
          benchmark::DoNotOptimize(acc);
        },
        batch);
    const double word_ns = ns_per_op(
        [&] {
          bool acc = false;
          for (std::size_t i = 0; i < batch; ++i)
            acc ^= blocked.test_and_set(util::mix64(word_next++));
          benchmark::DoNotOptimize(acc);
        },
        batch);
    table.add_row({"bloom_test_and_set", "-", util::TextTable::fmt(ref_ns, 2),
                   util::TextTable::fmt(word_ns, 2),
                   util::TextTable::fmt(ref_ns / word_ns, 2),
                   util::TextTable::fmt(1e3 / word_ns, 1)});
  }
  // Misra–Gries offers at θ = 32768 over one rank's share (every 4th read)
  // of the 500 kbp human-like workload's canonical 31-mers, about 1.76M
  // offers. Both loops hash each k-mer once, as the sketch pass does for
  // its HyperLogLog; only the flat sketch reuses that hash.
  {
    const std::size_t theta = 32768;
    const auto ds = sim::make_human_like(500'000, 1);
    std::vector<KmerT> stream;
    for (std::size_t i = 0; i < ds.reads[0].size(); i += 4)
      for (seq::KmerScanner<KmerT::kMaxK> it(ds.reads[0][i].seq, 31);
           !it.done(); it.next())
        stream.push_back(it.canonical());
    std::size_t ref_size = 0;
    std::size_t word_size = 0;
    const double ref_ns = ns_per_op(
        [&] {
          ReferenceMisraGries<KmerT, seq::KmerHashT> mg(theta);
          std::uint64_t acc = 0;
          for (const auto& km : stream) {
            acc ^= km.hash();
            mg.offer(km);
          }
          benchmark::DoNotOptimize(acc);
          ref_size = mg.size();
        },
        stream.size());
    const double word_ns = ns_per_op(
        [&] {
          kcount::MisraGries<KmerT, seq::KmerHashT> mg(theta);
          std::uint64_t acc = 0;
          for (const auto& km : stream) {
            const std::uint64_t h = km.hash();
            acc ^= h;
            mg.offer(km, h, 1);
          }
          benchmark::DoNotOptimize(acc);
          word_size = mg.size();
        },
        stream.size());
    if (ref_size != word_size)
      std::fprintf(stderr, "misra_gries_offer: sketch sizes differ (%zu vs %zu)\n",
                   ref_size, word_size);
    std::printf("misra_gries_offer: %zu offers, theta %zu\n", stream.size(),
                theta);
    table.add_row({"misra_gries_offer", "31", util::TextTable::fmt(ref_ns, 2),
                   util::TextTable::fmt(word_ns, 2),
                   util::TextTable::fmt(ref_ns / word_ns, 2),
                   util::TextTable::fmt(1e3 / word_ns, 1)});
  }
  // Heavy-hitter probes: one rank's share (every 4th read) of the 500 kbp
  // wheat-like workload's contigging libraries, probed against the heavy
  // hitters k-mer analysis finds there at 4 ranks and θ = 32768. Both loops
  // hash each k-mer once, as the passes do to pick its owner; only the flat
  // index reuses that hash.
  {
    const auto ds = sim::make_wheat_like(500'000);
    std::vector<seq::ReadStore> stores(4);
    std::vector<KmerT> stream;
    std::size_t nth = 0;
    for (std::size_t lib = 0; lib < ds.libraries.size(); ++lib) {
      if (ds.libraries[lib].name.rfind("mp", 0) == 0) continue;
      for (const auto& read : ds.reads[lib]) {
        if (nth % 4 == 0)
          for (seq::KmerScanner<KmerT::kMaxK> it(read.seq, 31); !it.done();
               it.next())
            stream.push_back(it.canonical());
        stores[nth++ % 4].append(read);
      }
    }
    pgas::ThreadTeam team(pgas::Topology{4, 2});
    kcount::KmerAnalysis ka(team, kcount::KmerAnalysisConfig{});
    team.run([&](pgas::Rank& rank) {
      ka.run(rank, {stores[static_cast<std::size_t>(rank.id())]});
    });
    const auto& heavy = ka.heavy_hitters();
    std::unordered_set<KmerT, seq::KmerHashT> set;
    for (const auto& [km, count] : heavy) set.insert(km);
    const kcount::HeavyHitterIndex<KmerT, seq::KmerHashT> index(heavy);
    std::size_t ref_hits = 0;
    std::size_t word_hits = 0;
    const double ref_ns = ns_per_op(
        [&] {
          std::uint64_t acc = 0;
          std::size_t hits = 0;
          for (const auto& km : stream) {
            acc ^= km.hash();
            hits += set.contains(km) ? 1 : 0;
          }
          benchmark::DoNotOptimize(acc);
          ref_hits = hits;
        },
        stream.size());
    const double word_ns = ns_per_op(
        [&] {
          std::uint64_t acc = 0;
          std::size_t hits = 0;
          for (const auto& km : stream) {
            const std::uint64_t h = km.hash();
            acc ^= h;
            hits += index.find(km, h) != index.kAbsent ? 1 : 0;
          }
          benchmark::DoNotOptimize(acc);
          word_hits = hits;
        },
        stream.size());
    if (ref_hits != word_hits)
      std::fprintf(stderr,
                   "heavy_hitter_probe: hit counts differ (%zu vs %zu)\n",
                   ref_hits, word_hits);
    std::printf("heavy_hitter_probe: %zu probes, %zu heavy hitters, %zu hits\n",
                stream.size(), heavy.size(), word_hits);
    table.add_row({"heavy_hitter_probe", "31", util::TextTable::fmt(ref_ns, 2),
                   util::TextTable::fmt(word_ns, 2),
                   util::TextTable::fmt(ref_ns / word_ns, 2),
                   util::TextTable::fmt(1e3 / word_ns, 1)});
  }
  std::printf("\n=== kernels: word-parallel vs reference ===\n%s\n",
              table.to_string().c_str());
  const std::string csv = "micro_kernels.csv";
  if (table.write_csv(csv))
    std::printf("[csv written to %s]\n", csv.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_kernel_csv();
  return 0;
}
