#include "kcount/kmer_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "kcount/histogram.hpp"
#include "util/timer.hpp"

namespace hipmer::kcount {

using seq::KmerT;

KmerAnalysis::KmerAnalysis(pgas::ThreadTeam& team, KmerAnalysisConfig config)
    : team_(team), config_(config) {
  const auto p = static_cast<std::size_t>(team.nranks());
  ufx_.resize(p);
  distinct_per_rank_.assign(p, 0);
  instances_per_rank_.assign(p, 0);
  blooms_.resize(p);
  repeat_blooms_.resize(p);
}

KmerAnalysis::~KmerAnalysis() = default;

std::uint32_t KmerAnalysis::owner_of(std::uint64_t hash) const {
  return static_cast<std::uint32_t>(hash %
                                    static_cast<std::uint64_t>(team_.nranks()));
}

void KmerAnalysis::run(pgas::Rank& rank,
                       const std::vector<seq::ReadSetView>& read_sets) {
  // Every pass ends with a barrier, so rank 0's clock read after it covers
  // the whole team's pass; no collective is added for the timing.
  util::WallTimer clock;
  const auto lap = [&](double& seconds) {
    if (!rank.is_root()) return;
    seconds = clock.seconds();
    clock.reset();
  };
  sketch_pass(rank, read_sets);
  lap(pass_seconds_.sketch);
  // Sized for what the counting pass admits: heavy hitters bypass the
  // filters; without them, every distinct k-mer gets in.
  allocate_table(rank, config_.use_bloom
                           ? candidate_pass(rank, read_sets) +
                                 heavy_hitters_.size()
                           : static_cast<std::size_t>(cardinality_estimate_));
  lap(pass_seconds_.candidate);
  counting_pass(rank, read_sets);
  lap(pass_seconds_.count);
  finalize(rank);
  lap(pass_seconds_.finalize);
}

void KmerAnalysis::sketch_pass(
    pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets) {
  HyperLogLog hll;
  MisraGries<KmerT, seq::KmerHashT> mg(config_.mg_capacity);
  std::uint64_t instances = 0;

  for (const seq::ReadStore& set : read_sets) {
    for (std::size_t r = 0; r < set.size(); ++r) {
      for (auto it = set.scanner<KmerT::kMaxK>(r, config_.k); !it.done();
           it.next()) {
        const KmerT& canon = it.canonical();
        const std::uint64_t hash = canon.hash();
        hll.add_hash(hash);
        if (config_.use_heavy_hitters) mg.offer(canon, hash, 1);
        ++instances;
      }
    }
  }
  // One work unit per instance, charged once: CommStats counters are
  // atomics, too dear to bump per k-mer.
  rank.stats().add_work(instances);
  instances_per_rank_[static_cast<std::size_t>(rank.id())] = instances;

  // Global cardinality: merge every rank's HLL registers.
  const auto all_regs = rank.allgatherv(hll.registers());
  HyperLogLog merged;
  const std::size_t reg_count = hll.registers().size();
  for (int r = 0; r < rank.nranks(); ++r) {
    std::vector<std::uint8_t> regs(
        all_regs.begin() + static_cast<std::ptrdiff_t>(
                               static_cast<std::size_t>(r) * reg_count),
        all_regs.begin() + static_cast<std::ptrdiff_t>(
                               (static_cast<std::size_t>(r) + 1) * reg_count));
    merged.merge_registers(regs);
  }
  const double cardinality = merged.estimate();
  const std::uint64_t global_n = rank.allreduce_sum(instances);

  // Single-writer on the threads fabric; on a multi-process fabric every
  // process holds its own copy of the analysis object, so each one stores
  // the (replicated) reduction results.
  if (rank.is_root() || team_.multiprocess()) {
    cardinality_estimate_ = cardinality;
    total_instances_ = global_n;
  }

  if (!config_.use_heavy_hitters) {
    rank.barrier();
    return;
  }

  // Heavy-hitter identification: route each rank's MG partials to the
  // k-mer's owner, sum the lower bounds there, keep those over threshold.
  const std::uint64_t threshold =
      config_.hh_min_count > 0
          ? config_.hh_min_count
          : global_n / static_cast<std::uint64_t>(config_.mg_capacity) + 1;

  std::vector<std::vector<HeavyItem>> outgoing(
      static_cast<std::size_t>(rank.nranks()));
  const auto& partials = mg.items();
  for (const auto& [kmer, count] : partials)
    outgoing[owner_of(kmer.hash())].push_back(HeavyItem{kmer, count});
  rank.stats().add_work(partials.size());
  const auto incoming = rank.alltoallv(outgoing);

  std::unordered_map<KmerT, std::uint64_t, seq::KmerHashT> sums;
  sums.reserve(incoming.size());
  for (const auto& item : incoming) sums[item.kmer] += item.count;
  rank.stats().add_work(incoming.size());
  std::vector<HeavyItem> my_heavy;
  for (const auto& [kmer, count] : sums)
    if (count >= threshold) my_heavy.push_back(HeavyItem{kmer, count});

  const auto global_heavy = rank.allgatherv(my_heavy);

  // Every rank needs the replicated set; build shared state on root, then
  // let everyone read it after the barrier (allgatherv already ends with
  // one, but the set construction itself must be single-writer). Each
  // process of a multi-process team builds its own copy from the same
  // allgatherv result.
  if (rank.is_root() || team_.multiprocess()) {
    heavy_hitters_.clear();
    for (const auto& item : global_heavy)
      heavy_hitters_.emplace_back(item.kmer, item.count);
    // Count descending, then k-mer ascending: one order whatever the
    // layout of the sketches and tables the items passed through.
    std::sort(heavy_hitters_.begin(), heavy_hitters_.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    hh_index_ = HeavyIndex(heavy_hitters_);
  }
  rank.barrier();
}

std::uint64_t KmerAnalysis::candidate_pass(
    pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets) {
  // Each owner's filters hold only the k-mers routed to it, so every rank
  // allocates its own.
  const auto me = static_cast<std::size_t>(rank.id());
  const std::size_t per_rank =
      static_cast<std::size_t>(std::max(1024.0, cardinality_estimate_)) /
          static_cast<std::size_t>(rank.nranks()) +
      1024;
  blooms_[me] = std::make_unique<BloomFilter>(per_rank);
  repeat_blooms_[me] = std::make_unique<BloomFilter>(per_rank);
  BloomFilter& seen = *blooms_[me];
  BloomFilter& repeats = *repeat_blooms_[me];
  std::uint64_t distinct = 0;
  std::uint64_t second_sightings = 0;

  // Per-chunk progress, reduced across the team: whether any rank still
  // has k-mers to send, and how many k-mers the owners have sighted twice.
  struct Progress {
    std::uint64_t more;
    std::uint64_t second_sightings;
  };
  Progress global{};
  std::vector<std::vector<KmerT>> outgoing(
      static_cast<std::size_t>(rank.nranks()));
  std::size_t buffered = 0;
  std::size_t scanned = 0;

  // One chunked all-to-all round; false once no rank has anything to send.
  // Owner-side, a first sighting sets the first filter; a second one (a
  // hit there) sets the second filter, which the counting pass's admission
  // reads.
  const auto exchange = [&] {
    rank.stats().add_work(scanned);
    scanned = 0;
    global = rank.allreduce(
        Progress{buffered > 0 ? 1u : 0u, second_sightings},
        [](const Progress& a, const Progress& b) {
          return Progress{std::max(a.more, b.more),
                          a.second_sightings + b.second_sightings};
        });
    if (global.more == 0) return false;
    const auto incoming = rank.alltoallv(outgoing);
    for (auto& v : outgoing) v.clear();
    buffered = 0;
    for (const KmerT& km : incoming) {
      const std::uint64_t h = km.hash();
      if (!seen.test_and_set(h))
        ++distinct;
      else if (!repeats.test_and_set(h))
        ++second_sightings;
    }
    rank.stats().add_work(incoming.size());
    return true;
  };

  // A chunk ships as soon as it holds chunk_kmers k-mers, mid-read if need
  // be; then every rank keeps exchanging until the last one runs dry.
  for (const seq::ReadStore& set : read_sets) {
    for (std::size_t r = 0; r < set.size(); ++r) {
      for (auto it = set.scanner<KmerT::kMaxK>(r, config_.k); !it.done();
           it.next()) {
        const KmerT& canon = it.canonical();
        const std::uint64_t hash = canon.hash();
        if (hh_index_.find(canon, hash) == HeavyIndex::kAbsent) {
          outgoing[owner_of(hash)].push_back(canon);
          ++buffered;
        }
        ++scanned;
        if (buffered == config_.chunk_kmers) exchange();
      }
    }
  }
  while (exchange()) {
  }
  distinct_per_rank_[me] = distinct;
  rank.barrier();
  return global.second_sightings;
}

void KmerAnalysis::allocate_table(pgas::Rank& rank, std::size_t capacity) {
  // Root allocates on behalf of the whole team (threads fabric: shared
  // memory, the barrier publishes); every process of a multi-process team
  // constructs its own instance — `capacity` is a replicated reduction
  // result, so the table geometry and the fabric service ids it registers
  // come out identical in every process.
  if (rank.is_root() || team_.multiprocess()) {
    Map::Config mc;
    mc.global_capacity = std::max<std::size_t>(1024, capacity);
    mc.flush_threshold = config_.flush_threshold;
    table_ = std::make_unique<Map>(team_, mc);
    table_->set_name("kcount.counts");
    // A counting-pass store whose k-mer is not in the table yet inserts
    // it only if its owner sighted it twice in the candidate pass.
    if (config_.use_bloom)
      table_->set_admission([this](std::uint32_t owner, std::uint64_t hash) {
        return repeat_blooms_[owner]->test(hash);
      });
  }
  rank.barrier();
}

void KmerAnalysis::counting_pass(
    pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets) {
  const auto policy =
      config_.use_bloom ? Map::Policy::kAdmit : Map::Policy::kInsert;
  // Heavy-hitter tallies, by position in heavy_hitters_.
  std::vector<KmerTally> local_heavy(heavy_hitters_.size());
  std::string qual_scratch;
  std::uint64_t instances = 0;

  for (const seq::ReadStore& set : read_sets)
  for (std::size_t r = 0; r < set.size(); ++r) {
    const std::string_view quals = set.quals(r, qual_scratch);
    const std::size_t len = set.length(r);
    for (auto it = set.scanner<KmerT::kMaxK>(r, config_.k); !it.done();
         it.next()) {
      const std::size_t i = it.position();
      KmerTally tally;
      tally.count = 1;

      // Neighbor bases, quality-filtered ("k-mers ... with high quality
      // extensions").
      const auto code_at = [&](std::size_t pos) {
        return set.code(r, static_cast<std::uint32_t>(pos));
      };
      const bool has_left = i > 0 && code_at(i - 1) != seq::kBaseInvalid &&
                            seq::phred(quals[i - 1]) >= config_.qual_threshold;
      const std::size_t ri = i + static_cast<std::size_t>(config_.k);
      const bool has_right = ri < len && code_at(ri) != seq::kBaseInvalid &&
                             seq::phred(quals[ri]) >= config_.qual_threshold;
      const std::uint8_t lcode = has_left ? code_at(i - 1) : 0;
      const std::uint8_t rcode = has_right ? code_at(ri) : 0;

      // Store extensions in the canonical frame.
      if (!it.is_flipped()) {
        if (has_left) tally.add_left(lcode);
        if (has_right) tally.add_right(rcode);
      } else {
        if (has_right) tally.add_left(seq::complement_code(rcode));
        if (has_left) tally.add_right(seq::complement_code(lcode));
      }

      const KmerT& canon = it.canonical();
      const std::uint64_t hash = canon.hash();
      ++instances;
      if (const std::uint32_t hh = hh_index_.find(canon, hash);
          hh != HeavyIndex::kAbsent) {
        local_heavy[hh].merge(tally);  // local accumulation
      } else {
        table_->update_buffered(rank, canon, hash, tally, policy);
      }
    }
  }
  rank.stats().add_work(instances);
  table_->flush(rank);
  rank.barrier();

  // Final global reduction of heavy hitters: one exchange, then the owner
  // merges (bypassing the Bloom filter — a heavy hitter is never a
  // singleton, so admission is unconditional; this matches the paper's
  // note that only k-mers with f'(x) > 1 are treated specially).
  if (config_.use_heavy_hitters) {
    std::vector<std::vector<TallyItem>> outgoing(
        static_cast<std::size_t>(rank.nranks()));
    // Only the heavy hitters this rank saw ship, one item each.
    std::uint64_t shipped = 0;
    for (std::size_t i = 0; i < local_heavy.size(); ++i) {
      if (local_heavy[i].count == 0) continue;
      const KmerT& kmer = heavy_hitters_[i].first;
      outgoing[owner_of(kmer.hash())].push_back(
          TallyItem{kmer, local_heavy[i]});
      ++shipped;
    }
    rank.stats().add_work(shipped);
    const auto incoming = rank.alltoallv(outgoing);
    for (const auto& item : incoming)
      table_->update(rank, item.kmer, item.tally, Map::Policy::kInsert);
    rank.stats().add_work(incoming.size());
    // Heavy hitters are distinct k-mers the Bloom pass never saw; `incoming`
    // holds one item per (source rank, k-mer), so count distinct keys.
    std::vector<bool> arrived(heavy_hitters_.size(), false);
    std::uint64_t distinct_hh = 0;
    for (const auto& item : incoming) {
      const std::uint32_t hh = hh_index_.find(item.kmer, item.kmer.hash());
      assert(hh != HeavyIndex::kAbsent);
      if (!arrived[hh]) ++distinct_hh;
      arrived[hh] = true;
    }
    distinct_per_rank_[static_cast<std::size_t>(rank.id())] += distinct_hh;
    rank.barrier();
  }
}

void KmerAnalysis::finalize(pgas::Rank& rank) {
  // Roll-ups go through collectives on every fabric, so the charged
  // collectives (and modeled time) do not depend on where shards live.
  // Shared results are written by root only, or by each process's one
  // rank on a multi-process fabric.
  const bool writes_shared = rank.is_root() || team_.multiprocess();
  const auto peak =
      rank.allreduce_sum<std::uint64_t>(table_->local_size(rank.id()));
  if (writes_shared) peak_table_entries_ = peak;
  rank.barrier();

  // Collapse tallies at or above the floor into UFX records + histogram.
  // The Bloom filter's admission lets singletons in, and an automatic
  // cutoff reads the histogram of repeated k-mers, so both floor it at 2.
  std::uint32_t min_count = config_.min_count;
  if (min_count == 0 || config_.use_bloom)
    min_count = std::max<std::uint32_t>(min_count, 2);
  auto& out = ufx_[static_cast<std::size_t>(rank.id())];
  std::vector<std::uint64_t> hist(256, 0);
  out.clear();
  out.reserve(table_->local_size(rank.id()));
  table_->for_each_local(rank, [&](const KmerT& km, KmerTally& tally) {
    if (tally.count < min_count) return;
    out.emplace_back(km, summarize(tally, config_.min_ext_count));
    ++hist[std::min<std::uint32_t>(tally.count, 255)];
  });
  // Every rank contributes exactly 256 buckets, so the gathered rows fold
  // by index modulo 256.
  const auto all_hist = rank.allgatherv(hist);
  std::vector<std::uint64_t> global_hist(256, 0);
  for (std::size_t idx = 0; idx < all_hist.size(); ++idx)
    global_hist[idx % 256] += all_hist[idx];
  // Automatic cutoff: every rank picks the same valley from the same
  // global histogram, then drops the records and buckets below it.
  if (config_.min_count == 0) {
    min_count = choose_min_count(global_hist);
    std::erase_if(out, [&](const auto& record) {
      return record.second.depth < min_count;
    });
    std::fill_n(global_hist.begin(), min_count, 0);
  }
  rank.stats().add_work(out.size());
  rank.barrier();

  // Global roll-ups.
  const std::uint64_t global_distinct =
      rank.allreduce_sum(distinct_per_rank_[static_cast<std::size_t>(rank.id())]);
  const std::uint64_t global_kept =
      rank.allreduce_sum<std::uint64_t>(out.size());
  if (writes_shared) {
    distinct_kmers_ = global_distinct;
    singleton_fraction_ =
        global_distinct == 0
            ? 0.0
            : 1.0 - static_cast<double>(global_kept) /
                        static_cast<double>(global_distinct);
    histogram_ = std::move(global_hist);
    min_count_ = min_count;
  }
  rank.barrier();
}

void KmerAnalysis::release_tables() {
  table_.reset();
  for (auto* filters : {&blooms_, &repeat_blooms_})
    for (auto& b : *filters) b.reset();
}

std::size_t KmerAnalysis::bloom_bytes() const {
  std::size_t total = 0;
  for (const auto* filters : {&blooms_, &repeat_blooms_})
    for (const auto& b : *filters)
      if (b) total += b->size_bytes();
  return total;
}

}  // namespace hipmer::kcount
