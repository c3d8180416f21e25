#include "kcount/kmer_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "seq/kmer_scanner.hpp"

namespace hipmer::kcount {

using seq::KmerT;

KmerAnalysis::KmerAnalysis(pgas::ThreadTeam& team, KmerAnalysisConfig config)
    : team_(team), config_(config) {
  const auto p = static_cast<std::size_t>(team.nranks());
  ufx_.resize(p);
  distinct_per_rank_.assign(p, 0);
  instances_per_rank_.assign(p, 0);
  histogram_per_rank_.assign(p, std::vector<std::uint64_t>(256, 0));
  blooms_.resize(p);
}

KmerAnalysis::~KmerAnalysis() = default;

std::uint32_t KmerAnalysis::owner_of(const KmerT& km) const {
  return static_cast<std::uint32_t>(km.hash() %
                                    static_cast<std::uint64_t>(team_.nranks()));
}

void KmerAnalysis::run(pgas::Rank& rank,
                       const std::vector<seq::ReadSetView>& read_sets) {
  sketch_pass(rank, read_sets);
  allocate(rank);
  if (config_.use_bloom) candidate_pass(rank, read_sets);
  counting_pass(rank, read_sets);
  finalize(rank);
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
        rank.stats().add_work();
      }
    }
  }
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
  for (const auto& [kmer, count] : mg.items()) {
    outgoing[owner_of(kmer)].push_back(HeavyItem{kmer, count});
    rank.stats().add_work();
  }
  const auto incoming = rank.alltoallv(outgoing);

  std::unordered_map<KmerT, std::uint64_t, seq::KmerHashT> sums;
  sums.reserve(incoming.size());
  for (const auto& item : incoming) {
    sums[item.kmer] += item.count;
    rank.stats().add_work();
  }
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
    hh_set_.clear();
    heavy_hitters_.clear();
    for (const auto& item : global_heavy) {
      hh_set_.insert(item.kmer);
      heavy_hitters_.emplace_back(item.kmer, item.count);
    }
    // Count descending, then k-mer ascending: one order whatever the
    // layout of the sketches and tables the items passed through.
    std::sort(heavy_hitters_.begin(), heavy_hitters_.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
  }
  rank.barrier();
}

void KmerAnalysis::allocate(pgas::Rank& rank) {
  // Root allocates on behalf of the whole team (threads fabric: shared
  // memory, the barrier publishes); every process of a multi-process team
  // constructs its own instance — cardinality_estimate_ is a replicated
  // reduction result, so the table geometry and the fabric service ids it
  // registers come out identical in every process.
  if (rank.is_root() || team_.multiprocess()) {
    const auto est = static_cast<std::size_t>(
        std::max(1024.0, cardinality_estimate_));
    Map::Config mc;
    mc.global_capacity = std::max<std::size_t>(
        1024, static_cast<std::size_t>(static_cast<double>(est) *
                                       config_.candidate_fraction));
    mc.flush_threshold = config_.flush_threshold;
    table_ = std::make_unique<Map>(team_, mc);
    table_->set_name("kcount.counts");
    if (config_.use_bloom) {
      const std::size_t per_rank =
          est / static_cast<std::size_t>(team_.nranks()) + 1024;
      for (std::size_t b = 0; b < blooms_.size(); ++b)
        if (!team_.multiprocess() || team_.is_local(static_cast<int>(b)))
          blooms_[b] = std::make_unique<BloomFilter>(per_rank);
    }
  }
  rank.barrier();
}

void KmerAnalysis::candidate_pass(
    pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets) {
  BloomFilter& my_bloom = *blooms_[static_cast<std::size_t>(rank.id())];
  std::uint64_t distinct = 0;

  std::vector<std::vector<KmerT>> outgoing(
      static_cast<std::size_t>(rank.nranks()));
  std::vector<Map::StoreOp> admitted;
  std::size_t buffered = 0;
  std::size_t set_idx = 0;
  std::size_t read_idx = 0;
  seq::KmerScanner<KmerT::kMaxK> it("", config_.k);
  bool it_active = false;
  auto start_next_read = [&]() -> bool {
    while (set_idx < read_sets.size()) {
      const seq::ReadStore& set = read_sets[set_idx];
      if (read_idx < set.size()) {
        it = set.scanner<KmerT::kMaxK>(read_idx++, config_.k);
        return true;
      }
      ++set_idx;
      read_idx = 0;
    }
    return false;
  };
  auto stream_exhausted = [&]() {
    return set_idx >= read_sets.size() ||
           (set_idx + 1 == read_sets.size() &&
            read_idx >= read_sets[set_idx].get().size());
  };

  // Chunked exchange: every rank keeps participating in the collective
  // until the last rank runs out of k-mers.
  while (true) {
    // Fill the chunk from our read stream.
    while (buffered < config_.chunk_kmers) {
      if (!it_active) {
        if (!start_next_read()) break;
        it_active = true;
        continue;
      }
      if (it.done()) {
        it_active = false;
        continue;
      }
      const KmerT& canon = it.canonical();
      if (!config_.use_heavy_hitters || !hh_set_.contains(canon)) {
        outgoing[owner_of(canon)].push_back(canon);
        ++buffered;
      }
      rank.stats().add_work();
      it.next();
    }

    const int more_here = (buffered > 0 || !stream_exhausted() ||
                           (it_active && !it.done()))
                              ? 1
                              : 0;
    if (rank.allreduce_max(more_here) == 0) break;

    const auto incoming = rank.alltoallv(outgoing);
    for (auto& v : outgoing) v.clear();
    buffered = 0;

    // Owner-side: Bloom test-and-set; admit on second sighting. Each
    // k-mer is hashed once, for both the filter and the table, and the
    // admitted ones go into the owner's shard as one prefetched batch.
    admitted.clear();
    for (const KmerT& km : incoming) {
      const std::uint64_t h = km.hash();
      if (my_bloom.test_and_set(h)) {
        admitted.push_back(Map::StoreOp{h, km, KmerTally{},
                                        Map::Policy::kInsert});
      } else {
        ++distinct;
      }
    }
    rank.stats().add_work(incoming.size());
    table_->update_owned(rank, admitted);
  }
  distinct_per_rank_[static_cast<std::size_t>(rank.id())] = distinct;
  rank.barrier();
}

void KmerAnalysis::counting_pass(
    pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets) {
  const auto policy = config_.use_bloom ? Map::Policy::kIfPresent
                                        : Map::Policy::kInsert;
  std::unordered_map<KmerT, KmerTally, seq::KmerHashT> local_heavy;
  std::string qual_scratch;

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
      rank.stats().add_work();
      if (config_.use_heavy_hitters && hh_set_.contains(canon)) {
        local_heavy[canon].merge(tally);  // local accumulation
      } else {
        table_->update_buffered(rank, canon, tally, policy);
      }
    }
  }
  table_->flush(rank);
  rank.barrier();

  // Final global reduction of heavy hitters: one exchange, then the owner
  // merges (bypassing the Bloom filter — a heavy hitter is never a
  // singleton, so admission is unconditional; this matches the paper's
  // note that only k-mers with f'(x) > 1 are treated specially).
  if (config_.use_heavy_hitters) {
    std::vector<std::vector<TallyItem>> outgoing(
        static_cast<std::size_t>(rank.nranks()));
    for (const auto& [kmer, tally] : local_heavy) {
      outgoing[owner_of(kmer)].push_back(TallyItem{kmer, tally});
      rank.stats().add_work();
    }
    const auto incoming = rank.alltoallv(outgoing);
    for (const auto& item : incoming) {
      rank.stats().add_work();
      table_->update(rank, item.kmer, item.tally, Map::Policy::kInsert);
    }
    // Heavy hitters are distinct k-mers the Bloom pass never saw; `incoming`
    // holds one item per (source rank, k-mer), so count distinct keys.
    std::unordered_set<KmerT, seq::KmerHashT> distinct_hh;
    for (const auto& item : incoming) distinct_hh.insert(item.kmer);
    distinct_per_rank_[static_cast<std::size_t>(rank.id())] +=
        distinct_hh.size();
    rank.barrier();
  }
}

void KmerAnalysis::finalize(pgas::Rank& rank) {
  if (team_.multiprocess()) {
    // Shards live in separate address spaces: sum them collectively.
    peak_table_entries_ = rank.allreduce_sum<std::uint64_t>(
        table_->local_size(rank.id()));
  } else if (rank.is_root()) {
    peak_table_entries_ = table_->size_unsafe();
  }
  rank.barrier();
  // Discard below-threshold (erroneous) k-mers.
  const std::uint32_t min_count = std::max<std::uint32_t>(
      config_.min_count, config_.use_bloom ? 2 : config_.min_count);
  table_->erase_local_if(rank, [&](const KmerT&, const KmerTally& tally) {
    return tally.count < min_count;
  });

  // Collapse tallies into UFX records + histogram.
  auto& out = ufx_[static_cast<std::size_t>(rank.id())];
  auto& hist = histogram_per_rank_[static_cast<std::size_t>(rank.id())];
  out.clear();
  out.reserve(table_->local_size(rank.id()));
  table_->for_each_local(rank, [&](const KmerT& km, KmerTally& tally) {
    out.emplace_back(km, summarize(tally, config_.min_ext_count));
    ++hist[std::min<std::uint32_t>(tally.count, 255)];
    rank.stats().add_work();
  });
  rank.barrier();

  // Global roll-ups on root.
  const std::uint64_t global_distinct =
      rank.allreduce_sum(distinct_per_rank_[static_cast<std::size_t>(rank.id())]);
  const std::uint64_t global_kept =
      rank.allreduce_sum<std::uint64_t>(out.size());
  if (rank.is_root() || team_.multiprocess()) {
    distinct_kmers_ = global_distinct;
    singleton_fraction_ =
        global_distinct == 0
            ? 0.0
            : 1.0 - static_cast<double>(global_kept) /
                        static_cast<double>(global_distinct);
  }
  if (team_.multiprocess()) {
    // Only the local row of histogram_per_rank_ is filled in this process;
    // gather the fixed-width rows and fold (every rank contributes exactly
    // 256 buckets, so the concatenation folds by index modulo 256).
    const auto all_hist = rank.allgatherv(hist);
    histogram_.assign(256, 0);
    for (std::size_t idx = 0; idx < all_hist.size(); ++idx)
      histogram_[idx % 256] += all_hist[idx];
  } else if (rank.is_root()) {
    histogram_.assign(256, 0);
    for (const auto& h : histogram_per_rank_)
      for (std::size_t c = 0; c < h.size(); ++c) histogram_[c] += h[c];
  }
  rank.barrier();
}

std::size_t KmerAnalysis::table_entries() const {
  return table_ ? table_->size_unsafe() : 0;
}

std::size_t KmerAnalysis::bloom_bytes() const {
  std::size_t total = 0;
  for (const auto& b : blooms_)
    if (b) total += b->size_bytes();
  return total;
}

}  // namespace hipmer::kcount
