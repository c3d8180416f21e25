#include "scaffold/depths.hpp"

#include <algorithm>

#include "seq/kmer_scanner.hpp"

namespace hipmer::scaffold {

DepthCalculator::DepthCalculator(pgas::ThreadTeam& team, int k,
                                 std::size_t expected_kmers,
                                 std::size_t flush_threshold)
    : k_(k) {
  CountMap::Config mc;
  mc.global_capacity = std::max<std::size_t>(1024, expected_kmers);
  mc.flush_threshold = flush_threshold;
  counts_ = std::make_unique<CountMap>(team, mc);
  counts_->set_name("scaffold.depth_counts");
}

std::vector<std::pair<std::uint64_t, double>> DepthCalculator::run(
    pgas::Rank& rank,
    const std::vector<std::pair<seq::KmerT, kcount::KmerSummary>>& local_ufx,
    const align::ContigStore& store) {
  // Phase 1: populate the k-mer -> count table (aggregating stores).
  for (const auto& [kmer, summary] : local_ufx)
    counts_->update_buffered(rank, kmer, summary.depth);
  rank.stats().add_work(local_ufx.size());
  counts_->flush(rank);
  rank.barrier();

  // Phase 2: pure reads — each rank sums the counts of its contigs' k-mers
  // through the batched lookup path (one aggregated message per owner
  // instead of one per k-mer). No read cache: contig k-mers are distinct,
  // so there is no reuse to exploit.
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> sums;
  std::vector<std::uint64_t> ns;
  std::uint64_t probes = 0;
  auto accumulate = [&sums](const seq::KmerT& /*key*/,
                            const std::uint32_t* count, std::uint64_t tag) {
    if (count != nullptr) sums[static_cast<std::size_t>(tag)] += *count;
  };
  store.for_each_local(rank, [&](std::uint64_t id, const dbg::Contig& contig) {
    const std::uint64_t ordinal = ids.size();
    ids.push_back(id);
    sums.push_back(0);
    ns.push_back(0);
    for (seq::KmerScanner<seq::KmerT::kMaxK> it(contig.seq, k_); !it.done();
         it.next()) {
      counts_->find_buffered(rank, it.canonical(), ordinal, accumulate);
      ++ns[ordinal];
      ++probes;
    }
  });
  rank.stats().add_work(probes);
  counts_->process_lookups(rank, accumulate);

  std::vector<std::pair<std::uint64_t, double>> depths;
  depths.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    depths.emplace_back(ids[i], ns[i] == 0 ? 0.0
                                           : static_cast<double>(sums[i]) /
                                                 static_cast<double>(ns[i]));
  }
  rank.barrier();
  return depths;
}

}  // namespace hipmer::scaffold
