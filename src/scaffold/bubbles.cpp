#include "scaffold/bubbles.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "dbg/contig_wire.hpp"
#include "seq/dna.hpp"
#include "util/hash.hpp"

namespace hipmer::scaffold {

namespace {

/// A directed merge edge between two contig ends (replicated; bubble counts
/// are tiny relative to the k-mer graph).
struct MergeEdge {
  std::uint32_t from_contig;
  std::uint8_t from_end;
  std::uint32_t to_contig;
  std::uint8_t to_end;
};

std::uint64_t end_key(std::uint32_t contig, std::uint8_t end) {
  return (static_cast<std::uint64_t>(contig) << 1) | end;
}

/// Contig oriented for chain stitching.
std::string oriented_seq(const dbg::Contig& contig, bool reversed) {
  return reversed ? seq::revcomp(contig.seq) : contig.seq;
}

dbg::TermInfo oriented_term(const dbg::Contig& contig, bool reversed,
                            bool left_side) {
  if (!reversed) return left_side ? contig.left : contig.right;
  return left_side ? contig.right : contig.left;
}

}  // namespace

BubbleMerger::BubbleMerger(pgas::ThreadTeam& team, BubbleConfig config,
                           std::size_t expected_contigs)
    : team_(team), config_(config) {
  JunctionMap::Config jc;
  jc.global_capacity = std::max<std::size_t>(1024, expected_contigs * 2);
  jc.flush_threshold = config.flush_threshold;
  junctions_ = std::make_unique<JunctionMap>(team, jc);
  junctions_->set_name("scaffold.junctions");
}

BubbleMerger::~BubbleMerger() = default;

std::vector<dbg::Contig> BubbleMerger::run(pgas::Rank& rank,
                                           const align::ContigStore& store) {
  // --- 1. Junction map: every junction-bearing contig end registers. ---
  store.for_each_local(rank, [&](std::uint64_t id, const dbg::Contig& contig) {
    for (int end = 0; end < 2; ++end) {
      const dbg::TermInfo& term = end == 0 ? contig.left : contig.right;
      if (!term.has_junction) continue;
      JunctionGroup group{};
      group.count = 1;
      group.entries[0] = JunctionEntry{static_cast<std::uint32_t>(id),
                                       static_cast<std::uint8_t>(end),
                                       term.code};
      junctions_->update_buffered(rank, term.junction, group);
      rank.stats().add_work();
    }
  });
  junctions_->flush(rank);
  rank.barrier();

  // --- 2. Bubble resolution on local junction buckets. ---
  std::vector<MergeEdge> my_edges;
  std::vector<std::uint32_t> my_dead;
  junctions_->for_each_local(rank, [&](const seq::KmerT&, JunctionGroup& group) {
    rank.stats().add_work();
    if (group.overflow != 0 || group.count != 3) return;
    // Clean bubble: one fork flank + two neighbor-terminated paths.
    const JunctionEntry* flank = nullptr;
    const JunctionEntry* paths[2] = {nullptr, nullptr};
    int npaths = 0;
    for (int i = 0; i < group.count; ++i) {
      const auto& e = group.entries[i];
      if (e.code == 'F' && flank == nullptr) {
        flank = &e;
      } else if (e.code == 'N' && npaths < 2) {
        paths[npaths++] = &e;
      } else {
        return;  // anything else: not a clean bubble
      }
    }
    if (flank == nullptr || npaths != 2) return;
    if (paths[0]->contig == paths[1]->contig ||
        paths[0]->contig == flank->contig ||
        paths[1]->contig == flank->contig)
      return;

    // Copy each path's length and depth out of its record before the next
    // read can overwrite the cache slot. Depths compare at float precision,
    // the width a remote record travels at.
    const dbg::Contig& u = store.read(rank, paths[0]->contig);
    const std::size_t u_len = u.seq.size();
    const auto u_depth = static_cast<float>(u.avg_depth);
    const dbg::Contig& v = store.read(rank, paths[1]->contig);
    const std::size_t v_len = v.seq.size();
    const auto v_depth = static_cast<float>(v.avg_depth);
    const double len_skew =
        std::abs(static_cast<double>(u_len) - static_cast<double>(v_len)) /
        std::max<double>(1.0, static_cast<double>(std::max(u_len, v_len)));
    if (len_skew > config_.max_length_skew) return;

    // Winner: deeper path; deterministic tie-break by id — both junctions
    // of the bubble reach the same verdict independently.
    const JunctionEntry* winner = paths[0];
    const JunctionEntry* loser = paths[1];
    if (v_depth > u_depth ||
        (v_depth == u_depth && paths[1]->contig < paths[0]->contig)) {
      std::swap(winner, loser);
    }
    my_edges.push_back(MergeEdge{flank->contig, flank->end, winner->contig,
                                 winner->end});
    my_dead.push_back(loser->contig);
  });

  // Replicate the (tiny) edge list and dead set.
  const auto all_edges = rank.allgatherv(my_edges);
  const auto all_dead = rank.allgatherv(my_dead);
  std::unordered_set<std::uint32_t> dead(all_dead.begin(), all_dead.end());
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint8_t>> edges;
  edges.reserve(all_edges.size() * 2);
  std::uint64_t merged_pairs = 0;
  for (const auto& e : all_edges) {
    edges[end_key(e.from_contig, e.from_end)] = {e.to_contig, e.to_end};
    edges[end_key(e.to_contig, e.to_end)] = {e.from_contig, e.from_end};
    ++merged_pairs;
  }
  if (rank.is_root()) bubbles_merged_ = merged_pairs;

  // --- 3. Chain components, built from the replicated edges. ---
  // Each contig end carries at most one merge edge, so a component is a
  // path or a ring. A path starts at its smaller end id with that end's
  // free side leftmost; a ring starts at its smallest id, unreversed. A
  // component is emitted by the owner of its smallest surviving contig.
  struct ChainLink {
    std::uint32_t contig;
    bool reversed;
  };
  auto has_edge = [&](std::uint32_t contig, std::uint8_t end) {
    return edges.contains(end_key(contig, end));
  };

  std::vector<std::vector<ChainLink>> my_chains;
  std::unordered_set<std::uint32_t> visited;
  for (const auto& e : all_edges) {
    if (visited.contains(e.from_contig)) continue;
    // Collect the component.
    std::vector<std::uint32_t> members{e.from_contig};
    visited.insert(e.from_contig);
    for (std::size_t m = 0; m < members.size(); ++m) {
      for (std::uint8_t end = 0; end < 2; ++end) {
        const auto it = edges.find(end_key(members[m], end));
        if (it != edges.end() && visited.insert(it->second.first).second)
          members.push_back(it->second.first);
      }
    }
    std::uint32_t first_alive = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t first_end = std::numeric_limits<std::uint32_t>::max();
    for (const auto m : members) {
      if (!dead.contains(m)) first_alive = std::min(first_alive, m);
      if (!has_edge(m, 0) || !has_edge(m, 1))
        first_end = std::min(first_end, m);
    }
    if (first_alive == std::numeric_limits<std::uint32_t>::max() ||
        store.owner_of(first_alive) != rank.id())
      continue;
    const bool ring = first_end == std::numeric_limits<std::uint32_t>::max();
    const std::uint32_t head =
        ring ? *std::min_element(members.begin(), members.end()) : first_end;
    std::vector<ChainLink> chain{ChainLink{head, !ring && has_edge(head, 0)}};
    // Extend rightward through merge edges to a free end, or back to the
    // head of a ring.
    while (true) {
      rank.stats().add_work();
      const ChainLink& tail = chain.back();
      const auto it = edges.find(end_key(
          tail.contig, static_cast<std::uint8_t>(tail.reversed ? 0 : 1)));
      if (it == edges.end() || it->second.first == head) break;
      chain.push_back(ChainLink{it->second.first, it->second.second == 1});
    }
    my_chains.push_back(std::move(chain));
  }
  // Surviving contigs without merge edges pass through as one-link chains.
  store.for_each_local(rank, [&](std::uint64_t id, const dbg::Contig&) {
    const auto contig = static_cast<std::uint32_t>(id);
    if (!dead.contains(contig) && !visited.contains(contig))
      my_chains.push_back({ChainLink{contig, false}});
  });

  // --- 4. Compress chains to sequences. ---
  std::vector<dbg::Contig> merged;
  merged.reserve(my_chains.size());
  for (const auto& chain : my_chains) {
    std::vector<dbg::Contig> records;
    records.reserve(chain.size());
    for (const auto& link : chain)
      records.push_back(store.read(rank, link.contig));

    dbg::Contig out;
    out.seq = oriented_seq(records[0], chain[0].reversed);
    double depth_weight =
        records[0].avg_depth * static_cast<double>(records[0].seq.size());
    bool stitched = true;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const std::string next = oriented_seq(records[i], chain[i].reversed);
      const auto overlap = static_cast<std::size_t>(config_.k - 1);
      // Contigs at a junction share k-1 bases: verify before trimming.
      if (next.size() <= overlap ||
          out.seq.size() < overlap ||
          out.seq.compare(out.seq.size() - overlap, overlap, next, 0,
                          overlap) != 0) {
        stitched = false;
        break;
      }
      out.seq.append(next, overlap, next.size() - overlap);
      depth_weight +=
          records[i].avg_depth * static_cast<double>(records[i].seq.size());
      rank.stats().add_work();
    }
    if (!stitched) {
      // Defensive: emit members unmerged rather than fabricate sequence.
      for (std::size_t i = 0; i < chain.size(); ++i)
        merged.push_back(std::move(records[i]));
      continue;
    }
    out.avg_depth = depth_weight / static_cast<double>(out.seq.size());
    out.left = oriented_term(records.front(), chain.front().reversed, true);
    out.right = oriented_term(records.back(), chain.back().reversed, false);
    // Canonical orientation, matching the traversal's convention.
    std::string rc = seq::revcomp(out.seq);
    if (rc < out.seq) {
      out.seq = std::move(rc);
      std::swap(out.left, out.right);
    }
    merged.push_back(std::move(out));
  }

  // Deterministic dense ids (same scheme as the traversal's renumbering):
  // redistribute by sequence hash, sort, exclusive-scan. Which rank emits
  // which chain depends on the rank count, and downstream tie-breaks key on
  // ids.
  {
    std::vector<std::vector<std::byte>> outgoing(
        static_cast<std::size_t>(rank.nranks()));
    for (const auto& contig : merged) {
      const auto h = util::hash_string(contig.seq);
      // Range partition on the hash (not modulo): the concatenation of the
      // per-rank sorted shards is then globally sorted by (hash, seq), so
      // the assigned ids do not depend on the rank count.
      const auto owner = static_cast<std::size_t>(
          (static_cast<unsigned __int128>(h) *
           static_cast<unsigned __int128>(rank.nranks())) >>
          64);
      dbg::serialize_contig(outgoing[owner], contig);
    }
    merged = dbg::deserialize_contigs(rank.alltoallv(outgoing));
    std::sort(merged.begin(), merged.end(),
              [](const dbg::Contig& a, const dbg::Contig& b) {
                const auto ha = util::hash_string(a.seq);
                const auto hb = util::hash_string(b.seq);
                if (ha != hb) return ha < hb;
                return a.seq < b.seq;
              });
  }
  const auto base = rank.exscan_sum<std::uint64_t>(merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) merged[i].id = base + i;
  rank.barrier();
  return merged;
}

}  // namespace hipmer::scaffold
