#include "scaffold/splints_spans.hpp"

#include <algorithm>
#include <unordered_map>

namespace hipmer::scaffold {

namespace {

/// End through which the fragment exits the contig past this mate's 3'
/// side, and the outward distance from the mate's 5'-most coordinate.
struct Outward {
  std::uint8_t end;
  std::int32_t distance;
};

Outward outward_of(const align::ReadAlignment& a) {
  if (a.read_fwd) {
    return Outward{1, static_cast<std::int32_t>(a.contig_len) - a.contig_start};
  }
  return Outward{0, a.contig_end};
}

}  // namespace

std::vector<LinkObservation> locate_splints(
    pgas::Rank& rank, const std::vector<align::ReadAlignment>& my_alignments,
    int end_slack) {
  // Group alignments per read (library, pair, mate); the aligner emits them
  // contiguously but sorting keeps this robust to reordering. Libraries
  // number their pairs independently, so the pair id alone would merge
  // reads of different libraries that happen to share a rank.
  std::vector<const align::ReadAlignment*> sorted;
  sorted.reserve(my_alignments.size());
  for (const auto& a : my_alignments) sorted.push_back(&a);
  std::sort(sorted.begin(), sorted.end(),
            [](const align::ReadAlignment* x, const align::ReadAlignment* y) {
              if (x->library != y->library) return x->library < y->library;
              if (x->pair_id != y->pair_id) return x->pair_id < y->pair_id;
              if (x->mate != y->mate) return x->mate < y->mate;
              if (x->read_start != y->read_start)
                return x->read_start < y->read_start;
              if (x->contig_id != y->contig_id) return x->contig_id < y->contig_id;
              return x->contig_start < y->contig_start;
            });

  std::vector<LinkObservation> out;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j]->library == sorted[i]->library &&
           sorted[j]->pair_id == sorted[i]->pair_id &&
           sorted[j]->mate == sorted[i]->mate)
      ++j;
    // Adjacent alignment pairs in read order: A leaves contig a through its
    // outgoing end, B enters contig b through its incoming end, and the
    // read intervals abut or overlap.
    for (std::size_t x = i; x + 1 < j; ++x) {
      const auto& A = *sorted[x];
      const auto& B = *sorted[x + 1];
      rank.stats().add_work();
      if (A.contig_id == B.contig_id) continue;
      // A's outgoing end in read direction.
      const bool a_exits = A.read_fwd
                               ? A.touches_contig_end(end_slack)
                               : A.touches_contig_start(end_slack);
      const bool b_enters = B.read_fwd
                                ? B.touches_contig_start(end_slack)
                                : B.touches_contig_end(end_slack);
      if (!a_exits || !b_enters) continue;
      // The read must cover both contigs contiguously (allow a couple of
      // unaligned bases from low-quality boundaries).
      if (B.read_start > A.read_end + 2) continue;

      LinkObservation obs;
      obs.a = ContigEnd{A.contig_id, static_cast<std::uint8_t>(A.read_fwd ? 1 : 0)};
      obs.b = ContigEnd{B.contig_id, static_cast<std::uint8_t>(B.read_fwd ? 0 : 1)};
      // Contigs overlap by the doubly-aligned read interval.
      obs.gap = static_cast<float>(B.read_start - A.read_end);
      obs.is_splint = true;
      out.push_back(obs);
    }
    i = j;
  }
  return out;
}

std::vector<LinkObservation> locate_spans(
    pgas::Rank& rank, const std::vector<align::ReadAlignment>& my_alignments,
    const std::vector<InsertSizeEstimate>& inserts, double full_fraction) {
  // Exchange alignments so both mates of a pair meet on one rank.
  const auto p = static_cast<std::uint64_t>(rank.nranks());
  std::vector<std::vector<align::ReadAlignment>> outgoing(
      static_cast<std::size_t>(rank.nranks()));
  for (const auto& a : my_alignments) {
    if (a.aligned_len() <
        static_cast<std::int32_t>(full_fraction * a.read_len))
      continue;  // only confidently placed mates witness spans
    outgoing[static_cast<std::size_t>(a.pair_id % p)].push_back(a);
    rank.stats().add_work();
  }
  const auto incoming = rank.alltoallv(outgoing);

  struct PairBest {
    align::ReadAlignment mate[2];
    bool have[2] = {false, false};
    bool ambiguous[2] = {false, false};
  };
  // Pair identity must include the library: libraries number their pairs
  // independently, and mixing a pe pair with the same-id mp pair would both
  // fabricate spans and falsely mark mates ambiguous.
  auto pair_key = [](const align::ReadAlignment& a) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.library))
            << 48) |
           (a.pair_id & ((std::uint64_t{1} << 48) - 1));
  };
  std::unordered_map<std::uint64_t, PairBest> pairs;
  pairs.reserve(incoming.size() / 2 + 1);
  // Representative selection uses a total order on alignments so the
  // outcome is independent of arrival order; equal-score placements on
  // different contigs mark the mate ambiguous regardless of which is kept.
  auto prefer = [](const align::ReadAlignment& a,
                   const align::ReadAlignment& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
    return a.contig_start < b.contig_start;
  };
  for (const auto& a : incoming) {
    auto& pb = pairs[pair_key(a)];
    const auto m = static_cast<std::size_t>(a.mate);
    if (!pb.have[m]) {
      pb.mate[m] = a;
      pb.have[m] = true;
    } else if (a.score > pb.mate[m].score) {
      pb.mate[m] = a;
      pb.ambiguous[m] = false;
    } else if (a.score == pb.mate[m].score) {
      if (a.contig_id != pb.mate[m].contig_id) pb.ambiguous[m] = true;
      if (prefer(a, pb.mate[m])) pb.mate[m] = a;
    }
    rank.stats().add_work();
  }

  std::vector<LinkObservation> out;
  for (const auto& [pair_id, pb] : pairs) {
    if (!pb.have[0] || !pb.have[1]) continue;
    if (pb.ambiguous[0] || pb.ambiguous[1]) continue;
    const auto& a = pb.mate[0];
    const auto& b = pb.mate[1];
    if (a.contig_id == b.contig_id) continue;
    const auto lib = static_cast<std::size_t>(a.library);
    if (lib >= inserts.size() || inserts[lib].samples == 0) continue;
    const auto& ins = inserts[lib];

    const Outward oa = outward_of(a);
    const Outward ob = outward_of(b);
    // A mate buried deeper than insert + 3 sigma cannot witness this gap.
    const double reach = ins.mean + 3.0 * ins.stddev;
    if (oa.distance > reach || ob.distance > reach) continue;
    const double gap =
        ins.mean - static_cast<double>(oa.distance) - static_cast<double>(ob.distance);

    LinkObservation obs;
    obs.a = ContigEnd{a.contig_id, oa.end};
    obs.b = ContigEnd{b.contig_id, ob.end};
    obs.gap = static_cast<float>(gap);
    obs.is_splint = false;
    out.push_back(obs);
    rank.stats().add_work();
  }
  return out;
}

}  // namespace hipmer::scaffold
