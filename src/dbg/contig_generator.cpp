#include "dbg/contig_generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "dbg/contig_wire.hpp"
#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "util/hash.hpp"

namespace hipmer::dbg {

using seq::KmerT;

namespace {

/// Side code of a mutual unique extension: a walk continues through it.
/// Every other side ends a chain with its terminal code ('F', 'N', 'X').
constexpr char kLink = 'L';

/// A k-mer's extension pair in its own frame, given whether that frame is
/// the canonical one.
seq::ExtPair ext_in(bool canonical, const kcount::KmerSummary& s) {
  return canonical ? s.ext() : seq::flip(s.ext());
}

/// `x`'s right neighbor through base extension `e`.
KmerT right_neighbor(const KmerT& x, char e) {
  return x.shifted_left(seq::base_to_code(e));
}

/// How `x`'s right side ends once its neighbor `next` (canonical form
/// `next_canon`) has been read (`next_summary` null when absent): a link
/// when `next` extends back to `x` with a unique base, 'N' when it does not
/// (we stand in front of a fork), 'X' when the neighbor is missing.
char side_code(const KmerT& x, const KmerT& next, const KmerT& next_canon,
               const kcount::KmerSummary* next_summary) {
  if (next_summary == nullptr) return seq::kExtNone;
  return ext_in(next == next_canon, *next_summary).left ==
                 seq::code_to_base(x.first_base())
             ? kLink
             : 'N';
}

/// The terminal a walk standing on `x` (right extension `e`) records for a
/// right side that ends with `code`: 'F' names x itself as the junction,
/// 'N' the fork neighbor.
TermInfo terminal(const KmerT& x, char e, char code) {
  TermInfo term;
  term.code = code;
  if (code == 'F') {
    term.junction = x.canonical();
    term.has_junction = true;
  } else if (code == 'N') {
    term.junction = right_neighbor(x, e).canonical();
    term.has_junction = true;
  }
  return term;
}

/// Package a walked chain in canonical orientation; `left`/`right`
/// describe `chain`'s ends as given and swap if it is reverse-complemented.
Contig make_contig(std::string chain, const TermInfo& left,
                   const TermInfo& right, double depth_sum,
                   std::size_t kmers) {
  Contig contig;
  contig.avg_depth = depth_sum / static_cast<double>(kmers);
  std::string rc = seq::revcomp(chain);
  if (rc < chain) {
    contig.seq = std::move(rc);
    contig.left = right;
    contig.right = left;
  } else {
    contig.seq = std::move(chain);
    contig.left = left;
    contig.right = right;
  }
  return contig;
}

}  // namespace

ContigGenerator::ContigGenerator(pgas::ThreadTeam& team, ContigGenConfig config,
                                 std::size_t expected_kmers)
    : team_(team),
      config_(config),
      contigs_(static_cast<std::size_t>(team.nranks())),
      lookups_(static_cast<std::size_t>(team.nranks())) {
  assert(config_.k % 2 == 1 &&
         "k must be odd so no k-mer equals its reverse complement");
  Map::Config mc;
  mc.global_capacity = std::max<std::size_t>(1024, expected_kmers);
  mc.flush_threshold = config_.flush_threshold;
  map_ = std::make_unique<Map>(team, mc);
  map_->set_name("dbg.graph");
}

ContigGenerator::~ContigGenerator() = default;

void ContigGenerator::set_oracle(const OraclePartition* oracle) {
  oracle_ = oracle;
  if (oracle_ != nullptr) {
    map_->set_rank_mapper(
        [oracle](std::uint64_t h) { return oracle->rank_of(h); });
  }
}

void ContigGenerator::build_graph(
    pgas::Rank& rank,
    const std::vector<std::pair<KmerT, kcount::KmerSummary>>& local_ufx) {
  for (const auto& [kmer, summary] : local_ufx)
    map_->update_buffered(rank, kmer, summary);
  rank.stats().add_work(local_ufx.size());
  map_->flush(rank);
  rank.barrier();
}

void ContigGenerator::count_lookup(pgas::Rank& rank, const KmerT& canon) {
  auto& stats = lookups_[static_cast<std::size_t>(rank.id())];
  const auto owner = static_cast<int>(map_->owner_of(canon));
  if (owner == rank.id()) {
    ++stats.local;
  } else if (rank.topology().same_node(owner, rank.id())) {
    ++stats.onnode;
  } else {
    ++stats.offnode;
  }
}

ContigGenerator::WalkEnd ContigGenerator::walk(pgas::Rank& rank,
                                               std::string& chain,
                                               kcount::KmerSummary summary,
                                               double& depth_sum,
                                               std::size_t& kmers,
                                               const KmerT* bound) {
  const KmerT start = KmerT::from_string(std::string_view(chain).substr(
      chain.size() - static_cast<std::size_t>(config_.k)));
  KmerT cur = start;
  KmerT cur_canon = start.canonical();
  WalkEnd end;
  end.last = cur_canon;
  end.before_last = cur_canon;
  while (true) {
    const char e = ext_in(cur == cur_canon, summary).right;
    if (e == seq::kExtFork || e == seq::kExtNone) {
      end.term = terminal(cur, e, e);
      return end;
    }
    const KmerT next = right_neighbor(cur, e);
    const KmerT next_canon = next.canonical();
    count_lookup(rank, next_canon);
    rank.stats().add_work();
    const auto next_summary = map_->find(rank, next_canon);
    const char code = side_code(cur, next, next_canon,
                                next_summary ? &*next_summary : nullptr);
    if (code != kLink) {
      end.term = terminal(cur, e, code);
      return end;
    }
    // Each side links at most once, so a walk can revisit only its start
    // (closing a pure cycle) or the frontier's own reverse complement (a
    // hairpin). Both end the chain as a re-entry.
    if (next == start || next_canon == cur_canon) {
      end.term.code = 'O';
      end.closed = next == start;
      return end;
    }
    if (bound != nullptr && next_canon < *bound) {
      end.below_bound = true;
      return end;
    }
    chain.push_back(e);
    end.before_last = cur_canon;
    end.last = next_canon;
    cur = next;
    cur_canon = next_canon;
    summary = *next_summary;
    depth_sum += summary.depth;
    ++kmers;
  }
}

void ContigGenerator::sweep_cycles(
    pgas::Rank& rank,
    const std::vector<std::pair<KmerT, kcount::KmerSummary>>& local) {
  auto& my_contigs = contigs_[static_cast<std::size_t>(rank.id())];
  // Mark every k-mer the emitted chains cover at its owner.
  std::vector<std::vector<KmerT>> covered(
      static_cast<std::size_t>(rank.nranks()));
  for (const auto& contig : my_contigs) {
    for (seq::KmerScanner<KmerT::kMaxK> it(contig.seq, config_.k); !it.done();
         it.next())
      covered[map_->owner_of(it.canonical())].push_back(it.canonical());
  }
  auto seen = rank.alltoallv(covered);
  std::sort(seen.begin(), seen.end());

  // Every uncovered local k-mer lies on a chain without ends. Walk it from
  // each such k-mer, giving up at any smaller k-mer, so only the walk from
  // the chain's smallest k-mer completes.
  for (const auto& [kmer, summary] : local) {
    if (std::binary_search(seen.begin(), seen.end(), kmer)) continue;
    std::string chain = kmer.to_string();
    double depth_sum = summary.depth;
    std::size_t kmers = 1;
    const WalkEnd ahead = walk(rank, chain, summary, depth_sum, kmers, &kmer);
    if (ahead.below_bound) continue;
    // A cycle closes on its start; a hairpin-closed chain still extends
    // back from the start.
    TermInfo behind = ahead.term;
    if (!ahead.closed) {
      chain = seq::revcomp(chain);
      const WalkEnd back = walk(rank, chain, summary, depth_sum, kmers, &kmer);
      if (back.below_bound) continue;
      behind = back.term;
    }
    my_contigs.push_back(
        make_contig(std::move(chain), ahead.term, behind, depth_sum, kmers));
  }
}

void ContigGenerator::traverse(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());
  lookups_[me] = LookupStats{};
  auto& my_contigs = contigs_[me];
  my_contigs.clear();

  // 1. Classify every side of every local k-mer. Side 1 is the k-mer's
  // right side; side 0, its left, is the right side of its reverse
  // complement, so both sides read the same way.
  std::vector<std::pair<KmerT, kcount::KmerSummary>> local;
  local.reserve(map_->local_size(rank.id()));
  map_->for_each_local(rank, [&](const KmerT& km, kcount::KmerSummary& s) {
    local.emplace_back(km, s);
  });
  auto frame = [&](std::size_t i, int side) {
    return side == 1 ? local[i].first : local[i].first.revcomp();
  };
  auto right_ext = [&](std::size_t i, int side) {
    return ext_in(side == 1, local[i].second).right;
  };
  std::vector<std::array<char, 2>> sides(local.size());
  auto classify = [&](const KmerT& key, const kcount::KmerSummary* summary,
                      std::uint64_t tag) {
    const std::size_t i = tag >> 1;
    const int side = static_cast<int>(tag & 1);
    const KmerT x = frame(i, side);
    sides[i][static_cast<std::size_t>(side)] =
        side_code(x, right_neighbor(x, right_ext(i, side)), key, summary);
  };
  for (std::size_t i = 0; i < local.size(); ++i) {
    for (int side = 0; side < 2; ++side) {
      const char e = right_ext(i, side);
      if (e == seq::kExtFork || e == seq::kExtNone) {
        sides[i][static_cast<std::size_t>(side)] = e;
      } else {
        map_->find_buffered(
            rank, right_neighbor(frame(i, side), e).canonical(),
            (i << 1) | static_cast<std::size_t>(side), classify);
      }
    }
  }
  map_->process_lookups(rank, classify);
  // The walks read through fine-grained find(): close the batched lookup
  // epoch first, since one epoch may not mix the two lookup paths.
  rank.barrier();

  auto side_term = [&](std::size_t i, int side) {
    return terminal(frame(i, side), right_ext(i, side),
                    sides[i][static_cast<std::size_t>(side)]);
  };

  // 2. Chain ends: a k-mer with a terminal side. A k-mer with two is a
  // whole chain and needs no walk. Ends walk in rounds: those whose inward
  // neighbor is local first (the locality phase), each phase split into
  // 2^kHashRoundBits rounds by the top bits of the mixed k-mer hash, so
  // that fewer chains are walked from both ends in the same round.
  constexpr int kHashRoundBits = 2;
  constexpr std::uint32_t kHashRounds = 1U << kHashRoundBits;
  auto round_of = [&](const KmerT& end, const KmerT& inward) {
    const bool local_first = map_->owner_of(inward) == map_->owner_of(end);
    return (local_first ? 0 : kHashRounds) +
           static_cast<std::uint32_t>(util::fmix64(map_->hash_of(end)) >>
                                      (64 - kHashRoundBits));
  };
  struct End {
    std::size_t i;
    int inward;
  };
  std::vector<std::vector<End>> rounds(2 * kHashRounds);
  std::uint64_t emitted_kmers = 0;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const bool left_link = sides[i][0] == kLink;
    const bool right_link = sides[i][1] == kLink;
    if (left_link && right_link) continue;
    if (!left_link && !right_link) {
      my_contigs.push_back(make_contig(local[i].first.to_string(),
                                       side_term(i, 0), side_term(i, 1),
                                       local[i].second.depth, 1));
      ++emitted_kmers;
      continue;
    }
    const int inward = right_link ? 1 : 0;
    const KmerT in =
        right_neighbor(frame(i, inward), right_ext(i, inward)).canonical();
    rounds[round_of(local[i].first, in)].push_back(End{i, inward});
  }

  // 3. Walk each end inward. A walk whose far end walks in a later round
  // emits the chain and marks that end done at its owner; within one round
  // the start that is <= the far end emits. A walk stopped by a hairpin
  // re-entry has no second walker and always emits.
  std::vector<KmerT> done;
  for (std::uint32_t round = 0; round < rounds.size(); ++round) {
    std::vector<std::vector<KmerT>> marks(
        static_cast<std::size_t>(rank.nranks()));
    for (const auto& end : rounds[round]) {
      const auto& [kmer, summary] = local[end.i];
      if (std::binary_search(done.begin(), done.end(), kmer)) continue;
      std::string chain = frame(end.i, end.inward).to_string();
      double depth_sum = summary.depth;
      std::size_t kmers = 1;
      const WalkEnd far = walk(rank, chain, summary, depth_sum, kmers);
      bool emit = far.term.code == 'O';
      if (!emit) {
        // A far end in an earlier round would have marked this one done.
        const auto far_round = round_of(far.last, far.before_last);
        assert(far_round >= round);
        emit = far_round > round || kmer <= far.last;
        if (far_round > round)
          marks[map_->owner_of(far.last)].push_back(far.last);
      }
      if (!emit) continue;
      emitted_kmers += kmers;
      my_contigs.push_back(make_contig(std::move(chain),
                                       side_term(end.i, 1 - end.inward),
                                       far.term, depth_sum, kmers));
    }
    const auto marked = rank.alltoallv(marks);
    done.insert(done.end(), marked.begin(), marked.end());
    std::sort(done.begin(), done.end());
  }

  // 4. Chains without ends are the only k-mers the walks miss. The
  // per-rank differences may wrap; their sum is exact.
  if (rank.allreduce_sum<std::uint64_t>(local.size() - emitted_kmers) != 0)
    sweep_cycles(rank, local);

  if (config_.min_contig_len > 0) {
    std::erase_if(my_contigs, [&](const Contig& contig) {
      return contig.seq.size() < config_.min_contig_len;
    });
  }

  // Deterministic renumbering: which rank emits which contig depends on
  // the partition, but downstream modules tie-break on contig ids, so ids
  // must be a pure function of the contig *set*. Redistribute each contig to
  // rank hash(seq) % P, sort within the rank by (hash, seq), and assign
  // dense ids by exclusive scan — identical for every schedule and every
  // rank count.
  {
    std::vector<std::vector<std::byte>> outgoing(
        static_cast<std::size_t>(rank.nranks()));
    for (const auto& contig : my_contigs) {
      const auto h = util::hash_string(contig.seq);
      // Range partition on the hash (not modulo): the concatenation of the
      // per-rank sorted shards is then globally sorted by (hash, seq), so
      // the assigned ids do not depend on the rank count.
      const auto owner = static_cast<std::size_t>(
          (static_cast<unsigned __int128>(h) *
           static_cast<unsigned __int128>(rank.nranks())) >>
          64);
      serialize_contig(outgoing[owner], contig);
      rank.stats().add_work();
    }
    my_contigs = deserialize_contigs(rank.alltoallv(outgoing));
    std::sort(my_contigs.begin(), my_contigs.end(),
              [](const Contig& a, const Contig& b) {
                const auto ha = util::hash_string(a.seq);
                const auto hb = util::hash_string(b.seq);
                if (ha != hb) return ha < hb;
                return a.seq < b.seq;
              });
  }
  const auto base = rank.exscan_sum<std::uint64_t>(my_contigs.size());
  for (std::size_t i = 0; i < my_contigs.size(); ++i)
    my_contigs[i].id = base + i;
  rank.barrier();
}

std::vector<Contig> ContigGenerator::all_contigs() const {
  std::vector<Contig> all;
  for (const auto& per_rank : contigs_)
    all.insert(all.end(), per_rank.begin(), per_rank.end());
  std::sort(all.begin(), all.end(),
            [](const Contig& a, const Contig& b) { return a.id < b.id; });
  return all;
}

}  // namespace hipmer::dbg
