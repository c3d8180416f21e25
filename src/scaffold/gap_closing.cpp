#include "scaffold/gap_closing.hpp"

#include <algorithm>
#include <unordered_map>

#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/read_name.hpp"
#include "seq/types.hpp"

namespace hipmer::scaffold {

namespace {

std::uint64_t end_key(std::uint32_t contig, std::uint8_t end) {
  return (static_cast<std::uint64_t>(contig) << 1) | end;
}

}  // namespace

// wire-schema: gap_read writer
void put_gap_read(io::wire::Writer& w, std::uint64_t gap_id,
                  std::string_view seq) {
  w.put_u64(gap_id);
  w.put_bytes(seq);
}

// wire-schema: gap_read reader
GapRead get_gap_read_checked(io::wire::Reader& r) {
  GapRead read;
  read.gap_id = r.get_u64_checked("gap read id");
  read.seq = r.get_bytes_checked("gap read seq");
  return read;
}

std::vector<GapSpec> enumerate_gaps(const std::vector<ScaffoldRecord>& scaffolds,
                                    double min_gap) {
  std::vector<GapSpec> gaps;
  for (const auto& scaffold : scaffolds) {
    for (std::size_t i = 0; i + 1 < scaffold.placements.size(); ++i) {
      const auto& left = scaffold.placements[i];
      const auto& right = scaffold.placements[i + 1];
      if (left.gap_after < min_gap) continue;  // overlaps close by merging
      GapSpec gap;
      gap.gap_id = gaps.size();
      gap.scaffold_id = scaffold.id;
      gap.junction = static_cast<std::uint32_t>(i);
      gap.left_contig = left.contig;
      gap.left_reversed = left.reversed;
      gap.right_contig = right.contig;
      gap.right_reversed = right.reversed;
      gap.gap_estimate = static_cast<float>(left.gap_after);
      gaps.push_back(gap);
    }
  }
  return gaps;
}

GapCloser::GapCloser(pgas::ThreadTeam& team, GapClosingConfig config)
    : team_(team), config_(config) {}

std::vector<Closure> GapCloser::run(
    pgas::Rank& rank, const std::vector<GapSpec>& gaps,
    const align::ContigStore& store,
    const std::vector<seq::ReadSetView>& my_reads_by_library,
    const std::vector<align::ReadAlignment>& my_alignments,
    const std::vector<InsertSizeEstimate>& inserts) {
  const auto p = static_cast<std::uint64_t>(rank.nranks());
  // Gap ownership: round-robin by id, or the left contig's owner when the
  // shuffle has co-located aligned reads with their contigs.
  auto gap_owner = [&](const GapSpec& gap) {
    return config_.locality_aware_owners
               ? static_cast<std::uint64_t>(gap.left_contig) % p
               : gap.gap_id % p;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> owner_of_gap;
  owner_of_gap.reserve(gaps.size());
  for (const auto& gap : gaps) owner_of_gap[gap.gap_id] = gap_owner(gap);

  // Gap-facing contig ends -> gap id (replicated, built from replicated
  // scaffolds).
  std::unordered_map<std::uint64_t, std::uint64_t> gap_of_end;
  gap_of_end.reserve(gaps.size() * 2);
  for (const auto& gap : gaps) {
    gap_of_end[end_key(gap.left_contig, gap.left_reversed ? 0 : 1)] =
        gap.gap_id;
    gap_of_end[end_key(gap.right_contig, gap.right_reversed ? 1 : 0)] =
        gap.gap_id;
  }

  // Index this rank's reads by (library, pair, mate) for mate projection —
  // pair ids repeat across libraries.
  auto read_key = [](int library, std::uint64_t pair_id, int mate) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(library))
            << 48) |
           ((pair_id & ((std::uint64_t{1} << 47) - 1)) << 1) |
           static_cast<std::uint64_t>(mate);
  };
  struct ReadRef {
    std::uint32_t lib;
    std::uint32_t idx;
  };
  std::unordered_map<std::uint64_t, ReadRef> read_by_key;
  for (std::size_t lib = 0; lib < my_reads_by_library.size(); ++lib) {
    const seq::ReadStore& set = my_reads_by_library[lib];
    for (std::size_t i = 0; i < set.size(); ++i) {
      std::uint64_t pair_id = 0;
      int mate = 0;
      if (seq::parse_read_name(set.name(i), pair_id, mate))
        read_by_key[read_key(static_cast<int>(lib), pair_id, mate)] =
            ReadRef{static_cast<std::uint32_t>(lib),
                    static_cast<std::uint32_t>(i)};
    }
  }
  std::string seq_scratch;
  auto seq_of = [&](const ReadRef& ref) {
    return my_reads_by_library[ref.lib].get().seq(ref.idx, seq_scratch);
  };

  // --- Project reads into gaps ("the alignments are processed in parallel
  // and projected into the gaps"). ---
  std::vector<std::vector<std::byte>> outgoing(static_cast<std::size_t>(p));
  auto send_read = [&](std::uint64_t gap_id, std::string_view read_seq) {
    io::wire::Writer w(
        outgoing[static_cast<std::size_t>(owner_of_gap.at(gap_id))]);
    put_gap_read(w, gap_id, read_seq);
  };
  for (const auto& a : my_alignments) {
    rank.stats().add_work();
    const auto kit = read_by_key.find(read_key(a.library, a.pair_id, a.mate));

    // (1) Overhang: the read extends past a gap-facing contig end.
    if (kit != read_by_key.end()) {
      const bool hangs_right = a.read_fwd
                                   ? (a.read_end < a.read_len &&
                                      a.touches_contig_end(config_.end_slack))
                                   : (a.read_start > 0 &&
                                      a.touches_contig_end(config_.end_slack));
      const bool hangs_left = a.read_fwd
                                  ? (a.read_start > 0 &&
                                     a.touches_contig_start(config_.end_slack))
                                  : (a.read_end < a.read_len &&
                                     a.touches_contig_start(config_.end_slack));
      if (hangs_right) {
        auto it = gap_of_end.find(end_key(a.contig_id, 1));
        if (it != gap_of_end.end()) send_read(it->second, seq_of(kit->second));
      }
      if (hangs_left) {
        auto it = gap_of_end.find(end_key(a.contig_id, 0));
        if (it != gap_of_end.end()) send_read(it->second, seq_of(kit->second));
      }
    }

    // (2) Mate projection: this mate anchors pointing at a gap within
    // insert reach; its partner likely lies inside the gap.
    const auto lib = static_cast<std::size_t>(a.library);
    if (lib < inserts.size() && inserts[lib].samples > 0) {
      const auto& ins = inserts[lib];
      const std::uint8_t exit_end = a.read_fwd ? 1 : 0;
      const std::int32_t outward =
          a.read_fwd ? static_cast<std::int32_t>(a.contig_len) - a.contig_start
                     : a.contig_end;
      if (outward <=
          static_cast<std::int32_t>(ins.mean + config_.reach_sigma * ins.stddev)) {
        auto it = gap_of_end.find(end_key(a.contig_id, exit_end));
        if (it != gap_of_end.end()) {
          auto rit =
              read_by_key.find(read_key(a.library, a.pair_id, 1 - a.mate));
          if (rit != read_by_key.end())
            send_read(it->second, seq_of(rit->second));
        }
      }
    }
  }
  const auto incoming = rank.alltoallv(outgoing);

  // Collect reads per owned gap.
  std::unordered_map<std::uint64_t, std::vector<std::string>> gap_reads;
  for (io::wire::Reader in(incoming); !in.done();) {
    GapRead read = get_gap_read_checked(in);
    gap_reads[read.gap_id].push_back(std::move(read.seq));
  }

  // Canonical read order per gap: closure methods scan reads linearly
  // (spanning takes the first hit), so sorting + deduping makes the result
  // a function of the read *set*, independent of arrival order. The memory
  // cap truncates only after that, so what survives it is equally
  // order-independent (read redistribution must not change closures).
  for (auto& [gap_id, bucket] : gap_reads) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    if (bucket.size() > config_.max_reads_per_gap)
      bucket.resize(config_.max_reads_per_gap);
  }

  // --- Close owned gaps (embarrassingly parallel). ---
  std::vector<Closure> closures;
  for (const auto& gap : gaps) {
    if (owner_of_gap.at(gap.gap_id) != static_cast<std::uint64_t>(rank.id()))
      continue;
    static const std::vector<std::string> kNone;
    auto it = gap_reads.find(gap.gap_id);
    closures.push_back(
        close_gap(rank, gap, it == gap_reads.end() ? kNone : it->second, store));
  }
  rank.barrier();
  return closures;
}

bool GapCloser::try_spanning(const std::string& flank_left,
                             const std::string& flank_right,
                             const std::vector<std::string>& reads,
                             std::string& fill) const {
  const auto anchor = static_cast<std::size_t>(config_.anchor);
  if (flank_left.size() < anchor || flank_right.size() < anchor) return false;
  const std::string left_anchor = flank_left.substr(flank_left.size() - anchor);
  const std::string right_anchor = flank_right.substr(0, anchor);
  for (const auto& read : reads) {
    for (const std::string& r : {read, seq::revcomp(read)}) {
      const std::size_t i = r.find(left_anchor);
      if (i == std::string::npos) continue;
      const std::size_t after = i + anchor;
      const std::size_t j = r.find(right_anchor, after);
      if (j == std::string::npos) continue;
      fill = r.substr(after, j - after);
      return true;
    }
  }
  return false;
}

bool GapCloser::walk(const std::vector<std::string>& reads,
                     const std::string& flank_left,
                     const std::string& flank_right, int walk_k,
                     std::size_t max_len, std::string& bridge) const {
  using seq::KmerT;
  const auto kw = static_cast<std::size_t>(walk_k);
  if (flank_left.size() < kw || flank_right.size() < kw) return false;

  // Local mini k-mer table over the gap reads plus the flanks themselves.
  struct Ext {
    std::uint16_t left[4] = {0, 0, 0, 0};
    std::uint16_t right[4] = {0, 0, 0, 0};
  };
  std::unordered_map<KmerT, Ext, seq::KmerHashT> table;
  auto add_seq = [&](std::string_view s) {
    for (seq::KmerScanner<KmerT::kMaxK> it(s, walk_k); !it.done(); it.next()) {
      auto& ext = table[it.canonical()];
      const std::size_t i = it.position();
      const bool flipped = it.is_flipped();
      if (i > 0) {
        const auto code = seq::base_to_code(s[i - 1]);
        if (code != seq::kBaseInvalid) {
          if (!flipped) ++ext.left[code];
          else ++ext.right[seq::complement_code(code)];
        }
      }
      const std::size_t ri = i + kw;
      if (ri < s.size()) {
        const auto code = seq::base_to_code(s[ri]);
        if (code != seq::kBaseInvalid) {
          if (!flipped) ++ext.right[code];
          else ++ext.left[seq::complement_code(code)];
        }
      }
    }
  };
  for (const auto& read : reads) add_seq(read);
  add_seq(flank_left);
  add_seq(flank_right);

  const std::string target = flank_right.substr(0, kw);
  bridge = flank_left.substr(flank_left.size() - kw);
  KmerT cur = KmerT::from_string(bridge);
  while (bridge.size() < max_len) {
    if (bridge.compare(bridge.size() - kw, kw, target) == 0) return true;
    const bool flipped = !cur.is_canonical();
    auto it = table.find(flipped ? cur.revcomp() : cur);
    if (it == table.end()) return false;
    // Unique extension in the walking direction.
    const std::uint16_t* counts = flipped ? it->second.left : it->second.right;
    int chosen = -1;
    for (int b = 0; b < 4; ++b) {
      if (counts[b] == 0) continue;
      if (chosen >= 0) return false;  // fork: ambiguous, stop
      chosen = b;
    }
    if (chosen < 0) return false;  // dead end
    const auto code = static_cast<std::uint8_t>(
        flipped ? seq::complement_code(static_cast<std::uint8_t>(chosen))
                : static_cast<std::uint8_t>(chosen));
    bridge.push_back(seq::code_to_base(code));
    cur = cur.shifted_left(code);
  }
  return false;
}

Closure GapCloser::close_gap(pgas::Rank& rank, const GapSpec& gap,
                             const std::vector<std::string>& reads,
                             const align::ContigStore& store) const {
  Closure closure;
  closure.gap_id = gap.gap_id;

  // Oriented flank sequences (scaffold left-to-right frame).
  const std::size_t flank_len =
      std::max<std::size_t>(static_cast<std::size_t>(2 * config_.max_walk_k), 128);
  std::string left_seq = store.read(rank, gap.left_contig).seq;
  if (gap.left_reversed) left_seq = seq::revcomp(left_seq);
  std::string right_seq = store.read(rank, gap.right_contig).seq;
  if (gap.right_reversed) right_seq = seq::revcomp(right_seq);
  const std::string flank_left =
      left_seq.size() > flank_len ? left_seq.substr(left_seq.size() - flank_len)
                                  : left_seq;
  const std::string flank_right =
      right_seq.size() > flank_len ? right_seq.substr(0, flank_len) : right_seq;
  std::uint64_t read_bases = 0;
  for (const auto& r : reads) read_bases += r.size();

  // Method 1: spanning — one linear scan over the gap's reads.
  rank.stats().add_work(read_bases + 1);
  if (try_spanning(flank_left, flank_right, reads, closure.fill)) {
    closure.closed = true;
    closure.method = 'S';
    return closure;
  }

  // Method 2: k-mer walks with iteratively increasing k, both directions.
  const std::size_t max_len =
      static_cast<std::size_t>(std::max(0.0f, gap.gap_estimate)) +
      4 * static_cast<std::size_t>(config_.max_walk_k) + 100;
  std::string best_forward;
  std::string best_backward;
  std::size_t best_forward_k = 0;   // flank k-mer length embedded in the walk
  std::size_t best_backward_k = 0;
  for (int kw = config_.k; kw <= config_.max_walk_k; kw += config_.walk_k_step) {
    if (kw % 2 == 0) ++kw;  // keep k odd
    std::string bridge;
    // Each k iteration rebuilds the mini k-mer table over the gap's reads
    // and walks — the dominant cost of the closure methods ("spanning and
    // patching being orders of magnitude quicker than k-mer walks").
    rank.stats().add_work(2 * read_bases + 64);
    if (walk(reads, flank_left, flank_right, kw, max_len, bridge)) {
      const auto kws = static_cast<std::size_t>(kw);
      closure.closed = true;
      closure.method = 'W';
      closure.fill = bridge.size() >= 2 * kws
                         ? bridge.substr(kws, bridge.size() - 2 * kws)
                         : std::string{};
      return closure;
    }
    if (bridge.size() > best_forward.size()) {
      best_forward = bridge;
      best_forward_k = static_cast<std::size_t>(kw);
    }

    // Right-to-left: walk the reverse complement frame.
    std::string rc_bridge;
    if (walk(reads, seq::revcomp(flank_right), seq::revcomp(flank_left), kw,
             max_len, rc_bridge)) {
      const auto kws = static_cast<std::size_t>(kw);
      closure.closed = true;
      closure.method = 'W';
      const std::string bridge_fwd = seq::revcomp(rc_bridge);
      closure.fill = bridge_fwd.size() >= 2 * kws
                         ? bridge_fwd.substr(kws, bridge_fwd.size() - 2 * kws)
                         : std::string{};
      return closure;
    }
    const std::string backward_fwd = seq::revcomp(rc_bridge);
    if (backward_fwd.size() > best_backward.size()) {
      best_backward = backward_fwd;
      best_backward_k = static_cast<std::size_t>(kw);
    }
  }

  // Method 3: patch the two incomplete walks across their overlap.
  const auto anchor = static_cast<std::size_t>(config_.anchor);
  if (best_forward.size() >= anchor && best_backward.size() >= anchor) {
    const std::size_t max_olap =
        std::min(best_forward.size(), best_backward.size());
    for (std::size_t olap = max_olap; olap >= anchor; --olap) {
      if (best_forward.compare(best_forward.size() - olap, olap, best_backward,
                               0, olap) == 0) {
        const std::string bridge = best_forward + best_backward.substr(olap);
        // bridge starts with flank_left's tail (best_forward_k bases) and
        // ends with flank_right's head (best_backward_k bases) — walk
        // invariants; strip each side by its own k.
        if (bridge.size() >= best_forward_k + best_backward_k) {
          closure.closed = true;
          closure.method = 'P';
          closure.fill = bridge.substr(
              best_forward_k, bridge.size() - best_forward_k - best_backward_k);
          return closure;
        }
      }
    }
  }

  closure.closed = false;
  closure.method = '-';
  return closure;
}

}  // namespace hipmer::scaffold
