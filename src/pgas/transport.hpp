#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/wire.hpp"
#include "pgas/chaos.hpp"
#include "pgas/comm_stats.hpp"
#include "pgas/fault.hpp"
#include "util/hash.hpp"

/// Lossy-fabric transport under the aggregating comm paths.
///
/// This layer interposes the delivery-guarantee machinery a real network
/// backend would need, so the protocol above (DistHashMap's batched stores
/// and lookups) is exercised against loss, duplication, reordering and
/// corruption instead of assuming exactly-once in-order delivery:
///
///   - every batch travels in a CRC-32C-framed *envelope* carrying a
///     per-(channel, src, dst) sequence number;
///   - the receiver acks, drops duplicates idempotently (seq < expected),
///     and reorder-buffers out-of-sequence envelopes (seq > expected);
///   - the sender retries unacked envelopes with exponential backoff and
///     deterministic jitter up to a deadline (`max_attempts`);
///   - a peer that exhausts the deadline is declared *suspect*: the
///     transport trips the team's FaultInjector (all ranks unwind through
///     the established RankKilled path) and throws PeerSuspect so the
///     caller can degrade (drop caches, clear in-flight rows) before the
///     pipeline resumes from its last checkpoint.
///
/// One fate loop serves both fabrics. The sender draws each attempt's
/// fate (deliver, drop, duplicate, corrupt, reorder, delay) from a pure
/// hash, so it knows the outcome without an ack; every frame that leaves
/// the sender takes one *hop*. When the destination's half of the link is
/// in this process the hop runs the receiver state machine synchronously
/// on the sender's thread, exactly like the one-sided ops above it;
/// otherwise it ships the frame over the multi-process fabric, whose
/// inbound side runs the same state machine via on_wire. Retry counts,
/// histograms and backoff accounting are therefore identical on both
/// fabrics for the same seed.
///
/// Faults are injected by a seeded deterministic ChaosPlan (chaos.hpp).
/// Only a hop that can go wrong is framed. When a link's receiver half is
/// in this process, no fault can touch it (no chaos probability armed for
/// the channel, no blackhole on the link) and nothing of it is still in
/// the network, the caller claims the hop (`claim_clean_hop`) and applies
/// its own in-memory batch: the sequence numbers and the retry histogram
/// advance exactly as for a clean framed delivery, but nothing is
/// serialized, framed or checksummed, because nothing could corrupt,
/// drop, duplicate or reorder it. Chaos-armed channels, blackholed links
/// and hops to another process run the full seq/CRC protocol through
/// send(); the chaos tests and the multi-process fabric exercise it.
///
/// Threading: all state for link (channel, src, dst) is read and written
/// only by rank `src`'s thread (on a multi-process fabric, its receiver
/// half only by dst's process), so links need no locks. Channel
/// registration happens in serial context (structure constructors between
/// team.run calls); per-channel chaos counters are relaxed atomics because
/// all ranks bump them.
namespace hipmer::pgas {

class Fabric;

/// Thrown by the sender whose peer exceeded the retry deadline. Derives
/// RankKilled so ThreadTeam::run's unwind machinery (arrive_and_drop, the
/// shared fired flag) treats a suspect peer exactly like a killed rank.
class PeerSuspect : public RankKilled {
 public:
  PeerSuspect(int rank, int peer, const std::string& channel, int attempts)
      : RankKilled(rank, "peer " + std::to_string(peer) +
                             " suspect on channel '" + channel + "' after " +
                             std::to_string(attempts) + " attempts"),
        peer_(peer) {}

  [[nodiscard]] int peer() const noexcept { return peer_; }

 private:
  int peer_;
};

/// Decoded envelope. The wire layout (io::wire framing) is
///   [u32 magic][u32 channel][u32 src][u32 dst][u64 seq]
///   [u32 payload_len][payload bytes][u32 crc32c]
/// with the CRC covering every preceding byte.
struct Envelope {
  std::uint32_t channel = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};

inline constexpr std::uint32_t kEnvelopeMagic = 0x48564E45u;  // "ENVH"

[[nodiscard]] std::vector<std::byte> frame_envelope(const Envelope& env);
/// Throws io::wire::TruncatedError (naming the field that ran off the end)
/// or io::wire::CorruptError (bad magic / CRC mismatch / inconsistent
/// lengths).
[[nodiscard]] Envelope decode_envelope(const std::byte* data,
                                       std::size_t size);

class Transport {
 public:
  using ChannelId = std::uint32_t;

  /// Retry-histogram buckets: sends that succeeded on attempt 0, 1, ...,
  /// with the last bucket absorbing everything >= kHistBuckets-1.
  static constexpr std::size_t kHistBuckets = 8;

  Transport(int nranks, FaultInjector& faults)
      : nranks_(nranks), faults_(&faults) {
    channels_.reserve(kMaxChannels);
  }

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Attach the delivery fabric (called once by ThreadTeam before any
  /// traffic). On a multi-process fabric, hops to remote ranks ship the
  /// framed envelope over it instead of running the receiver state machine
  /// locally; the fate loop is the same either way.
  void attach_fabric(Fabric& fabric);

  /// Whether `rank`'s receive state machine lives in another process.
  [[nodiscard]] bool remote(int rank) const noexcept {
    return multiproc_ && rank != my_rank_;
  }

  /// Receiver-side apply function for envelopes arriving over a
  /// multi-process fabric, registered per channel (serial context). Local
  /// hops never use it — they apply through the `deliver` callable handed
  /// to send()/drain().
  using WireHandler = std::function<void(int src, int dst,
                                         const std::byte* data,
                                         std::size_t size)>;
  void set_handler(ChannelId ch, WireHandler fn);

  /// Entry point for an envelope that crossed the fabric: runs the
  /// receiver state machine (CRC check, dedup, reorder buffering) against
  /// this process's half of the (channel, src, dst) link and applies via
  /// the channel's registered handler. `stats` is this process's mirror of
  /// the *sender's* counters, so dup/corrupt/reorder counts land where the
  /// threads fabric puts them and global sums agree across backends.
  void on_wire(ChannelId ch, int src, int dst, const std::byte* data,
               std::size_t size, CommStats& stats);

  /// Register a named channel (serial context: structure constructors run
  /// between team.run calls). The name keys per-channel chaos overrides
  /// and labels the retry histogram.
  ChannelId open_channel(std::string name);

  /// Rename a channel (serial context) — tables learn their diagnostic
  /// name after construction via set_name. Re-resolves chaos overrides.
  void set_channel_name(ChannelId ch, std::string name);

  /// Arm (or disarm, with a default plan) the chaos schedule. Serial
  /// context only.
  void set_plan(ChaosPlan plan);

  /// Serial context, between jobs on a long-lived team: drop every
  /// channel (each job constructs its comm structures — and therefore its
  /// channels — afresh, and the registry cap would otherwise exhaust
  /// after ~100 jobs), clear stage/blackhole/suspect state, and start
  /// link sequencing over. Must not be called while any registered
  /// structure is alive.
  void reset_for_job();

  [[nodiscard]] const ChaosPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool chaos_enabled() const noexcept { return chaos_on_; }

  /// Serial context: announce the next stage so blackhole rules can arm.
  void begin_stage(const std::string& name);

  /// Rank currently blackholed by a triggered rule, or -1.
  [[nodiscard]] int blackholed_rank() const noexcept {
    return blackhole_rank_;
  }
  /// Peer declared suspect by a retry-deadline expiry, or -1.
  [[nodiscard]] int suspect_peer() const noexcept {
    return suspect_peer_.load(std::memory_order_relaxed);
  }

  /// Retry deadline: a send that is not acked within this many delivery
  /// attempts declares the peer suspect. With per-attempt loss p the
  /// probability of a false suspect is p^max_attempts (~1e-20 at p=0.1).
  void set_max_attempts(int n) { max_attempts_ = n < 1 ? 1 : n; }
  [[nodiscard]] int max_attempts() const noexcept { return max_attempts_; }

  /// Claim the next hop from `src` to `dst` on `ch` for an in-place apply
  /// (called on src's thread). True only when the receiver half of the
  /// link is in this process, send() would not misbehave on the link, the
  /// link has nothing in limbo or in its reorder buffer, and its send and
  /// receive sequence numbers agree. A claimed hop
  /// is booked as a clean framed delivery would be: both sequence numbers
  /// advance before the caller applies (the idempotence rule of receive)
  /// and the channel's histogram counts it in bucket 0. On false, ship the
  /// batch through send().
  [[nodiscard]] bool claim_clean_hop(int src, int dst, ChannelId ch);

  /// Send one batch payload from `src` to `dst` on `ch`. `deliver(dst,
  /// data, size)` is the receiver-side apply function; it is invoked
  /// exactly once per distinct envelope, in per-link seq order, and never
  /// for duplicates. It may be invoked zero times now (envelope held in
  /// the in-network limbo under reorder/delay chaos) — callers drain at
  /// phase boundaries. When `dst` lives in another process, the channel's
  /// registered handler applies there instead, under the same rules.
  /// Throws PeerSuspect after the retry deadline.
  template <typename Deliver>
  void send(int src, int dst, ChannelId ch, std::vector<std::byte> payload,
            CommStats& stats, Deliver&& deliver);

  /// Release every in-network (limbo) envelope from `src` on `ch`, in
  /// order. Must be called where the protocol needs "all sends applied"
  /// (DistHashMap::flush / process_lookups do); after drain, pending() is
  /// 0 and every reorder buffer the drain touched is empty.
  template <typename Deliver>
  void drain(int src, ChannelId ch, CommStats& stats, Deliver&& deliver);

  /// Envelopes from `src` still in the network (limbo) on `ch`. Counted
  /// into the table drain invariants (a limbo'd store batch is un-applied
  /// state exactly like an unflushed row).
  [[nodiscard]] std::size_t pending(int src, ChannelId ch) const;

  /// Per-channel retry histogram + backoff accounting, for CommStats-style
  /// reporting ("channel kcount.counts/store: 9841 0-retry, 112 1-retry,
  /// ..."). Aggregated over all ranks.
  struct ChannelReport {
    std::string name;
    std::array<std::uint64_t, kHistBuckets> attempts_hist{};
    std::uint64_t backoff_ticks = 0;
  };
  [[nodiscard]] std::vector<ChannelReport> channel_reports() const;
  [[nodiscard]] std::string format_retry_histograms() const;

 private:
  /// Per-(src, dst) link state. Owned exclusively by src's thread.
  struct Link {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_recv_seq = 0;
    /// Received ahead of sequence, keyed by seq (decoded envelopes).
    std::map<std::uint64_t, Envelope> reorder;
    /// In-network envelopes (reorder/delay fates): released FIFO when
    /// `countdown` later sends complete on this link, or at drain().
    struct Held {
      std::vector<std::byte> env;
      int countdown = 1;
    };
    std::deque<Held> limbo;
  };

  struct Channel {
    std::string name;
    ChaosProbs probs;  // resolved against the plan at open/rename/set_plan
    /// rows[src] — lazily allocated vector of P links, touched only by
    /// src's thread (the AggregatingEngine row idiom). On a multi-process
    /// fabric the halves of a link are disjoint: process r touches
    /// rows[r][*] as a sender (send seq, limbo) and rows[*][r] as a
    /// receiver (recv seq, reorder buffer), so the same layout serves
    /// both backends without locks.
    std::vector<std::unique_ptr<std::vector<Link>>> rows;
    /// Receiver-side apply for fabric-delivered envelopes (proc only).
    WireHandler handler;
    std::array<std::atomic<std::uint64_t>, kHistBuckets> hist{};
    std::atomic<std::uint64_t> backoff_ticks{0};
  };

  Link& link_of(Channel& chan, int src, int dst) {
    auto& slot = chan.rows[static_cast<std::size_t>(src)];
    if (slot == nullptr)
      slot = std::make_unique<std::vector<Link>>(
          static_cast<std::size_t>(nranks_));
    return (*slot)[static_cast<std::size_t>(dst)];
  }

  Channel& channel(ChannelId ch) {
    assert(ch < count_.load(std::memory_order_acquire));
    return *channels_[ch];
  }

  [[nodiscard]] bool blackholed(int src, int dst) const noexcept {
    const int bh = blackhole_rank_;
    return bh >= 0 && (src == bh || dst == bh);
  }

  /// Whether the fabric may misbehave on this hop. A self-send never
  /// crosses the network, even on a blackholed rank.
  [[nodiscard]] bool lossy(const Channel& chan, int src,
                           int dst) const noexcept {
    return src != dst &&
           (blackholed(src, dst) || (chaos_on_ && chan.probs.any()));
  }

  /// Deterministic virtual backoff for the k-th retry: exponential base
  /// with decorrelated jitter. No thread sleeps — the simulated fabric
  /// retries instantly — but the ticks are accounted per channel so tests
  /// and reports can assert the policy.
  [[nodiscard]] std::uint64_t backoff_ticks(std::uint32_t ch, int src,
                                            int dst, std::uint64_t seq,
                                            int attempt) const noexcept {
    const std::uint64_t base = 16;
    const int shift = attempt < 10 ? attempt : 10;
    const std::uint64_t jitter =
        chaos_mix(plan_.seed, ch, src, dst, seq,
                  0x6a697474ULL ^ static_cast<std::uint64_t>(attempt)) %
        base;
    return (base << shift) + jitter;
  }

  /// Receiver-side state machine for this process's half of a link: run
  /// on the sender's thread when both halves are local, from on_wire when
  /// the envelope crossed the fabric. Dedup/reorder decisions precede the
  /// user apply; `next_recv_seq` advances *before* deliver runs so an
  /// envelope whose handler throws mid-apply is never re-applied by a
  /// retry (idempotence under at-least-once). A frame that fails to decode
  /// is counted and dropped; the sender, which computed the same fate,
  /// retransmits.
  template <typename Deliver>
  void receive(Link& link, const std::byte* data, std::size_t size,
               CommStats& stats, Deliver&& deliver) {
    Envelope env;
    try {
      env = decode_envelope(data, size);
    } catch (const io::wire::Error&) {
      stats.add_transport_corrupt();
      return;
    }
    if (env.seq < link.next_recv_seq) {
      // Duplicate of an envelope already applied (or a retransmit racing
      // its own late ack): idempotent drop.
      stats.add_transport_dup();
      return;
    }
    if (env.seq > link.next_recv_seq) {
      // Out of sequence: hold until the gap fills. A duplicate of an
      // already-buffered future envelope is still a duplicate.
      if (link.reorder.count(env.seq) != 0) {
        stats.add_transport_dup();
      } else {
        stats.add_transport_reorder();
        link.reorder.emplace(env.seq, std::move(env));
      }
      return;
    }
    link.next_recv_seq = env.seq + 1;  // advance BEFORE apply (idempotence)
    deliver(static_cast<int>(env.dst), env.payload.data(),
            env.payload.size());
    // The fresh envelope may have filled the gap in front of buffered
    // successors; apply them in order. Extraction precedes apply for the
    // same exception-safety reason.
    while (!link.reorder.empty() &&
           link.reorder.begin()->first == link.next_recv_seq) {
      auto node = link.reorder.extract(link.reorder.begin());
      const Envelope& next = node.mapped();
      link.next_recv_seq = next.seq + 1;
      deliver(static_cast<int>(next.dst), next.payload.data(),
              next.payload.size());
    }
  }

  /// One envelope crossing the fabric toward `dst`: the receiver state
  /// machine runs right here when dst's half of the link is in this
  /// process, otherwise the frame ships to dst's process (whose on_wire
  /// runs the same state machine). The only fabric-dependent step.
  template <typename Deliver>
  void hop(ChannelId ch, Link& link, int dst,
           const std::vector<std::byte>& frame, CommStats& stats,
           Deliver&& deliver) {
    if (remote(dst)) {
      ship_remote(ch, dst, frame);
    } else {
      receive(link, frame.data(), frame.size(), stats, deliver);
    }
  }

  /// Release in-network envelopes in FIFO order: after a completed send,
  /// count every one down and release those that expired; with `all`
  /// (drain), release everything. Pops before each hop so reentrant sends
  /// from a deliver handler never see a half-released deque.
  template <typename Deliver>
  void release_limbo(ChannelId ch, Link& link, int dst, CommStats& stats,
                     Deliver&& deliver, bool all) {
    if (!all)
      for (auto& held : link.limbo) --held.countdown;
    while (!link.limbo.empty() &&
           (all || link.limbo.front().countdown <= 0)) {
      auto env = std::move(link.limbo.front().env);
      link.limbo.pop_front();
      hop(ch, link, dst, env, stats, deliver);  // pristine bytes: always acked
    }
  }

  [[noreturn]] void declare_suspect(int src, int dst, Channel& chan,
                                    Link& link, int attempts);

  void ship_remote(ChannelId ch, int dst, const std::vector<std::byte>& frame);

  int nranks_;
  FaultInjector* faults_;
  Fabric* fabric_ = nullptr;
  bool multiproc_ = false;
  int my_rank_ = -1;
  ChaosPlan plan_;
  bool chaos_on_ = false;
  /// Stage occurrence counts + armed blackhole (serial-context writes,
  /// like FaultInjector's plan state; thread creation synchronizes).
  std::map<std::string, int> stage_seen_;
  int blackhole_rank_ = -1;
  int max_attempts_ = 24;
  std::atomic<int> suspect_peer_{-1};

  /// Channel registry. Appended under mutex; readers index the vector
  /// without locking, which is safe because the capacity is reserved up
  /// front (open_channel asserts the bound) so the element array never
  /// reallocates.
  static constexpr std::size_t kMaxChannels = 1024;
  mutable std::mutex open_mu_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::atomic<std::uint32_t> count_{0};
};

// ---- template implementations ----

template <typename Deliver>
void Transport::send(int src, int dst, ChannelId ch,
                     std::vector<std::byte> payload, CommStats& stats,
                     Deliver&& deliver) {
  Channel& chan = channel(ch);
  Link& link = link_of(chan, src, dst);
  Envelope env;
  env.channel = ch;
  env.src = static_cast<std::uint32_t>(src);
  env.dst = static_cast<std::uint32_t>(dst);
  env.seq = link.next_send_seq++;
  env.payload = std::move(payload);
  std::vector<std::byte> wire = frame_envelope(env);

  // Fates are pure hashes of (seed, channel, src, dst, seq, attempt), so
  // the sender knows each attempt's outcome without an ack round-trip — on
  // either fabric.
  const bool may_fail = lossy(chan, src, dst);
  int attempt = 0;
  for (;;) {
    bool acked = false;
    const ChaosFate fate =
        !may_fail              ? ChaosFate::kDeliver
        : blackholed(src, dst) ? ChaosFate::kDrop
                               : chaos_fate(chan.probs, plan_.seed, ch, src,
                                            dst, env.seq, attempt);
    switch (fate) {
      case ChaosFate::kDeliver:
        hop(ch, link, dst, wire, stats, deliver);
        acked = true;
        break;
      case ChaosFate::kDrop:
        break;  // lost in the fabric
      case ChaosFate::kDuplicate:
        // Fabric-level duplication: the same frame arrives twice; the
        // receiver dedups the second copy (seq < expected).
        hop(ch, link, dst, wire, stats, deliver);
        hop(ch, link, dst, wire, stats, deliver);
        acked = true;
        break;
      case ChaosFate::kCorrupt: {
        // Flip one bit of a copy (the sender keeps the pristine frame for
        // the retransmit); the receiver's envelope CRC rejects it. Across
        // processes the fabric frame's own CRC covers the already-flipped
        // envelope, so the frame passes and the envelope check fails.
        std::vector<std::byte> bad = wire;
        const std::uint64_t h =
            chaos_mix(plan_.seed, ch, src, dst, env.seq,
                      0x636f7272ULL ^ static_cast<std::uint64_t>(attempt));
        const std::size_t pos = static_cast<std::size_t>(h % bad.size());
        const auto bit = static_cast<unsigned>((h >> 32) & 7);
        bad[pos] ^= static_cast<std::byte>(1u << bit);
        hop(ch, link, dst, bad, stats, deliver);
        break;
      }
      case ChaosFate::kReorder:
      case ChaosFate::kDelay:
        // Held in the network; acks on a later release or drain.
        link.limbo.push_back(
            Link::Held{std::move(wire), fate == ChaosFate::kReorder ? 1 : 2});
        return;
    }
    if (acked) {
      const std::size_t bucket = static_cast<std::size_t>(attempt) <
                                         kHistBuckets - 1
                                     ? static_cast<std::size_t>(attempt)
                                     : kHistBuckets - 1;
      chan.hist[bucket].fetch_add(1, std::memory_order_relaxed);
      release_limbo(ch, link, dst, stats, deliver, false);
      return;
    }
    ++attempt;
    stats.add_transport_retry();
    chan.backoff_ticks.fetch_add(
        backoff_ticks(ch, src, dst, env.seq, attempt),
        std::memory_order_relaxed);
    if (attempt >= max_attempts_) declare_suspect(src, dst, chan, link, attempt);
  }
}

template <typename Deliver>
void Transport::drain(int src, ChannelId ch, CommStats& stats,
                      Deliver&& deliver) {
  Channel& chan = channel(ch);
  auto* row = chan.rows[static_cast<std::size_t>(src)].get();
  if (row == nullptr) return;
  for (int dst = 0; dst < nranks_; ++dst) {
    Link& link = (*row)[static_cast<std::size_t>(dst)];
    release_limbo(ch, link, dst, stats, deliver, true);
    // Limbo held the only gaps; once it drains, a local receiver has
    // applied everything it buffered out of sequence. A remote receiver's
    // buffer empties once the late frames land, which router FIFO order
    // guarantees before the next barrier release.
    assert(remote(dst) || link.reorder.empty());
  }
}

inline bool Transport::claim_clean_hop(int src, int dst, ChannelId ch) {
  Channel& chan = channel(ch);
  if (remote(dst) || lossy(chan, src, dst)) return false;
  Link& link = link_of(chan, src, dst);
  // Equal sequence numbers: a framed envelope would be applied at once,
  // not dropped as a duplicate or held for a gap.
  if (!link.limbo.empty() || !link.reorder.empty() ||
      link.next_send_seq != link.next_recv_seq)
    return false;
  ++link.next_send_seq;
  ++link.next_recv_seq;
  chan.hist[0].fetch_add(1, std::memory_order_relaxed);
  return true;
}

inline std::size_t Transport::pending(int src, ChannelId ch) const {
  const Channel& chan = *channels_[ch];
  const auto* row = chan.rows[static_cast<std::size_t>(src)].get();
  if (row == nullptr) return 0;
  std::size_t total = 0;
  for (const auto& link : *row) total += link.limbo.size();
  return total;
}

}  // namespace hipmer::pgas
