// Lossy-transport layer: envelope framing, the seq/ack/dedup/reorder state
// machine, retry + backoff + suspect-peer escalation, chaos determinism —
// plus the wire-reader hardening, FaultInjector::trip and the aggregating
// engine's exception-safety invariant the transport depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/wire.hpp"
#include "pgas/aggregating_engine.hpp"
#include "pgas/chaos.hpp"
#include "pgas/comm_stats.hpp"
#include "pgas/fabric.hpp"
#include "pgas/fault.hpp"
#include "pgas/transport.hpp"

namespace hipmer {
namespace {

using pgas::ChaosPlan;
using pgas::ChaosProbs;
using pgas::Envelope;
using pgas::Transport;

// ---- wire reader hardening ----

TEST(Wire, RequireNamesTheMissingField) {
  const std::byte bytes[4] = {};
  io::wire::Reader r(bytes, sizeof bytes);
  try {
    (void)r.get_pod_checked<std::uint64_t>("frob count");
    FAIL() << "expected TruncatedError";
  } catch (const io::wire::TruncatedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frob count"), std::string::npos) << what;
    EXPECT_NE(what.find("needs 8"), std::string::npos) << what;
    EXPECT_NE(what.find("4 remain"), std::string::npos) << what;
  }
}

TEST(Wire, CheckedReadsMatchUnchecked) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(0xabcd1234u);
  w.put_u64(0x1122334455667788ull);
  io::wire::Reader r(buf.data(), buf.size());
  EXPECT_EQ(r.get_pod_checked<std::uint32_t>("a"), 0xabcd1234u);
  EXPECT_EQ(r.get_pod_checked<std::uint64_t>("b"), 0x1122334455667788ull);
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedErrorIsDistinctFromCorruptError) {
  // Both derive wire::Error, so callers can distinguish "ran off the end"
  // from "failed validation" — or catch the family in one handler.
  const io::wire::TruncatedError trunc("x", 8, 3);
  const io::wire::CorruptError corrupt("wire: corrupt: test");
  const io::wire::Error* as_base = &trunc;
  EXPECT_NE(dynamic_cast<const io::wire::TruncatedError*>(as_base), nullptr);
  EXPECT_EQ(dynamic_cast<const io::wire::CorruptError*>(as_base), nullptr);
  EXPECT_NE(std::string(corrupt.what()).find("corrupt"), std::string::npos);
}

// ---- envelope codec ----

std::vector<std::byte> payload_of(std::uint64_t v) {
  std::vector<std::byte> p(sizeof v);
  std::memcpy(p.data(), &v, sizeof v);
  return p;
}

TEST(Envelope, RoundTrip) {
  Envelope env;
  env.channel = 7;
  env.src = 2;
  env.dst = 3;
  env.seq = 0x00c0ffee;
  env.payload = payload_of(0xdeadbeefcafef00dull);
  const auto wire = pgas::frame_envelope(env);
  const auto back = pgas::decode_envelope(wire.data(), wire.size());
  EXPECT_EQ(back.channel, env.channel);
  EXPECT_EQ(back.src, env.src);
  EXPECT_EQ(back.dst, env.dst);
  EXPECT_EQ(back.seq, env.seq);
  EXPECT_EQ(back.payload, env.payload);
}

TEST(Envelope, EveryBitFlipIsRejected) {
  Envelope env;
  env.channel = 1;
  env.src = 0;
  env.dst = 1;
  env.seq = 42;
  env.payload = payload_of(0x0123456789abcdefull);
  const auto wire = pgas::frame_envelope(env);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto bad = wire;
    bad[i] ^= std::byte{0x40};
    EXPECT_THROW((void)pgas::decode_envelope(bad.data(), bad.size()),
                 io::wire::Error)
        << "offset " << i;
  }
}

TEST(Envelope, TruncationReportsTruncatedNotCorrupt) {
  Envelope env;
  env.channel = 1;
  env.src = 0;
  env.dst = 1;
  env.seq = 0;
  env.payload = payload_of(99);
  const auto wire = pgas::frame_envelope(env);
  // Cutting the CRC off the end runs the reader out of bytes: the error
  // must say *which* field was being read, not claim corruption.
  try {
    (void)pgas::decode_envelope(wire.data(), wire.size() - 4);
    FAIL() << "expected TruncatedError";
  } catch (const io::wire::TruncatedError& e) {
    EXPECT_NE(std::string(e.what()).find("envelope crc"), std::string::npos);
  }
  // Trailing garbage after a valid frame is corruption, not truncation.
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)pgas::decode_envelope(padded.data(), padded.size()),
               io::wire::CorruptError);
}

// ---- FaultInjector::trip ----

TEST(Fault, TripMakesEveryRankThrow) {
  pgas::FaultInjector faults;
  EXPECT_FALSE(faults.fired());
  EXPECT_NO_THROW(faults.on_fault_point(0));
  faults.trip();
  EXPECT_TRUE(faults.fired());
  EXPECT_THROW(faults.on_fault_point(0), pgas::RankKilled);
  EXPECT_THROW(faults.on_fault_point(3), pgas::RankKilled);
  faults.clear();
  EXPECT_FALSE(faults.fired());
  EXPECT_NO_THROW(faults.on_fault_point(0));
}

TEST(Fault, TripIsVisibleAcrossThreads) {
  // Release store in trip(), acquire load in fired()/on_fault_point: a
  // tripper's preceding writes must be visible to the observer. The TSan CI
  // job gives this test teeth; here we assert the handshake completes.
  pgas::FaultInjector faults;
  std::atomic<int> observed{0};
  int shared_state = 0;
  std::thread observer([&] {
    while (!faults.fired()) std::this_thread::yield();
    observed.store(shared_state, std::memory_order_relaxed);
  });
  shared_state = 7;  // published by trip()'s release store
  faults.trip();
  observer.join();
  EXPECT_EQ(observed.load(), 7);
}

// ---- aggregating engine: exception safety + clear ----

TEST(Engine, ThrowingFlushDoesNotResendTheBatch) {
  pgas::AggregatingEngine<int> engine(2, 4);
  std::vector<int> applied;
  bool arm_throw = true;
  auto handler = [&](std::uint32_t, std::vector<int>& ops) {
    for (int op : ops) applied.push_back(op);
    if (arm_throw) throw std::runtime_error("handler died mid-drain");
  };
  for (int i = 0; i < 3; ++i) engine.enqueue(0, 1, i, handler);
  EXPECT_THROW(engine.enqueue(0, 1, 3, handler), std::runtime_error);
  // The batch was handed over (and partially applied) before the throw; it
  // must NOT linger in the buffer to be re-applied by a retry or flush.
  EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(engine.pending(0), 0u);
  arm_throw = false;
  engine.flush(0, handler);
  EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3}));  // nothing re-applied
  // The engine still works for fresh ops afterwards.
  engine.enqueue(0, 1, 7, handler);
  engine.flush(0, handler);
  EXPECT_EQ(applied.back(), 7);
  EXPECT_EQ(engine.pending(0), 0u);
}

TEST(Engine, ThrowingExplicitFlushDropsOnlyTheShippedBatch) {
  pgas::AggregatingEngine<int> engine(3, 100);
  std::vector<std::pair<std::uint32_t, int>> applied;
  int calls = 0;
  auto handler = [&](std::uint32_t dest, std::vector<int>& ops) {
    ++calls;
    for (int op : ops) applied.emplace_back(dest, op);
    if (calls == 1) throw std::runtime_error("first destination failed");
  };
  engine.enqueue(0, 1, 10, handler);
  engine.enqueue(0, 2, 20, handler);
  EXPECT_THROW(engine.flush(0, handler), std::runtime_error);
  // One destination shipped (then threw); the other is still pending and a
  // second flush delivers it exactly once.
  EXPECT_EQ(applied.size(), 1u);
  EXPECT_EQ(engine.pending(0), 1u);
  engine.flush(0, handler);
  EXPECT_EQ(applied.size(), 2u);
  EXPECT_EQ(engine.pending(0), 0u);
}

TEST(Engine, ClearDropsBufferedOpsWithoutShipping) {
  pgas::AggregatingEngine<int> engine(2, 100);
  int shipped = 0;
  auto handler = [&](std::uint32_t, std::vector<int>& ops) {
    shipped += static_cast<int>(ops.size());
  };
  engine.enqueue(0, 1, 1, handler);
  engine.enqueue(0, 1, 2, handler);
  EXPECT_EQ(engine.pending(0), 2u);
  engine.clear(0);
  EXPECT_EQ(engine.pending(0), 0u);
  engine.flush(0, handler);
  EXPECT_EQ(shipped, 0);
}

// ---- transport harness ----

struct Harness {
  pgas::FaultInjector faults;
  Transport tp{4, faults};
  pgas::CommStats stats;
  /// Delivered (dst, value) pairs, in delivery order.
  std::vector<std::pair<int, std::uint64_t>> log;

  auto deliver() {
    return [this](int dst, const std::byte* data, std::size_t size) {
      ASSERT_EQ(size, sizeof(std::uint64_t));
      std::uint64_t v = 0;
      std::memcpy(&v, data, size);
      log.emplace_back(dst, v);
    };
  }

  void send(int src, int dst, Transport::ChannelId ch, std::uint64_t v) {
    tp.send(src, dst, ch, payload_of(v), stats, deliver());
  }

  void drain(int src, Transport::ChannelId ch) {
    tp.drain(src, ch, stats, deliver());
  }

  void arm(ChaosProbs probs, std::uint64_t seed) {
    ChaosPlan plan;
    plan.seed = seed;
    plan.defaults = probs;
    tp.set_plan(plan);
  }

  /// Per-destination values, in delivery order.
  std::vector<std::uint64_t> delivered_to(int dst) const {
    std::vector<std::uint64_t> out;
    for (const auto& [d, v] : log)
      if (d == dst) out.push_back(v);
    return out;
  }
};

std::vector<std::uint64_t> iota_u64(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(Transport, CleanFabricDeliversInOrderExactlyOnce) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  for (std::uint64_t i = 0; i < 100; ++i)
    for (int dst = 0; dst < 4; ++dst) h.send(0, dst, ch, i);
  for (int dst = 0; dst < 4; ++dst)
    EXPECT_EQ(h.delivered_to(dst), iota_u64(100)) << "dst " << dst;
  const auto s = h.stats.snapshot();
  EXPECT_EQ(s.transport_retries, 0u);
  EXPECT_EQ(s.transport_dups, 0u);
  EXPECT_EQ(s.transport_reorders, 0u);
  EXPECT_EQ(s.transport_corrupts, 0u);
  const auto reports = h.tp.channel_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].attempts_hist[0], 400u);  // everything acked first try
  EXPECT_EQ(reports[0].backoff_ticks, 0u);
}

TEST(Transport, SelfSendsNeverMisbehave) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{1.0, 0.0, 0.0, 0.0, 0.0}, 1);  // drop everything
  h.tp.set_max_attempts(3);
  for (std::uint64_t i = 0; i < 10; ++i) h.send(2, 2, ch, i);
  EXPECT_EQ(h.delivered_to(2), iota_u64(10));
  EXPECT_EQ(h.stats.snapshot().transport_retries, 0u);
}

TEST(Transport, DuplicatesAreSuppressedExactlyOnce) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{0.0, 1.0, 0.0, 0.0, 0.0}, 7);  // duplicate every envelope
  for (std::uint64_t i = 0; i < 50; ++i) h.send(0, 1, ch, i);
  EXPECT_EQ(h.delivered_to(1), iota_u64(50));
  EXPECT_EQ(h.stats.snapshot().transport_dups, 50u);
  EXPECT_EQ(h.stats.snapshot().transport_retries, 0u);
}

TEST(Transport, LossyLinkRetriesUntilDelivered) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{0.4, 0.0, 0.0, 0.0, 0.0}, 11);
  for (std::uint64_t i = 0; i < 200; ++i) h.send(0, 3, ch, i);
  EXPECT_EQ(h.delivered_to(3), iota_u64(200));
  EXPECT_GT(h.stats.snapshot().transport_retries, 0u);
  // Backoff was accounted for every retry.
  const auto reports = h.tp.channel_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].backoff_ticks, 0u);
  EXPECT_GT(reports[0].attempts_hist[1], 0u);  // some needed a 2nd attempt
}

TEST(Transport, CorruptionIsCaughtAndRepairedByRetry) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{0.0, 0.0, 0.0, 0.0, 0.5}, 13);
  for (std::uint64_t i = 0; i < 100; ++i) h.send(1, 2, ch, i);
  EXPECT_EQ(h.delivered_to(2), iota_u64(100));
  const auto s = h.stats.snapshot();
  EXPECT_GT(s.transport_corrupts, 0u);
  EXPECT_EQ(s.transport_corrupts, s.transport_retries);
}

TEST(Transport, BlackholedPeerIsDeclaredSuspect) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  ChaosPlan plan;
  plan.seed = 3;
  plan.blackholes.push_back(pgas::BlackholeRule{2, "contig_generation", 0});
  h.tp.set_plan(plan);
  h.tp.set_max_attempts(5);

  // Before the stage begins, the rule is dormant.
  h.tp.begin_stage("kmer_analysis");
  EXPECT_EQ(h.tp.blackholed_rank(), -1);
  h.send(0, 2, ch, 1);
  EXPECT_EQ(h.delivered_to(2), std::vector<std::uint64_t>{1});

  h.tp.begin_stage("contig_generation");
  EXPECT_EQ(h.tp.blackholed_rank(), 2);
  try {
    h.send(0, 2, ch, 2);
    FAIL() << "expected PeerSuspect";
  } catch (const pgas::PeerSuspect& e) {
    EXPECT_EQ(e.peer(), 2);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_NE(std::string(e.what()).find("suspect"), std::string::npos);
  }
  EXPECT_EQ(h.tp.suspect_peer(), 2);
  // The whole team is tripped: every rank unwinds via RankKilled.
  EXPECT_TRUE(h.faults.fired());
  EXPECT_THROW(h.faults.on_fault_point(1), pgas::RankKilled);
  // Sends *from* the blackholed rank die too (its NIC is gone, both ways).
  h.faults.clear();
  EXPECT_THROW(h.send(2, 1, ch, 3), pgas::PeerSuspect);
  // Retries were bounded by the deadline — no hang, exactly max_attempts.
  EXPECT_EQ(h.stats.snapshot().transport_retries, 10u);  // 2 suspects x 5
}

TEST(Transport, PeerSuspectIsCatchableAsRankKilled) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{1.0, 0.0, 0.0, 0.0, 0.0}, 5);
  h.tp.set_max_attempts(4);
  EXPECT_THROW(h.send(0, 1, ch, 1), pgas::RankKilled);
}

TEST(Transport, ReorderedEnvelopesAreHeldThenSequenced) {
  Harness h;
  const auto ch = h.tp.open_channel("test");
  h.arm(ChaosProbs{0.0, 0.0, 1.0, 0.0, 0.0}, 17);  // hold every envelope
  for (std::uint64_t i = 0; i < 5; ++i) h.send(0, 1, ch, i);
  // Everything is in the network; nothing delivered, nothing lost.
  EXPECT_TRUE(h.log.empty());
  EXPECT_EQ(h.tp.pending(0, ch), 5u);
  h.drain(0, ch);
  EXPECT_EQ(h.delivered_to(1), iota_u64(5));
  EXPECT_EQ(h.tp.pending(0, ch), 0u);
}

TEST(Transport, MixedChaosDeliversExactlyOnceInOrderAcrossSeeds) {
  const ChaosProbs mixed{0.10, 0.05, 0.10, 0.10, 0.05};
  std::uint64_t retries = 0;
  std::uint64_t dups = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corrupts = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Harness h;
    const auto ch = h.tp.open_channel("test");
    h.arm(mixed, seed);
    for (std::uint64_t i = 0; i < 60; ++i)
      for (int dst = 1; dst < 4; ++dst) h.send(0, dst, ch, i);
    h.drain(0, ch);
    for (int dst = 1; dst < 4; ++dst)
      ASSERT_EQ(h.delivered_to(dst), iota_u64(60))
          << "seed " << seed << " dst " << dst;
    const auto s = h.stats.snapshot();
    retries += s.transport_retries;
    dups += s.transport_dups;
    reorders += s.transport_reorders;
    corrupts += s.transport_corrupts;
  }
  // Across the sweep every fault kind actually happened.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(reorders, 0u);
  EXPECT_GT(corrupts, 0u);
}

TEST(Transport, SameSeedReplaysTheSameFaults) {
  auto run = [](std::uint64_t seed) {
    Harness h;
    const auto ch = h.tp.open_channel("test");
    h.arm(ChaosProbs{0.2, 0.1, 0.1, 0.1, 0.1}, seed);
    for (std::uint64_t i = 0; i < 100; ++i) h.send(0, 1, ch, i);
    h.drain(0, ch);
    return h.stats.snapshot();
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.transport_retries, b.transport_retries);
  EXPECT_EQ(a.transport_dups, b.transport_dups);
  EXPECT_EQ(a.transport_reorders, b.transport_reorders);
  EXPECT_EQ(a.transport_corrupts, b.transport_corrupts);
  // ... and a different seed draws a different schedule.
  EXPECT_FALSE(a.transport_retries == c.transport_retries &&
               a.transport_dups == c.transport_dups &&
               a.transport_reorders == c.transport_reorders &&
               a.transport_corrupts == c.transport_corrupts);
}

TEST(Transport, RetryHistogramNamesTheChannel) {
  Harness h;
  const auto ch = h.tp.open_channel("kcount.counts/store");
  h.arm(ChaosProbs{0.5, 0.0, 0.0, 0.0, 0.0}, 19);
  for (std::uint64_t i = 0; i < 50; ++i) h.send(0, 1, ch, i);
  const std::string report = h.tp.format_retry_histograms();
  EXPECT_NE(report.find("kcount.counts/store"), std::string::npos) << report;
  EXPECT_NE(report.find("backoff"), std::string::npos) << report;
}

TEST(Transport, HandlerExceptionMidApplyIsNotReapplied) {
  // The satellite-4 invariant at the transport level: the receiver advances
  // its expected seq *before* running the apply handler, so an envelope
  // whose handler throws is considered consumed — a retransmit of it dedups
  // rather than double-applying.
  pgas::FaultInjector faults;
  Transport tp(2, faults);
  pgas::CommStats stats;
  const auto ch = tp.open_channel("test");
  int applies = 0;
  bool armed = true;
  auto deliver = [&](int, const std::byte*, std::size_t) {
    ++applies;
    if (armed) throw std::runtime_error("apply failed mid-batch");
  };
  EXPECT_THROW(tp.send(0, 1, ch, payload_of(1), stats, deliver),
               std::runtime_error);
  EXPECT_EQ(applies, 1);
  armed = false;
  // The caller's retry ships the op again under a NEW envelope (the engine
  // moved the batch out); the old seq is consumed, the new one applies once.
  tp.send(0, 1, ch, payload_of(1), stats, deliver);
  EXPECT_EQ(applies, 2);
  EXPECT_EQ(stats.snapshot().transport_dups, 0u);
}

/// Fabric stand-in that records every shipped frame, so a test can replay
/// it into the peer process's Transport. `me` < 0 hosts every rank (the
/// threads fabric's shape); otherwise it hosts rank `me` alone.
class RecordingFabric final : public pgas::Fabric {
 public:
  struct Shipped {
    std::uint32_t channel;
    int src;
    int dst;
    std::vector<std::byte> frame;
  };

  RecordingFabric(int nranks, int me) : Fabric(nranks), me_(me) {}

  [[nodiscard]] bool multiprocess() const noexcept override { return me_ >= 0; }
  [[nodiscard]] int my_rank() const noexcept override { return me_; }
  void ship(std::uint32_t channel, int src, int dst,
            const std::vector<std::byte>& envelope) override {
    shipped.push_back(Shipped{channel, src, dst, envelope});
  }
  void send_oneway(std::uint32_t, int, std::vector<std::byte>) override {
    throw std::logic_error("RecordingFabric: send_oneway");
  }
  std::vector<std::byte> rpc(std::uint32_t, int,
                             std::vector<std::byte>) override {
    throw std::logic_error("RecordingFabric: rpc");
  }
  void poll_until(const std::function<bool()>&) override {}
  void barrier(const BarrierPoint&) override {}
  void abandon(int) override {}
  std::vector<std::vector<std::byte>> serial_exchange(
      std::vector<std::byte> mine) override {
    return {std::move(mine)};
  }

  std::vector<Shipped> shipped;

 private:
  int me_;
};

TEST(Transport, LocalAndRemoteHopsAgree) {
  // Every fate nonzero: the one fate loop must make the same decisions,
  // and charge the same counters, whether a hop runs the receiver here or
  // ships the frame to the peer process.
  ChaosPlan plan;
  plan.seed = 1299721;
  plan.defaults = ChaosProbs{0.1, 0.1, 0.1, 0.1, 0.1};
  constexpr std::uint64_t kSends = 300;
  auto apply_into = [](std::vector<std::uint64_t>& log) {
    return [&log](int dst, const std::byte* data, std::size_t size) {
      ASSERT_EQ(dst, 1);
      ASSERT_EQ(size, sizeof(std::uint64_t));
      std::uint64_t v = 0;
      std::memcpy(&v, data, size);
      log.push_back(v);
    };
  };

  // Both halves of the 0 -> 1 link in this process.
  pgas::FaultInjector local_faults;
  RecordingFabric local_fabric(2, -1);
  Transport local(2, local_faults);
  local.attach_fabric(local_fabric);
  const auto local_ch = local.open_channel("parity");
  local.set_plan(plan);
  pgas::CommStats local_stats;
  std::vector<std::uint64_t> local_applied;
  for (std::uint64_t i = 0; i < kSends; ++i)
    local.send(0, 1, local_ch, payload_of(i), local_stats,
               apply_into(local_applied));
  local.drain(0, local_ch, local_stats, apply_into(local_applied));

  // Sender half in rank 0's process, receiver half in rank 1's; the
  // recorded frames replay in order, as the fabric's FIFO delivers them.
  pgas::FaultInjector tx_faults;
  RecordingFabric tx_fabric(2, 0);
  Transport tx(2, tx_faults);
  tx.attach_fabric(tx_fabric);
  const auto tx_ch = tx.open_channel("parity");
  tx.set_plan(plan);
  pgas::CommStats tx_stats;
  std::vector<std::uint64_t> unused;
  for (std::uint64_t i = 0; i < kSends; ++i)
    tx.send(0, 1, tx_ch, payload_of(i), tx_stats, apply_into(unused));
  tx.drain(0, tx_ch, tx_stats, apply_into(unused));
  EXPECT_TRUE(unused.empty());  // a remote hop never applies locally

  pgas::FaultInjector rx_faults;
  RecordingFabric rx_fabric(2, 1);
  Transport rx(2, rx_faults);
  rx.attach_fabric(rx_fabric);
  const auto rx_ch = rx.open_channel("parity");
  rx.set_plan(plan);
  std::vector<std::uint64_t> remote_applied;
  rx.set_handler(rx_ch, [&](int src, int dst, const std::byte* data,
                            std::size_t size) {
    ASSERT_EQ(src, 0);
    apply_into(remote_applied)(dst, data, size);
  });
  pgas::CommStats rx_stats;
  for (const auto& f : tx_fabric.shipped) {
    ASSERT_EQ(f.channel, tx_ch);
    rx.on_wire(rx_ch, f.src, f.dst, f.frame.data(), f.frame.size(), rx_stats);
  }

  EXPECT_TRUE(local_fabric.shipped.empty());
  EXPECT_EQ(local_applied, iota_u64(kSends));
  EXPECT_EQ(remote_applied, local_applied);

  const auto lr = local.channel_reports();
  const auto tr = tx.channel_reports();
  ASSERT_EQ(lr.size(), 1u);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr[0].attempts_hist, lr[0].attempts_hist);
  EXPECT_EQ(tr[0].backoff_ticks, lr[0].backoff_ticks);

  const auto ls = local_stats.snapshot();
  const auto ts = tx_stats.snapshot();
  const auto rs = rx_stats.snapshot();
  EXPECT_EQ(ts.transport_retries, ls.transport_retries);
  EXPECT_EQ(rs.transport_corrupts, ls.transport_corrupts);
  EXPECT_EQ(rs.transport_dups, ls.transport_dups);
  EXPECT_EQ(rs.transport_reorders, ls.transport_reorders);
  // Receiver-observed events land on the receiving side only.
  EXPECT_EQ(ts.transport_corrupts + ts.transport_dups + ts.transport_reorders,
            0u);
  // The schedule exercised every fate.
  EXPECT_GT(ls.transport_retries, ls.transport_corrupts);  // drops retried
  EXPECT_GT(ls.transport_corrupts, 0u);
  EXPECT_GT(ls.transport_dups, 0u);
  EXPECT_GT(ls.transport_reorders, 0u);
  EXPECT_EQ(tx.pending(0, tx_ch), 0u);
}

// ---- in-place hops ----

TEST(Transport, ClaimsOnlyHopsThatCannotMisbehave) {
  Harness h;
  const auto ch = h.tp.open_channel("kcount.counts/store");
  const auto other = h.tp.open_channel("align.seed_index/lookup");
  // A clean in-process link: claimed, and booked as a first-try delivery.
  EXPECT_TRUE(h.tp.claim_clean_hop(0, 1, ch));
  EXPECT_TRUE(h.tp.claim_clean_hop(2, 2, ch));
  EXPECT_EQ(h.tp.channel_reports()[ch].attempts_hist[0], 2u);

  // A lossy plan for the channel: framed. Another channel and self-hops,
  // which never misbehave, stay claimable.
  ChaosPlan lossy;
  lossy.seed = 5;
  lossy.per_channel.emplace_back("counts", ChaosProbs{0.1, 0.0, 0.0, 0.0, 0.0});
  h.tp.set_plan(lossy);
  EXPECT_FALSE(h.tp.claim_clean_hop(0, 1, ch));
  EXPECT_TRUE(h.tp.claim_clean_hop(0, 1, other));
  EXPECT_TRUE(h.tp.claim_clean_hop(1, 1, ch));

  // A blackholed link, in either direction: framed.
  ChaosPlan blackhole;
  blackhole.seed = 5;
  blackhole.blackholes.push_back(pgas::BlackholeRule{2, "contig_generation", 0});
  h.tp.set_plan(blackhole);
  h.tp.begin_stage("contig_generation");
  ASSERT_EQ(h.tp.blackholed_rank(), 2);
  EXPECT_FALSE(h.tp.claim_clean_hop(0, 2, ch));
  EXPECT_FALSE(h.tp.claim_clean_hop(2, 0, ch));
  EXPECT_TRUE(h.tp.claim_clean_hop(0, 1, ch));

  // A link holding a limbo envelope: framed, even once the plan is
  // disarmed, until a drain releases it.
  h.arm(ChaosProbs{0.0, 0.0, 1.0, 0.0, 0.0}, 7);
  h.send(0, 3, ch, 42);
  ASSERT_EQ(h.tp.pending(0, ch), 1u);
  h.tp.set_plan(ChaosPlan{});
  EXPECT_FALSE(h.tp.claim_clean_hop(0, 3, ch));
  h.drain(0, ch);
  EXPECT_EQ(h.delivered_to(3), std::vector<std::uint64_t>{42});
  EXPECT_TRUE(h.tp.claim_clean_hop(0, 3, ch));

  const auto s = h.stats.snapshot();
  EXPECT_EQ(s.transport_retries + s.transport_dups + s.transport_reorders +
                s.transport_corrupts,
            0u);
  const auto reports = h.tp.channel_reports();
  EXPECT_EQ(reports[ch].attempts_hist[0], 5u);  // a released hold is not counted
  EXPECT_EQ(reports[other].attempts_hist[0], 1u);
}

TEST(Transport, ClaimsNoHopToAnotherProcess) {
  pgas::FaultInjector faults;
  RecordingFabric fabric(2, 0);
  Transport tp(2, faults);
  tp.attach_fabric(fabric);
  const auto ch = tp.open_channel("test");
  EXPECT_FALSE(tp.claim_clean_hop(0, 1, ch));
  EXPECT_TRUE(tp.claim_clean_hop(0, 0, ch));  // this process's own rank
  // The refused claim booked nothing: the next framed send is seq 0.
  pgas::CommStats stats;
  tp.send(0, 1, ch, payload_of(9), stats,
          [](int, const std::byte*, std::size_t) {});
  ASSERT_EQ(fabric.shipped.size(), 1u);
  const auto& f = fabric.shipped[0].frame;
  EXPECT_EQ(pgas::decode_envelope(f.data(), f.size()).seq, 0u);
  EXPECT_EQ(tp.channel_reports()[ch].attempts_hist[0], 2u);
}

TEST(Transport, InPlaceThenFramedHopsSequenceExactlyOnce) {
  // N claimed hops, then the channel turns lossy between phases (serial
  // context) and the same link carries framed envelopes. The first framed
  // envelope must apply at once, neither dropped as a duplicate (send seq
  // not advanced) nor held as a gap (recv seq not advanced).
  Harness h;
  const auto ch = h.tp.open_channel("test");
  constexpr std::uint64_t kInPlace = 40;
  constexpr std::uint64_t kFramed = 200;
  std::vector<std::uint64_t> applied;
  for (std::uint64_t i = 0; i < kInPlace; ++i) {
    ASSERT_TRUE(h.tp.claim_clean_hop(0, 1, ch));
    applied.push_back(i);
  }
  const ChaosProbs drops{0.3, 0.0, 0.0, 0.0, 0.0};
  const std::uint64_t seed = 23;
  h.arm(drops, seed);
  ASSERT_FALSE(h.tp.claim_clean_hop(0, 1, ch));
  h.send(0, 1, ch, kInPlace);
  EXPECT_EQ(h.delivered_to(1), std::vector<std::uint64_t>{kInPlace});
  EXPECT_EQ(h.stats.snapshot().transport_dups, 0u);
  EXPECT_EQ(h.stats.snapshot().transport_reorders, 0u);
  for (std::uint64_t i = kInPlace + 1; i < kInPlace + kFramed; ++i)
    h.send(0, 1, ch, i);
  h.drain(0, ch);
  const auto framed = h.delivered_to(1);
  applied.insert(applied.end(), framed.begin(), framed.end());
  EXPECT_EQ(applied, iota_u64(kInPlace + kFramed));

  const auto s = h.stats.snapshot();
  EXPECT_EQ(s.transport_dups, 0u);
  EXPECT_EQ(s.transport_reorders, 0u);
  EXPECT_GT(s.transport_retries, 0u);
  // Framed seqs continue at kInPlace: bucket 0 holds every claimed hop
  // plus each framed send whose first attempt the schedule delivers.
  std::uint64_t first_try = 0;
  for (std::uint64_t seq = kInPlace; seq < kInPlace + kFramed; ++seq)
    if (pgas::chaos_fate(drops, seed, ch, 0, 1, seq, 0) ==
        pgas::ChaosFate::kDeliver)
      ++first_try;
  const auto hist = h.tp.channel_reports()[ch].attempts_hist;
  EXPECT_EQ(hist[0], kInPlace + first_try);
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), std::uint64_t{0}),
            kInPlace + kFramed);
}

// ---- chaos plan parsing ----

TEST(ChaosPlan, ParseFullGrammar) {
  const auto plan = ChaosPlan::parse(
      99, "drop=0.05,dup=0.02;lookup:corrupt=0.01,delay=0.1;"
          "blackhole=2@merAligner#1;reorder=0.3");
  EXPECT_EQ(plan.seed, 99u);
  // Later default clauses override earlier ones field-for-field? No: each
  // clause is a full ChaosProbs, last default clause wins.
  EXPECT_DOUBLE_EQ(plan.defaults.reorder, 0.3);
  EXPECT_DOUBLE_EQ(plan.defaults.drop, 0.0);
  ASSERT_EQ(plan.per_channel.size(), 1u);
  EXPECT_EQ(plan.per_channel[0].first, "lookup");
  EXPECT_DOUBLE_EQ(plan.per_channel[0].second.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan.per_channel[0].second.delay, 0.1);
  ASSERT_EQ(plan.blackholes.size(), 1u);
  EXPECT_EQ(plan.blackholes[0].rank, 2);
  EXPECT_EQ(plan.blackholes[0].stage, "merAligner");
  EXPECT_EQ(plan.blackholes[0].occurrence, 1);
  EXPECT_TRUE(plan.enabled());
  // Channel resolution: substring match, last wins.
  EXPECT_DOUBLE_EQ(plan.resolve("kcount.counts/lookup").corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan.resolve("kcount.counts/store").reorder, 0.3);
}

TEST(ChaosPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)ChaosPlan::parse(1, "drop=2.0"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "drop=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "frob=0.1"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "drop"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "drop=abc"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "blackhole=2"), std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "blackhole=x@io"),
               std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::parse(1, "blackhole=2@"),
               std::invalid_argument);
}

TEST(ChaosPlan, EmptySpecIsDisabled) {
  const auto plan = ChaosPlan::parse(1, "");
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(ChaosPlan{}.enabled());
  // Zero probabilities keep the plan disabled too.
  const auto zeros = ChaosPlan::parse(1, "drop=0,dup=0.0");
  EXPECT_FALSE(zeros.enabled());
}

TEST(ChaosPlan, FateDrawsAreDeterministicAndExclusive) {
  // 15% per fault kind leaves 25% for clean delivery, so every one of the
  // six buckets should collect a healthy share of 2000 draws.
  const ChaosProbs p{0.15, 0.15, 0.15, 0.15, 0.15};
  int counts[6] = {};
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    const auto fate = pgas::chaos_fate(p, 5, 1, 0, 1, seq, 0);
    const auto again = pgas::chaos_fate(p, 5, 1, 0, 1, seq, 0);
    EXPECT_EQ(fate, again);
    ++counts[static_cast<int>(fate)];
  }
  for (int c : counts) EXPECT_GT(c, 100);
  // Retries never draw reorder/delay — they would starve the deadline.
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    const auto fate = pgas::chaos_fate(p, 5, 1, 0, 1, seq, 1);
    EXPECT_NE(fate, pgas::ChaosFate::kReorder);
    EXPECT_NE(fate, pgas::ChaosFate::kDelay);
  }
}

}  // namespace
}  // namespace hipmer
