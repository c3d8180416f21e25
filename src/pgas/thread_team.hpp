#pragma once

#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "pgas/checked.hpp"
#include "pgas/comm_stats.hpp"
#include "pgas/fabric.hpp"
#include "pgas/fault.hpp"
#include "pgas/topology.hpp"
#include "pgas/transport.hpp"

#if defined(HIPMER_CHECKED)
#include "pgas/phase_checker.hpp"
#endif

/// SPMD execution engine: the stand-in for the UPC runtime.
///
/// A `ThreadTeam` launches P logical ranks, each as a real `std::thread`
/// running the same function (single program, multiple data) with its own
/// `Rank` handle. Shared distributed structures (DistHashMap etc.) are
/// accessed concurrently exactly as UPC shared arrays would be — one-sided,
/// with the initiating rank touching the owner's memory directly — so
/// synchronization bugs are real bugs here, not simulation artifacts.
///
/// Collectives (barrier / reductions / gathers / broadcast) mirror the small
/// set HipMer needs. They are implemented over a per-rank slot buffer plus a
/// `std::barrier`, and each participation is charged to the rank's comm
/// stats so the machine model sees synchronization costs.
namespace hipmer::pgas {

class ThreadTeam;

/// Per-rank handle passed to the SPMD function.
class Rank {
 public:
  Rank(ThreadTeam& team, int rank) : team_(&team), rank_(rank) {}

  [[nodiscard]] int id() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept;
  [[nodiscard]] const Topology& topology() const noexcept;
  [[nodiscard]] int node() const noexcept {
    return topology().node_of(rank_);
  }
  [[nodiscard]] bool is_root() const noexcept { return rank_ == 0; }

  /// This rank's own counters (mutable: application code charges work here).
  [[nodiscard]] CommStats& stats() noexcept;
  /// Another rank's counters — used by one-sided ops to charge the owner's
  /// service time (`recv_ops`).
  [[nodiscard]] CommStats& stats_of(int rank) noexcept;

  ThreadTeam& team() noexcept { return *team_; }

  /// Charge one message of `bytes` payload carrying `ops` logical
  /// operations against `owner`'s shard: the initiator's counters are
  /// bumped with the locality-classified message, the owner's with the
  /// service ops. A self-targeted message is a local access. This is the
  /// single accounting rule every one-sided structure (DistHashMap, the
  /// aggregating engine's users, ContigStore) shares.
  void charge_message(int owner, std::size_t bytes, std::size_t ops = 1);

  // ---- Collectives (must be called by every rank, in the same order) ----
  //
  // Under HIPMER_CHECKED every collective carries its caller's source
  // location and tags its internal barriers with its kind, so the checker
  // can report "rank 0 entered allgather, rank 1 entered barrier" with both
  // call sites when the SPMD bodies diverge.

  void barrier(HIPMER_SITE_DEFAULT0);

  /// Reduce `value` with `op` across ranks; every rank gets the result.
  template <typename T, typename Op>
  T allreduce(const T& value, Op op HIPMER_SITE_DEFAULT);

  template <typename T>
  T allreduce_sum(const T& value HIPMER_SITE_DEFAULT) {
    return allreduce(
        value, [](const T& a, const T& b) { return a + b; } HIPMER_SITE_FWD);
  }
  template <typename T>
  T allreduce_max(const T& value HIPMER_SITE_DEFAULT) {
    return allreduce(
        value,
        [](const T& a, const T& b) { return a < b ? b : a; } HIPMER_SITE_FWD);
  }
  template <typename T>
  T allreduce_min(const T& value HIPMER_SITE_DEFAULT) {
    return allreduce(
        value,
        [](const T& a, const T& b) { return b < a ? b : a; } HIPMER_SITE_FWD);
  }

  /// Every rank contributes one T; every rank receives all P values.
  template <typename T>
  std::vector<T> allgather(const T& value HIPMER_SITE_DEFAULT);

  /// Every rank contributes a vector<T> of any length; every rank receives
  /// the concatenation in rank order.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& values HIPMER_SITE_DEFAULT);

  /// Rank `root`'s value is returned on every rank.
  template <typename T>
  T broadcast(const T& value, int root = 0 HIPMER_SITE_DEFAULT);

  /// Exclusive prefix sum over ranks (rank r receives sum of values of
  /// ranks 0..r-1). Used to assign globally unique contig ids.
  template <typename T>
  T exscan_sum(const T& value HIPMER_SITE_DEFAULT);

  /// All-to-all personalized exchange: `out[r]` goes to rank r; the return
  /// value is the concatenation of what every rank sent to *this* rank.
  /// Message accounting: one message per non-empty destination, classified
  /// on/off-node by the topology.
  template <typename T>
  std::vector<T> alltoallv(
      const std::vector<std::vector<T>>& out HIPMER_SITE_DEFAULT);

 private:
  ThreadTeam* team_;
  int rank_;
};

/// Which delivery backend a team runs on, and this process's place in it.
struct FabricConfig {
  enum class Mode {
    kThreads,          ///< all ranks are std::threads here (InProcessFabric)
    kProcCoordinator,  ///< this process hosts rank 0 + router, spawns workers
    kProcWorker,       ///< this process hosts rank `my_rank`, connects back
  };
  Mode mode = Mode::kThreads;
  int my_rank = 0;          ///< worker only
  std::string socket_path;  ///< proc modes: the Unix-domain rendezvous
  /// Coordinator only: argv prefix for spawning workers (the binary plus
  /// every flag needed to reconstruct this configuration; the fabric
  /// appends ["--worker-rank", R]).
  std::vector<std::string> worker_argv;
};

/// Owns the threads, the collective scratch space and per-rank stats.
class ThreadTeam {
 public:
  explicit ThreadTeam(Topology topo, FabricConfig fabric = {});

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Run `fn(Rank&)` on every rank; blocks until all ranks return.
  /// If any rank throws, the first exception is rethrown here after all
  /// threads have joined.
  void run(const std::function<void(Rank&)>& fn);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] int nranks() const noexcept { return topo_.nranks; }

  /// The delivery backend (see pgas/fabric.hpp).
  [[nodiscard]] Fabric& fabric() noexcept { return *fabric_; }
  /// True when each rank is a separate OS process (SocketFabric).
  [[nodiscard]] bool multiprocess() const noexcept {
    return fabric_->multiprocess();
  }
  /// The one rank hosted by this process (-1 when all ranks are local).
  [[nodiscard]] int my_rank() const noexcept { return fabric_->my_rank(); }
  /// Whether this process performs team-wide side effects (final output,
  /// checkpoint commits): the only process in threads mode, rank 0's in
  /// proc mode.
  [[nodiscard]] bool is_primary() const noexcept {
    return !multiprocess() || my_rank() == 0;
  }
  /// Whether `rank`'s shards/memory live in this process.
  [[nodiscard]] bool is_local(int rank) const noexcept {
    return fabric_->is_local(rank);
  }

  [[nodiscard]] CommStats& stats(int rank) noexcept { return *stats_[rank]; }

  /// Rank fault injection (see pgas/fault.hpp). Disarmed by default; drivers
  /// announce stages via faults().begin_stage and ranks poll at barriers.
  [[nodiscard]] FaultInjector& faults() noexcept { return faults_; }

  /// Lossy-fabric transport under the batched comm paths (see
  /// pgas/transport.hpp). Perfect fabric by default; a ChaosPlan arms it.
  [[nodiscard]] Transport& transport() noexcept { return transport_; }

  /// Announce the next stage to both fault machineries (the kill plans of
  /// faults() and the blackhole rules of transport()). Drivers should call
  /// this rather than faults().begin_stage directly.
  void begin_stage(const std::string& name) {
    faults_.begin_stage(name);
    transport_.begin_stage(name);
  }

#if defined(HIPMER_CHECKED)
  /// Phase-discipline checker (see pgas/phase_checker.hpp). Tables register
  /// here; barriers advance epochs and validate the drain/match invariants.
  [[nodiscard]] PhaseChecker& checker() noexcept { return checker_; }
#endif

  /// Snapshot of every rank's counters as charged in *this process*
  /// (callable between/after runs, or by rank 0 after a barrier). On a
  /// multi-process fabric these are partial: handler-side charges land in
  /// the observing process's mirror of the initiator's counters.
  [[nodiscard]] std::vector<CommStatsSnapshot> snapshot_all() const;

  /// Global counters: elementwise sum of every process's mirrors over the
  /// fabric (serial context). Identical to snapshot_all() in threads mode.
  [[nodiscard]] std::vector<CommStatsSnapshot> snapshot_all_global();

  void reset_stats();

  /// Serial context, between jobs on a long-lived team: clear fault plans,
  /// drop every transport channel, rebuild the fabric's sync state (a
  /// RankKilled unwind shrinks the in-process barrier for good), zero the
  /// comm counters, and (checked builds) reset the phase checker. After
  /// this the team is indistinguishable from a freshly constructed one.
  /// Must not be called while any run is in flight.
  void reset_for_job();

  // ---- serial-context exchange (multi-process SPMD setup/teardown) ----
  /// Every process contributes `mine`; every process receives all P
  /// contributions rank-indexed. On the threads fabric returns just
  /// {mine} — serial code there already sees every rank's data.
  std::vector<std::vector<std::byte>> serial_exchange(
      std::vector<std::byte> mine) {
    return fabric_->serial_exchange(std::move(mine));
  }

  /// Serial-context sum of a trivially copyable accumulator across
  /// processes. Identity on the threads fabric.
  template <typename T>
  [[nodiscard]] T serial_sum(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "serial_sum requires a trivially copyable type");
    if (!multiprocess()) return value;
    std::vector<std::byte> mine(sizeof(T));
    std::memcpy(mine.data(), &value, sizeof(T));
    auto parts = fabric_->serial_exchange(std::move(mine));
    T acc{};
    for (const auto& p : parts) {
      T x{};
      if (p.size() >= sizeof(T)) std::memcpy(&x, p.data(), sizeof(T));
      acc = acc + x;
    }
    return acc;
  }

  /// Serial-context concatenation of per-process byte payloads in rank
  /// order. Identity ({mine} semantics) on the threads fabric.
  [[nodiscard]] std::vector<std::byte> serial_concat(
      std::vector<std::byte> mine) {
    if (!multiprocess()) return mine;
    auto parts = fabric_->serial_exchange(std::move(mine));
    std::vector<std::byte> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  // ---- internals used by Rank's collectives ----
  void arrive_barrier(int rank) {
    Fabric::BarrierPoint pt;
    pt.rank = rank;
    pt.slot = &slots_[static_cast<std::size_t>(rank)];
#if defined(HIPMER_CHECKED)
    // Ship the record published by pre_barrier so the mismatch comparison
    // sees every process's collective kind and call site.
    pt.has_record = true;
    pt.record_kind = static_cast<std::uint32_t>(checker_.record_kind(rank));
    const SiteInfo site = checker_.record_site(rank);
    pt.record_file = site.file;
    pt.record_line = site.line;
    pt.record_func = site.function;
#endif
    fabric_->barrier(pt);
  }
  std::vector<std::byte>& slot(int rank) { return slots_[rank]; }

 private:
  Topology topo_;
  std::unique_ptr<Fabric> fabric_;
  FaultInjector faults_;
  Transport transport_;
#if defined(HIPMER_CHECKED)
  PhaseChecker checker_;
#endif
  std::vector<std::vector<std::byte>> slots_;
  // unique_ptr: CommStats holds atomics (non-movable) and we also want each
  // rank's counters on separate cache lines.
  std::vector<std::unique_ptr<CommStats>> stats_;
};

// ---- Rank inline/template implementations ----

inline int Rank::nranks() const noexcept { return team_->nranks(); }
inline const Topology& Rank::topology() const noexcept {
  return team_->topology();
}
inline CommStats& Rank::stats() noexcept { return team_->stats(rank_); }
inline CommStats& Rank::stats_of(int rank) noexcept {
  return team_->stats(rank);
}

inline void Rank::charge_message(int owner, std::size_t bytes,
                                 std::size_t ops) {
  if (owner == rank_) {
    stats().add_local_access(ops);
    return;
  }
  if (topology().same_node(owner, rank_)) {
    stats().add_onnode_msg(bytes);
  } else {
    stats().add_offnode_msg(bytes);
  }
  stats_of(owner).add_recv_ops(ops);
}

inline void Rank::barrier(HIPMER_SITE_PARAM0) {
  // Fault point: polled before arriving, so a killed rank has already
  // published any collective payload and its catch-side arrive_and_drop
  // releases peers with consistent slots.
  team_->faults().on_fault_point(rank_);
  stats().add_collective();
#if defined(HIPMER_CHECKED)
  // Checked protocol: validate drained tables, publish this rank's
  // (collective kind, call site) record, then double-barrier — the first
  // phase makes every record fresh, the comparison runs between phases,
  // and the second phase keeps records stable until everyone has read
  // them. A rank that unwinds (RankKilled / PhaseViolation) satisfies the
  // outstanding phase via arrive_and_drop in ThreadTeam::run, so the
  // two-phase shape stays deadlock-free; comparisons are skipped once a
  // fault or violation fired.
  PhaseChecker& chk = team_->checker();
  const int kind = chk.scope_kind(rank_);
  const SiteInfo site =
      chk.in_collective(rank_) ? chk.scope_site(rank_) : to_site(hipmer_site);
  chk.pre_barrier(rank_, kind, site);
  team_->arrive_barrier(rank_);
  chk.compare_barrier_records(rank_);
  team_->arrive_barrier(rank_);
  chk.advance_epoch(rank_);
#else
  team_->arrive_barrier(rank_);
#endif
}

template <typename T>
std::vector<T> Rank::allgather(const T& value HIPMER_SITE_PARAM) {
  static_assert(std::is_trivially_copyable_v<T>,
                "allgather requires a trivially copyable type");
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_,
                               PhaseChecker::kAllgather, to_site(hipmer_site));
#endif
  auto& my_slot = team_->slot(rank_);
  my_slot.resize(sizeof(T));
  std::memcpy(my_slot.data(), &value, sizeof(T));
  barrier();
  std::vector<T> result(static_cast<std::size_t>(nranks()));
  for (int r = 0; r < nranks(); ++r) {
    // A rank killed before publishing (fault injection) leaves a stale slot;
    // skip undersized ones so survivors reach their own fault point instead
    // of reading out of bounds.
    const auto& s = team_->slot(r);
    if (s.size() < sizeof(T)) continue;
    std::memcpy(&result[static_cast<std::size_t>(r)], s.data(), sizeof(T));
  }
  barrier();  // keep slots alive until every rank has read them
  return result;
}

template <typename T, typename Op>
T Rank::allreduce(const T& value, Op op HIPMER_SITE_PARAM) {
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_,
                               PhaseChecker::kAllreduce, to_site(hipmer_site));
#endif
  auto all = allgather(value HIPMER_SITE_FWD);
  T acc = all[0];
  for (std::size_t i = 1; i < all.size(); ++i) acc = op(acc, all[i]);
  return acc;
}

template <typename T>
std::vector<T> Rank::allgatherv(const std::vector<T>& values HIPMER_SITE_PARAM) {
  static_assert(std::is_trivially_copyable_v<T>,
                "allgatherv requires a trivially copyable type");
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_,
                               PhaseChecker::kAllgatherv, to_site(hipmer_site));
#endif
  auto& my_slot = team_->slot(rank_);
  my_slot.resize(values.size() * sizeof(T));
  if (!values.empty())
    std::memcpy(my_slot.data(), values.data(), my_slot.size());
  barrier();
  std::vector<T> result;
  for (int r = 0; r < nranks(); ++r) {
    const auto& s = team_->slot(r);
    const std::size_t n = s.size() / sizeof(T);
    const std::size_t old = result.size();
    result.resize(old + n);
    if (n > 0) std::memcpy(result.data() + old, s.data(), s.size());
  }
  barrier();
  return result;
}

template <typename T>
T Rank::broadcast(const T& value, int root HIPMER_SITE_PARAM) {
  static_assert(std::is_trivially_copyable_v<T>,
                "broadcast requires a trivially copyable type");
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_,
                               PhaseChecker::kBroadcast, to_site(hipmer_site));
#endif
  if (rank_ == root) {
    auto& s = team_->slot(root);
    s.resize(sizeof(T));
    std::memcpy(s.data(), &value, sizeof(T));
  }
  barrier();
  T result{};
  const auto& s = team_->slot(root);
  if (s.size() >= sizeof(T)) std::memcpy(&result, s.data(), sizeof(T));
  barrier();
  return result;
}

template <typename T>
T Rank::exscan_sum(const T& value HIPMER_SITE_PARAM) {
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_, PhaseChecker::kExscan,
                               to_site(hipmer_site));
#endif
  auto all = allgather(value HIPMER_SITE_FWD);
  T acc{};
  for (int r = 0; r < rank_; ++r) acc = acc + all[static_cast<std::size_t>(r)];
  return acc;
}

template <typename T>
std::vector<T> Rank::alltoallv(
    const std::vector<std::vector<T>>& out HIPMER_SITE_PARAM) {
  static_assert(std::is_trivially_copyable_v<T>,
                "alltoallv requires a trivially copyable type");
#if defined(HIPMER_CHECKED)
  CollectiveScope hipmer_scope(team_->checker(), rank_,
                               PhaseChecker::kAlltoallv, to_site(hipmer_site));
#endif
  // Layout this rank's outgoing data as [count_0 .. count_{P-1}] [payloads].
  const auto p = static_cast<std::size_t>(nranks());
  auto& my_slot = team_->slot(rank_);
  std::size_t payload = 0;
  for (const auto& v : out) payload += v.size() * sizeof(T);
  my_slot.resize(p * sizeof(std::uint64_t) + payload);
  auto* counts = reinterpret_cast<std::uint64_t*>(my_slot.data());
  std::byte* cursor = my_slot.data() + p * sizeof(std::uint64_t);
  for (std::size_t r = 0; r < p; ++r) {
    counts[r] = out[r].size();
    const std::size_t bytes = out[r].size() * sizeof(T);
    if (bytes > 0) {
      std::memcpy(cursor, out[r].data(), bytes);
      cursor += bytes;
    }
    // Charge one message per non-empty destination (self: local access).
    if (!out[r].empty()) charge_message(static_cast<int>(r), bytes);
  }
  barrier();
  // Pull the slice destined for this rank out of every sender's slot.
  std::vector<T> result;
  for (std::size_t r = 0; r < p; ++r) {
    const auto& s = team_->slot(static_cast<int>(r));
    // Stale slot from a rank killed before publishing (fault injection):
    // treat as an empty contribution rather than reading out of bounds.
    if (s.size() < p * sizeof(std::uint64_t)) continue;
    const auto* their_counts = reinterpret_cast<const std::uint64_t*>(s.data());
    std::size_t offset = p * sizeof(std::uint64_t);
    for (std::size_t d = 0; d < static_cast<std::size_t>(rank_); ++d)
      offset += their_counts[d] * sizeof(T);
    const std::size_t n = their_counts[rank_];
    if (n > 0 && offset + n * sizeof(T) <= s.size()) {
      const std::size_t old = result.size();
      result.resize(old + n);
      std::memcpy(result.data() + old, s.data() + offset, n * sizeof(T));
    }
  }
  barrier();
  return result;
}

}  // namespace hipmer::pgas
