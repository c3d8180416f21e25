#pragma once

#include <barrier>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pgas/fabric_wire.hpp"

/// Pluggable communication fabric: the *delivery* half of the comm stack.
///
/// The transport (pgas/transport.hpp) owns the protocol — sequencing,
/// dedup, reorder buffering, retry, chaos fates. The fabric underneath owns
/// only delivery: ship bytes from (channel, src) to dst, poll for inbound
/// frames, and provide the synchronization primitives the SPMD engine
/// needs (barrier with collective-slot publication, serial-context
/// exchange, request/response). Two backends:
///
///   - `InProcessFabric` — every rank is a std::thread in this address
///     space. Delivery is the direct call the simulator always made: the
///     sender runs the receiver's state machine synchronously on its own
///     thread, and the barrier is a std::barrier (both refactored here out
///     of transport.cpp / thread_team.cpp). Nothing crosses a socket.
///
///   - `SocketFabric` — every rank is a separate OS process. Rank 0 lives
///     in the coordinating process together with a router thread; ranks
///     1..P-1 are spawned via fork/exec of this binary in `--worker-rank`
///     mode and connect to a Unix-domain socket. All frames flow through
///     the router (a star), which preserves per-connection FIFO order —
///     the property the barrier-as-flush-point contract builds on: every
///     DATA frame a rank sent before its BARRIER is forwarded to its
///     destination's socket before that socket's RELEASE, so serving
///     inbound frames until RELEASE applies everything from the closing
///     phase.
///
/// Handler/service ids are assigned in registration order. Registration
/// happens in serial context during SPMD structure construction, which
/// executes identically in every process, so the ids agree across the team
/// without negotiation.
///
/// Death: a worker that exits without BYE (crash, kill -9) or announces
/// itself down (RankKilled unwind) triggers a RANKDOWN broadcast; every
/// peer trips its FaultInjector and unwinds through the established
/// RankKilled path, surfacing to the driver as a suspect peer exactly like
/// a retry-deadline expiry, so Pipeline::resume restarts from checkpoint.
namespace hipmer::pgas {

// Frame, FrameKind, kFrameMagic and every fabric codec live in
// pgas/fabric_wire.hpp — the wire formats are separated from the delivery
// machinery so wirecheck and the schema sweeps see plain free functions.

class Fabric {
 public:
  /// Receiver entry for kData frames: wired by ThreadTeam to
  /// Transport::on_wire with the sender's stats mirror.
  using DataSink = std::function<void(std::uint32_t channel, int src, int dst,
                                      const std::byte* data, std::size_t size)>;
  /// Fire-and-forget service handler (src, payload).
  using OnewayFn =
      std::function<void(int src, const std::byte* data, std::size_t size)>;
  /// Request/response service handler: returns the response payload.
  using RpcFn = std::function<std::vector<std::byte>(
      int src, const std::byte* data, std::size_t size)>;

  explicit Fabric(int nranks) : nranks_(nranks) {}
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] virtual bool multiprocess() const noexcept = 0;
  /// The one rank hosted by this process (-1 when all ranks are local).
  [[nodiscard]] virtual int my_rank() const noexcept { return -1; }
  /// Whether `rank`'s memory is in this address space.
  [[nodiscard]] bool is_local(int rank) const noexcept {
    return !multiprocess() || rank == my_rank();
  }

  // ---- registries (deterministic construction order => matching ids) ----
  void set_data_sink(DataSink sink) { data_sink_ = std::move(sink); }
  std::uint32_t register_oneway(OnewayFn fn) {
    oneways_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(oneways_.size() - 1);
  }
  std::uint32_t register_rpc(RpcFn fn) {
    rpcs_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(rpcs_.size() - 1);
  }

  // ---- delivery (remote ranks only; local delivery is the direct call) ----
  /// Ship a framed transport envelope to `dst` on `channel`.
  virtual void ship(std::uint32_t channel, int src, int dst,
                    const std::vector<std::byte>& envelope) = 0;
  virtual void send_oneway(std::uint32_t service, int dst,
                           std::vector<std::byte> payload) = 0;
  /// Single-outstanding request/response; serves inbound frames while
  /// blocked so cross-rank progress is guaranteed.
  virtual std::vector<std::byte> rpc(std::uint32_t service, int dst,
                                     std::vector<std::byte> payload) = 0;
  /// Serve inbound frames until `done()` — the await primitive for
  /// protocol layers (outstanding lookup replies, ...).
  virtual void poll_until(const std::function<bool()>& done) = 0;

  /// Serial context, between jobs on a long-lived team: rebuild whatever
  /// synchronization state a previous job's fault unwind consumed. The
  /// in-process barrier shrinks permanently when a killed rank
  /// arrive_and_drops, so a server reusing the team across jobs must
  /// restore the full arrival count before the next SPMD body runs.
  /// Backends with no reusable sync state (one process per rank dies with
  /// its job) leave this a no-op.
  virtual void reset_sync() {}

  // ---- synchronization ----
  struct BarrierPoint {
    int rank = 0;
    /// This rank's collective slot, published at the barrier (multiprocess
    /// backends mirror changed slots to every process at release).
    const std::vector<std::byte>* slot = nullptr;
    /// HIPMER_CHECKED barrier record, exchanged so the phase checker's
    /// mismatched-collective comparison runs unmodified across processes.
    bool has_record = false;
    std::uint32_t record_kind = 0;
    const char* record_file = "?";
    std::uint32_t record_line = 0;
    const char* record_func = "?";
  };
  virtual void barrier(const BarrierPoint& pt) = 0;
  /// A rank unwinding out of the SPMD body abandons outstanding barriers.
  virtual void abandon(int rank) = 0;
  /// Serial-context exchange: every process contributes `mine`, every
  /// process receives all P contributions indexed by rank. In-process
  /// backends return just {mine} — the caller already sees all ranks.
  virtual std::vector<std::vector<std::byte>> serial_exchange(
      std::vector<std::byte> mine) = 0;
  /// Broadcast that `rank` is dead (RankKilled unwind).
  virtual void announce_down(int rank) { (void)rank; }

  // ---- hooks wired by ThreadTeam ----
  /// Install a remote rank's published collective slot.
  void set_slot_writer(std::function<void(int, std::vector<std::byte>)> w) {
    slot_writer_ = std::move(w);
  }
  /// Install a remote rank's barrier record (HIPMER_CHECKED).
  void set_record_installer(
      std::function<void(int rank, std::uint32_t kind, const std::string& file,
                         std::uint32_t line, const std::string& func)>
          ins) {
    record_installer_ = std::move(ins);
  }
  /// Called once when a RANKDOWN arrives (trips the FaultInjector before
  /// the serving await throws RankKilled).
  void set_down_hook(std::function<void(int rank)> h) {
    down_hook_ = std::move(h);
  }

 protected:
  int nranks_;
  DataSink data_sink_;
  std::vector<OnewayFn> oneways_;
  std::vector<RpcFn> rpcs_;
  std::function<void(int, std::vector<std::byte>)> slot_writer_;
  std::function<void(int, std::uint32_t, const std::string&, std::uint32_t,
                     const std::string&)>
      record_installer_;
  std::function<void(int)> down_hook_;
};

/// All ranks are std::threads in this address space: delivery is the
/// direct synchronous call (the transport runs the receiver state machine
/// on the sender's thread), the barrier is a std::barrier. The remote
/// delivery entry points are unreachable by construction.
class InProcessFabric final : public Fabric {
 public:
  explicit InProcessFabric(int nranks) : Fabric(nranks) {
    barrier_.emplace(nranks);
  }

  [[nodiscard]] bool multiprocess() const noexcept override { return false; }

  void ship(std::uint32_t, int, int, const std::vector<std::byte>&) override {
    throw std::logic_error("InProcessFabric: ship() on a local fabric");
  }
  void send_oneway(std::uint32_t, int, std::vector<std::byte>) override {
    throw std::logic_error("InProcessFabric: send_oneway() on a local fabric");
  }
  std::vector<std::byte> rpc(std::uint32_t, int,
                             std::vector<std::byte>) override {
    throw std::logic_error("InProcessFabric: rpc() on a local fabric");
  }
  void poll_until(const std::function<bool()>& done) override {
    // Local delivery is synchronous: anything awaited is already done.
    assert(done());
    (void)done;
  }

  void barrier(const BarrierPoint&) override { barrier_->arrive_and_wait(); }
  void abandon(int) override { barrier_->arrive_and_drop(); }
  std::vector<std::vector<std::byte>> serial_exchange(
      std::vector<std::byte> mine) override {
    std::vector<std::vector<std::byte>> out;
    out.push_back(std::move(mine));
    return out;
  }

  /// Rebuild the barrier at full strength: arrive_and_drop from a
  /// RankKilled unwind shrank the expected count for good, and
  /// std::barrier is neither movable nor resettable — re-emplace it.
  void reset_sync() override { barrier_.emplace(nranks_); }

 private:
  // optional<>: see reset_sync.
  std::optional<std::barrier<>> barrier_;
};

/// One rank per OS process over Unix-domain sockets through a router
/// thread in the coordinating (rank 0) process. Nonblocking buffered I/O
/// on every connection: an endpoint that must wait (barrier release, RPC
/// response, outstanding replies) serves inbound frames meanwhile, and a
/// blocked write drains reads into the inbox so the router/endpoint pair
/// can never deadlock on full socket buffers.
class SocketFabric final : public Fabric {
 public:
  /// Rank 0 + router: bind `socket_path`, spawn nranks-1 workers by
  /// fork/exec of `worker_argv` + ["--worker-rank", R], handshake
  /// (HELLO/ROSTER), start routing.
  static std::unique_ptr<SocketFabric> coordinator(
      int nranks, const std::string& socket_path,
      const std::vector<std::string>& worker_argv);
  /// Worker rank `my_rank`: connect to the coordinator's socket.
  static std::unique_ptr<SocketFabric> worker(int nranks, int my_rank,
                                              const std::string& socket_path);

  ~SocketFabric() override;

  [[nodiscard]] bool multiprocess() const noexcept override { return true; }
  [[nodiscard]] int my_rank() const noexcept override { return my_rank_; }
  /// Worker process ids, for reaping/killing on resume (coordinator only).
  [[nodiscard]] const std::vector<long>& worker_pids() const noexcept {
    return pids_;
  }

  void ship(std::uint32_t channel, int src, int dst,
            const std::vector<std::byte>& envelope) override;
  void send_oneway(std::uint32_t service, int dst,
                   std::vector<std::byte> payload) override;
  std::vector<std::byte> rpc(std::uint32_t service, int dst,
                             std::vector<std::byte> payload) override;
  void poll_until(const std::function<bool()>& done) override;

  void barrier(const BarrierPoint& pt) override;
  void abandon(int rank) override;
  std::vector<std::vector<std::byte>> serial_exchange(
      std::vector<std::byte> mine) override;
  void announce_down(int rank) override;

 private:
  struct Router;

  SocketFabric(int nranks, int my_rank);

  void send_frame(const Frame& f);
  void pump_writes();
  void read_ready();
  bool dispatch_one();
  void check_down();
  void await(const std::function<bool()>& done);

  int my_rank_ = 0;
  int fd_ = -1;
  std::vector<std::byte> rx_;
  std::vector<std::byte> tx_;
  std::deque<Frame> inbox_;

  // Barrier state: last published slot (delta detection) + release flag.
  std::vector<std::byte> last_pub_;
  bool have_pub_ = false;
  bool released_ = false;

  bool rpc_pending_ = false;
  std::optional<std::vector<std::byte>> rpc_resp_;
  std::optional<std::vector<std::vector<std::byte>>> serial_resp_;

  int down_rank_ = -1;
  bool down_delivered_ = false;
  bool announced_down_ = false;

  // Coordinator only.
  std::unique_ptr<Router> router_;
  std::thread router_thread_;
  std::vector<long> pids_;
};

}  // namespace hipmer::pgas
