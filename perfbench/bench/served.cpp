#include "served.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "server/client.hpp"
#include "server/job_server.hpp"

namespace perfbench {

namespace hm = hipmer;
namespace fs = std::filesystem;

namespace {

constexpr const char* kSocket = "srv.sock";
constexpr auto kPollInterval = std::chrono::milliseconds(2);

/// A job server serving on its own thread of this process, on fresh state.
class LocalServer {
 public:
  /// Launches and blocks until the control socket answers PING; the
  /// launch-to-PING time is `ready_s()`.
  explicit LocalServer(const std::string& state_dir) {
    const auto t0 = Clock::now();
    hm::server::ServerConfig sc;
    sc.listen_path = kSocket;
    sc.ranks = kRanks;
    sc.cores = kRanksPerNode;
    sc.state_dir = state_dir;
    server_ = std::make_unique<hm::server::JobServer>(sc);
    thread_ = std::thread([this] { (void)server_->serve(); });
    // Tight retry: the bind race is sub-millisecond and is what is timed.
    for (int i = 0; i < 100'000; ++i) {
      const auto pong = hm::server::request(kSocket, "PING");
      if (pong && pong->ok()) {
        ready_s_ = seconds_since(t0);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    shutdown();
    throw std::runtime_error("job server never answered PING");
  }

  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  ~LocalServer() { shutdown(); }

  [[nodiscard]] double ready_s() const { return ready_s_; }

  void shutdown() {
    if (!thread_.joinable()) return;
    (void)hm::server::request(kSocket, "SHUTDOWN");
    thread_.join();
    server_.reset();
  }

 private:
  std::unique_ptr<hm::server::JobServer> server_;
  std::thread thread_;
  double ready_s_ = 0.0;
};

/// fsyncs every file and directory under the work directory.
void flush_work_dir() {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(".", ec), end; !ec && it != end;
       it.increment(ec)) {
    const int fd = ::open(it->path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// Launches `n` servers one after another, each on fresh state, and adds
/// each launch-to-PING time to `out`. Each launch fsyncs a fresh journal;
/// the run's own unwritten inputs and outputs would otherwise flush inside
/// those fsyncs, which more than doubled the spread of the launch time
/// between runs.
void time_launches(int n, Samples& out) {
  if (n > 0) flush_work_dir();
  for (int i = 0; i < n; ++i) {
    const std::string dir = "setup_state" + std::to_string(i);
    {
      LocalServer probe(dir);
      out.add(probe.ready_s());
    }
    fs::remove_all(dir);
  }
}

/// Submit, wait, fetch RESULT, check the output. Never throws.
ServedJob run_one_job(const std::string& args, const std::string& out_path,
                      const std::string& tenant, const std::string& reference,
                      int input) {
  ServedJob job;
  job.input = input;
  const auto t0 = Clock::now();
  const auto ack = hm::server::request(
      kSocket, "SUBMIT " + args + " out=" + out_path + " tenant=" + tenant);
  job.ack_ms = seconds_since(t0) * 1e3;
  if (!ack || !ack->ok()) {
    std::printf("  job refused: %s\n", ack ? ack->first().c_str() : "no reply");
    return job;
  }
  const std::string id = hm::server::response_field(ack->first(), "id", "0");
  std::string state;
  for (;;) {
    const auto status = hm::server::request(kSocket, "STATUS id=" + id);
    if (!status || !status->ok()) break;
    state = hm::server::response_field(status->first(), "state");
    if (state == "done" || state == "failed" || state == "cancelled" ||
        state == "quarantined") {
      job.cache_hit =
          hm::server::response_field(status->first(), "cache_hit") == "1";
      break;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  job.latency_s = seconds_since(t0);
  if (state != "done") {
    std::printf("  job %s ended %s\n", id.c_str(), state.c_str());
    return job;
  }
  if (const auto result = hm::server::request(kSocket, "RESULT id=" + id)) {
    for (const auto& line : result->lines) {
      char name[64];
      double wall = 0.0;
      double modeled = 0.0;
      if (std::sscanf(line.c_str(), "STAGE %63s %lf %lf", name, &wall,
                      &modeled) != 3)
        continue;
      job.exec_s += wall;
      job.modeled_s += modeled;
      if (std::string(name) == "checkpoint") job.ckpt_s += wall;
    }
  }
  job.ok = job.exec_s > 0.0 && read_file(out_path) == reference;
  if (!job.ok) std::printf("  job %s output differs from one-shot\n", id.c_str());
  std::error_code ec;
  fs::remove(out_path, ec);
  return job;
}

}  // namespace

ServedSession run_served(const std::vector<Input>& inputs,
                         const std::vector<std::string>& reference_fasta,
                         const ServedPlan& plan) {
  ServedSession session;
  time_launches(plan.setup_launches, session.setup_s);

  // Input schedule: a seeded permutation walked round robin, so every
  // input's first submission misses the artifact cache and later ones hit.
  std::vector<int> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(plan.seed));
  std::vector<std::string> args;
  for (const auto& in : inputs) args.push_back(submit_args(in));
  fs::create_directories("out");

  LocalServer server("state");
  session.setup_s.add(server.ready_s());

  std::mutex mu;
  std::atomic<int> claimed{0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(plan.seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < plan.clients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = c % 2 == 0 ? "tenant_a" : "tenant_b";
      for (int j = 0; Clock::now() < deadline; ++j) {
        const int g = claimed.fetch_add(1);
        if (plan.max_jobs > 0 && g >= plan.max_jobs) break;
        const int input = order[static_cast<std::size_t>(g) % order.size()];
        const std::string out =
            "out/c" + std::to_string(c) + "_" + std::to_string(j) + ".fasta";
        auto job = run_one_job(args[static_cast<std::size_t>(input)], out,
                               tenant,
                               reference_fasta[static_cast<std::size_t>(input)],
                               input);
        std::lock_guard<std::mutex> lock(mu);
        session.jobs.push_back(job);
      }
    });
  }
  for (auto& t : clients) t.join();
  session.loop_wall_s = seconds_since(t0);

  if (const auto stats = hm::server::request(kSocket, "STATS")) {
    session.cache_hits = std::strtoull(
        hm::server::response_field(stats->first(), "cache_hits", "0").c_str(),
        nullptr, 10);
    session.cache_misses = std::strtoull(
        hm::server::response_field(stats->first(), "cache_misses", "0").c_str(),
        nullptr, 10);
  }
  server.shutdown();
  time_launches(plan.setup_launches, session.setup_s);
  return session;
}

MetricTable served_layer_metrics(const ServedSession& session) {
  Samples ack_ms, exec_s, overhead_s, ckpt_s;
  for (const auto& job : session.jobs) {
    ack_ms.add(job.ack_ms);
    if (!job.ok) continue;
    exec_s.add(job.exec_s);
    overhead_s.add(job.latency_s - job.exec_s);
    ckpt_s.add(job.ckpt_s);
  }
  const double lookups =
      static_cast<double>(session.cache_hits + session.cache_misses);
  MetricTable m;
  m["server.submit_ack_ms"] = {ack_ms.median(), "ms", ack_ms.size()};
  m["server.job_exec_s"] = {exec_s.median(), "s", exec_s.size()};
  m["server.job_overhead_s"] = {overhead_s.median(), "s", overhead_s.size()};
  m["server.cache_hit_rate"] = {
      lookups > 0 ? static_cast<double>(session.cache_hits) / lookups : 0.0,
      "ratio"};
  m["ckpt.snapshot_s_per_job"] = {ckpt_s.median(), "s", ckpt_s.size()};
  return m;
}

}  // namespace perfbench
