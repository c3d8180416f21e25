// Assembly-as-a-service throughput — what the job server sustains when
// tenants pile on.
//
// Three tables:
//
//   1. **Concurrent submissions**: 1/4/8 client threads submit the same
//      (input, config) job back-to-back and wait for completion, the
//      multi-tenant resubmission pattern the server exists for. The
//      executor runs one assembly at a time over the persistent team, so
//      this measures queueing + per-job reset overhead — and how far the
//      shared artifact cache bends the curve once the first job has
//      populated it.
//   2. **Cache miss vs hit**: per-stage wall of a cold job against an
//      identical resubmission. The hit skips the k-mer analysis stage
//      outright, which dominates a cold run's wall time.
//   3. **Crash recovery**: build a backlog, stop the server with the
//      backlog still queued, and time the restart — write-ahead journal
//      replay alone, restart until the control socket answers PING, and
//      the wall to drain the re-admitted backlog to completion.
//
// Correctness is asserted elsewhere (tests/test_server.cpp: served output
// is byte-identical to a one-shot run, hit or miss); this bench reports
// what the server side of that guarantee delivers.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "io/fastq.hpp"
#include "pipeline/pipeline.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "sim/datasets.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hipmer;
namespace fs = std::filesystem;

struct Harness {
  fs::path dir;
  std::string socket;
  std::string fastq;
  std::string submit_args;
  std::unique_ptr<server::JobServer> srv;
  std::thread thread;

  ~Harness() {
    (void)server::request(socket, "SHUTDOWN");
    thread.join();
    srv.reset();
    fs::remove_all(dir);
  }
};

std::unique_ptr<Harness> start_server(int ranks, std::uint64_t genome,
                                      std::uint64_t seed) {
  auto h = std::make_unique<Harness>();
  h->dir = fs::temp_directory_path() /
           ("hipmer_srvbench_" + std::to_string(std::random_device{}()));
  fs::create_directories(h->dir);
  h->socket = (h->dir / "ctl.sock").string();
  h->fastq = (h->dir / "reads.fastq").string();

  auto ds = sim::make_human_like(genome, seed, 15.0);
  if (!io::write_fastq(h->fastq, ds.reads[0])) return nullptr;
  char insert[32];
  std::snprintf(insert, sizeof insert, "%g", ds.libraries[0].mean_insert);
  h->submit_args =
      "reads=" + h->fastq + ":" + insert + " k=31 min_count=3 out=";

  server::ServerConfig sc;
  sc.listen_path = h->socket;
  sc.ranks = ranks;
  sc.cores = 4;
  sc.state_dir = (h->dir / "state").string();
  h->srv = std::make_unique<server::JobServer>(sc);
  auto* srv = h->srv.get();
  h->thread = std::thread([srv] { (void)srv->serve(); });
  return h;
}

/// SUBMIT one job and poll STATUS until terminal. Returns the job id, or 0
/// on failure.
std::uint64_t run_job(const Harness& h, const std::string& out,
                      const std::string& extra = "") {
  const auto resp = server::request_with_retry(
      h.socket, "SUBMIT " + h.submit_args + (h.dir / out).string() + extra,
      100, 50);
  if (!resp || !resp->ok()) return 0;
  const auto id = std::strtoull(
      server::response_field(resp->first(), "id", "0").c_str(), nullptr, 10);
  for (;;) {
    const auto status =
        server::request(h.socket, "STATUS id=" + std::to_string(id));
    if (!status || !status->ok()) return 0;
    const auto state = server::response_field(status->first(), "state");
    if (state == "done") return id;
    if (state == "failed" || state == "cancelled") return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Wall seconds of one stage from the RESULT reply (0 when absent — which
/// for kmer_analysis is exactly the cache-hit signature).
double stage_wall(const Harness& h, std::uint64_t id, const std::string& stage) {
  const auto resp = server::request(h.socket, "RESULT id=" + std::to_string(id));
  if (!resp) return 0.0;
  double total = 0.0;
  for (const auto& line : resp->lines) {
    char name[64];
    double wall = 0.0, modeled = 0.0;
    if (std::sscanf(line.c_str(), "STAGE %63s %lf %lf", name, &wall,
                    &modeled) == 3 &&
        stage == name)
      total += wall;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));
  const auto genome = static_cast<std::uint64_t>(opts.get_int("genome", 60000));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 4242));

  // ---- Cache miss vs hit ----
  // A dedicated server so the sweep below starts from its own cold cache.
  {
    auto h = start_server(ranks, genome, seed);
    if (!h) return 1;
    util::WallTimer cold_timer;
    const auto cold = run_job(*h, "cold.fasta");
    const double cold_wall = cold_timer.seconds();
    util::WallTimer warm_timer;
    const auto warm = run_job(*h, "warm.fasta");
    const double warm_wall = warm_timer.seconds();
    if (cold == 0 || warm == 0) return 1;

    const double cold_kmer = stage_wall(*h, cold, pipeline::kStageKmerAnalysis);
    const double warm_kmer = stage_wall(*h, warm, pipeline::kStageKmerAnalysis);
    util::TextTable table({"job", "job_wall_s", "kmer_wall_s", "speedup"});
    table.add_row({"cache_miss", util::TextTable::fmt(cold_wall, 3),
                   util::TextTable::fmt(cold_kmer, 3), "1.00x"});
    table.add_row({"cache_hit", util::TextTable::fmt(warm_wall, 3),
                   util::TextTable::fmt(warm_kmer, 3),
                   util::TextTable::fmt(cold_wall / warm_wall, 2) + "x"});
    bench::emit("server_cache", "artifact cache: miss vs hit", table);
  }

  // ---- Concurrent submissions ----
  util::TextTable table(
      {"clients", "jobs", "wall_s", "jobs_per_min", "cache_hits"});
  for (const int clients : {1, 4, 8}) {
    auto h = start_server(ranks, genome, seed);
    if (!h) return 1;
    // Each sweep point starts cold: the first completed job populates the
    // cache, the rest ride it — the steady state a busy server sits in.
    const int jobs_per_client = 2;
    std::atomic<int> completed{0};
    util::WallTimer timer;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        for (int j = 0; j < jobs_per_client; ++j) {
          std::string out = "c";
          out += std::to_string(c);
          out += '_';
          out += std::to_string(j);
          out += ".fasta";
          if (run_job(*h, out) != 0) completed.fetch_add(1);
        }
      });
    for (auto& t : threads) t.join();
    const double wall = timer.seconds();
    const int total = clients * jobs_per_client;
    if (completed.load() != total) {
      std::fprintf(stderr, "only %d/%d jobs completed\n", completed.load(),
                   total);
      return 1;
    }
    const auto stats = server::request(h->socket, "STATS");
    const std::string hits =
        stats ? server::response_field(stats->first(), "cache_hits", "0") : "0";
    table.add_row({std::to_string(clients), std::to_string(total),
                   util::TextTable::fmt(wall, 2),
                   util::TextTable::fmt(60.0 * total / wall, 1), hits});
  }
  bench::emit("server_throughput", "served jobs/min vs concurrent clients",
              table);

  // ---- Crash recovery ----
  // One completed job settles the artifact cache, then a backlog of
  // submissions is left queued when the server stops: SHUTDOWN halts
  // dispatch without draining, which is exactly the on-disk state a crash
  // leaves behind (journal with live SUBMITs and no FINISH). The restart
  // replays the journal, re-admits the backlog, and drains it.
  {
    auto h = start_server(ranks, genome, seed);
    if (!h) return 1;
    if (run_job(*h, "seed.fasta") == 0) return 1;

    const int backlog = 6;
    std::vector<std::uint64_t> ids;
    for (int j = 0; j < backlog; ++j) {
      const auto out = (h->dir / ("recov" + std::to_string(j) + ".fasta"));
      const auto resp = server::request_with_retry(
          h->socket, "SUBMIT " + h->submit_args + out.string(), 100, 50);
      if (!resp || !resp->ok()) return 1;
      ids.push_back(std::strtoull(
          server::response_field(resp->first(), "id", "0").c_str(), nullptr,
          10));
    }
    (void)server::request(h->socket, "SHUTDOWN");
    h->thread.join();
    h->srv.reset();

    // Replay latency in isolation: open the journal the stopped server
    // left behind and fold it back into a job table.
    const auto journal_path = (h->dir / "state" / "journal.bin").string();
    std::size_t records = 0;
    double replay_ms = 0.0;
    {
      util::WallTimer replay_timer;
      server::JobJournal journal(journal_path);
      const auto replay = journal.open_and_replay();
      if (!replay) return 1;
      const auto jobs = server::reconstruct_jobs(replay->events);
      replay_ms = replay_timer.seconds() * 1e3;
      records = replay->events.size();
      if (jobs.empty()) return 1;
    }

    // Restart on the same state dir and time until the control plane
    // answers, then until the recovered backlog has fully drained.
    server::ServerConfig sc;
    sc.listen_path = h->socket;
    sc.ranks = ranks;
    sc.cores = 4;
    sc.state_dir = (h->dir / "state").string();
    util::WallTimer restart_timer;
    h->srv = std::make_unique<server::JobServer>(sc);
    auto* srv = h->srv.get();
    h->thread = std::thread([srv] { (void)srv->serve(); });
    const auto ping = server::request_with_retry(h->socket, "PING", 400, 5);
    if (!ping || !ping->ok()) return 1;
    const double ready_ms = restart_timer.seconds() * 1e3;

    int recovered = 0;
    for (const auto id : ids) {
      for (;;) {
        const auto status =
            server::request(h->socket, "STATUS id=" + std::to_string(id));
        if (!status || !status->ok()) return 1;
        const auto state = server::response_field(status->first(), "state");
        if (state == "done") {
          ++recovered;
          break;
        }
        if (state == "failed" || state == "cancelled" ||
            state == "quarantined")
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    const double drain_s = restart_timer.seconds();
    if (recovered != backlog) {
      std::fprintf(stderr, "only %d/%d backlog jobs recovered\n", recovered,
                   backlog);
      return 1;
    }

    util::TextTable recovery({"scenario", "backlog_jobs", "journal_records",
                              "replay_ms", "ready_ms", "drain_s",
                              "recovered"});
    recovery.add_row({"stop_restart", std::to_string(backlog),
                      std::to_string(records),
                      util::TextTable::fmt(replay_ms, 3),
                      util::TextTable::fmt(ready_ms, 1),
                      util::TextTable::fmt(drain_s, 2),
                      std::to_string(recovered)});
    bench::emit("server_recovery",
                "crash recovery: journal replay + backlog drain", recovery);
  }
  return 0;
}
