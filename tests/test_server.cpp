// Assembly-as-a-service job server: control protocol framing, SUBMIT
// parsing, artifact cache integrity, job queue admission/scheduling, and
// end-to-end served assemblies over a live Unix socket — byte-identity
// against one-shot runs, cache hits skipping k-mer analysis, cancel and
// fault containment on the persistent team, and tenant checkpoint
// isolation.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "pipeline/pipeline.hpp"
#include "server/artifact_cache.hpp"
#include "server/client.hpp"
#include "server/job_queue.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "sim/datasets.hpp"

namespace hipmer {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const auto dir =
      fs::temp_directory_path() /
      ("hipmer_" + tag + "_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  return dir;
}

// ---- Protocol framing ----

TEST(Protocol, FrameRoundTrip) {
  for (const std::string& text :
       {std::string("SUBMIT reads=a.fastq out=b.fasta"), std::string(""),
        std::string("END"), std::string("STATS queued=0")}) {
    // frame_line yields the wire form (trailing '\n'); unframe_line takes
    // the line as LineReader hands it back, newline stripped.
    std::string framed = server::frame_line(text);
    ASSERT_EQ(framed.back(), '\n');
    framed.pop_back();
    const auto back = server::unframe_line(framed);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, text);
  }
}

TEST(Protocol, CorruptionIsDetected) {
  std::string framed = server::frame_line("SUBMIT reads=a.fastq out=b.fasta");
  framed.pop_back();
  // Flip every byte in turn: each corruption must be rejected, never
  // mis-parsed.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::string bad = framed;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    EXPECT_FALSE(server::unframe_line(bad).has_value()) << "byte " << i;
  }
  EXPECT_FALSE(server::unframe_line("nonsense").has_value());
  EXPECT_FALSE(server::unframe_line("").has_value());
  EXPECT_FALSE(server::unframe_line("zzzzzzzz PING").has_value());
}

TEST(Protocol, ParseCommand) {
  const auto cmd =
      server::parse_command("SUBMIT reads=a.fastq:395 out=x.fasta priority=2");
  EXPECT_EQ(cmd.verb, "SUBMIT");
  EXPECT_EQ(cmd.get("reads"), "a.fastq:395");
  EXPECT_EQ(cmd.get("priority"), "2");
  EXPECT_EQ(cmd.get("absent", "fallback"), "fallback");
  EXPECT_TRUE(cmd.has("out"));
  EXPECT_FALSE(cmd.has("tenant"));
}

TEST(Protocol, ResponseField) {
  const std::string line = "JOB id=7 state=done cache_hit=1 out=x.fasta";
  EXPECT_EQ(server::response_field(line, "id"), "7");
  EXPECT_EQ(server::response_field(line, "state"), "done");
  EXPECT_EQ(server::response_field(line, "out"), "x.fasta");
  // "hit" must not match inside "cache_hit".
  EXPECT_EQ(server::response_field(line, "hit", "none"), "none");
  EXPECT_EQ(server::response_field(line, "missing", "none"), "none");
}

TEST(Protocol, LineReaderSplitsBufferedLines) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string wire = "aaa\nbbb\n\nccc\n";
  ASSERT_EQ(::write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ::close(fds[1]);
  server::LineReader reader(fds[0]);
  const char* expected[] = {"aaa", "bbb", "", "ccc"};
  for (const auto* want : expected) {
    const auto line = reader.next();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, want);
  }
  // EOF; the stream held no further complete line.
  EXPECT_FALSE(reader.next().has_value());
  ::close(fds[0]);
}

TEST(Protocol, LineReaderDropsRunawayUnterminatedLine) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // kMaxLineBytes of data with no newline: the reader must give up
  // rather than buffer without bound. (Exactly one pipe capacity, so the
  // write cannot block.)
  const std::string flood(server::kMaxLineBytes, 'x');
  ASSERT_EQ(::write(fds[1], flood.data(), flood.size()),
            static_cast<ssize_t>(flood.size()));
  server::LineReader reader(fds[0]);
  EXPECT_FALSE(reader.next().has_value());
  ::close(fds[1]);
  ::close(fds[0]);
}

TEST(Protocol, LineReaderIdleTimeout) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Writer stays open but sends nothing: without the timeout this would
  // block forever.
  server::LineReader reader(fds[0], /*idle_timeout_ms=*/150);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(reader.next().has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ::close(fds[1]);
  ::close(fds[0]);
}

TEST(Protocol, LineReaderStopFlag) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> stop{false};
  server::LineReader reader(fds[0], /*idle_timeout_ms=*/-1, &stop);
  std::thread trip([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
  });
  EXPECT_FALSE(reader.next().has_value());
  trip.join();
  ::close(fds[1]);
  ::close(fds[0]);
}

// ---- SUBMIT parsing ----

server::Command submit_cmd(const std::string& args) {
  return server::parse_command("SUBMIT " + args);
}

TEST(ParseSubmit, ValidationErrors) {
  const auto dir = fresh_dir("submit");
  const auto fastq = (dir / "reads.fastq").string();
  std::ofstream(fastq) << "@r/1\nACGT\n+\nIIII\n";

  server::JobSpec spec;
  std::string error;
  EXPECT_FALSE(server::JobServer::parse_submit(submit_cmd("out=x.fasta"),
                                               &spec, &error));
  EXPECT_EQ(error, "missing-reads");

  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd("reads=/no/such/file.fastq out=x.fasta"), &spec, &error));
  EXPECT_EQ(error, "input-missing");

  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(submit_cmd("reads=" + fastq),
                                               &spec, &error));
  EXPECT_EQ(error, "missing-out");

  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd("reads=" + fastq + " out=x.fasta tenant=../evil"), &spec,
      &error));
  EXPECT_EQ(error, "bad-tenant");

  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd("reads=" + fastq + " out=x.fasta k=3"), &spec, &error));
  EXPECT_EQ(error, "bad-config");

  // Only the CLI's `assemble` picks the cutoff itself; a served job that
  // asks for it is refused rather than assembled at the default.
  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd("reads=" + fastq + " out=x.fasta min_count=auto"), &spec,
      &error));
  EXPECT_EQ(error, "bad-config");

  fs::remove_all(dir);
}

TEST(ParseSubmit, KillSpecValidation) {
  const auto dir = fresh_dir("submitkill");
  const auto fastq = (dir / "reads.fastq").string();
  std::ofstream(fastq) << "@r/1\nACGT\n+\nIIII\n";
  const std::string base = "reads=" + fastq + " out=x.fasta ";

  // A soft (throwing) kill is a legitimate per-job chaos rider.
  server::JobSpec spec;
  std::string error;
  EXPECT_TRUE(server::JobServer::parse_submit(
      submit_cmd(base + "kill=1@contig_generation"), &spec, &error))
      << error;
  EXPECT_EQ(spec.kill_spec, "1@contig_generation");

  // A hard kill would SIGKILL the whole server process, not the job:
  // reject it at the door.
  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd(base + "kill=1@contig_generation,hard"), &spec, &error));
  EXPECT_EQ(error, "bad-kill");

  // A malformed spec is rejected at submit, not at execute.
  spec = {};
  EXPECT_FALSE(server::JobServer::parse_submit(
      submit_cmd(base + "kill=nonsense"), &spec, &error));
  EXPECT_EQ(error, "bad-kill");
  fs::remove_all(dir);
}

TEST(ParseSubmit, LibrariesAndOptions) {
  const auto dir = fresh_dir("submit2");
  const auto pe = (dir / "pe.fastq").string();
  const auto mp = (dir / "mp.fastq").string();
  std::ofstream(pe) << "@r/1\nACGT\n+\nIIII\n";
  std::ofstream(mp) << "@r/1\nACGTACGT\n+\nIIIIIIII\n";

  server::JobSpec spec;
  std::string error;
  ASSERT_TRUE(server::JobServer::parse_submit(
      submit_cmd("reads=" + pe + ":395," + mp +
                 ":4200:s out=x.fasta tenant=acme priority=3 k=25 "
                 "min_count=3 rounds=2 diploid=1 cache=0"),
      &spec, &error))
      << error;
  ASSERT_EQ(spec.libraries.size(), 2u);
  EXPECT_EQ(spec.libraries[0].name, "lib0");
  EXPECT_DOUBLE_EQ(spec.libraries[0].mean_insert, 395.0);
  EXPECT_TRUE(spec.libraries[0].for_contigging);
  EXPECT_EQ(spec.libraries[1].name, "lib1");
  EXPECT_DOUBLE_EQ(spec.libraries[1].mean_insert, 4200.0);
  EXPECT_FALSE(spec.libraries[1].for_contigging);
  EXPECT_EQ(spec.tenant, "acme");
  EXPECT_EQ(spec.priority, 3);
  EXPECT_EQ(spec.k, 25);
  EXPECT_EQ(spec.min_count, 3u);
  EXPECT_EQ(spec.rounds, 2);
  EXPECT_TRUE(spec.diploid);
  EXPECT_FALSE(spec.use_cache);
  // Admission estimate is the summed input size.
  EXPECT_EQ(spec.estimated_bytes, fs::file_size(pe) + fs::file_size(mp));
  fs::remove_all(dir);
}

// ---- Artifact cache ----

TEST(ArtifactCache, StoreLookupRoundTrip) {
  const auto dir = fresh_dir("cache");
  server::ArtifactCache cache(dir);

  std::vector<std::vector<std::byte>> shards(3);
  for (std::size_t s = 0; s < shards.size(); ++s)
    for (int i = 0; i < 64; ++i)
      shards[s].push_back(static_cast<std::byte>(s * 64 + i));
  ckpt::AuxStats aux;
  aux.distinct_kmers = 1234;
  aux.singleton_fraction = 0.25;
  aux.heavy_hitters = 7;

  EXPECT_FALSE(cache.lookup_ufx(42).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  ASSERT_TRUE(cache.store_ufx(42, shards, aux));
  const auto hit = cache.lookup_ufx(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->shards, shards);
  EXPECT_EQ(hit->aux.distinct_kmers, 1234u);
  EXPECT_DOUBLE_EQ(hit->aux.singleton_fraction, 0.25);
  EXPECT_EQ(hit->aux.heavy_hitters, 7u);
  EXPECT_EQ(cache.hits(), 1u);

  // A different key still misses.
  EXPECT_FALSE(cache.lookup_ufx(43).has_value());
  fs::remove_all(dir);
}

TEST(ArtifactCache, CorruptEntryIsAMissAndIsEvicted) {
  const auto dir = fresh_dir("cachecorrupt");
  server::ArtifactCache cache(dir);
  std::vector<std::vector<std::byte>> shards{
      {std::byte{1}, std::byte{2}, std::byte{3}}};
  ASSERT_TRUE(cache.store_ufx(9, shards, ckpt::AuxStats{}));

  // Flip a byte in the stored shard: lookup must reject the entry and
  // remove it so a later store can repopulate.
  fs::path shard_file;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.path().filename() == "ufx.0") shard_file = entry.path();
  ASSERT_FALSE(shard_file.empty());
  {
    std::fstream f(shard_file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(1);
    f.put('\x7f');
  }
  EXPECT_FALSE(cache.lookup_ufx(9).has_value());
  EXPECT_FALSE(fs::exists(shard_file.parent_path()));

  // Repopulate after eviction works.
  ASSERT_TRUE(cache.store_ufx(9, shards, ckpt::AuxStats{}));
  EXPECT_TRUE(cache.lookup_ufx(9).has_value());
  fs::remove_all(dir);
}

TEST(ArtifactCache, TornStoreIsAnOrdinaryMiss) {
  const auto dir = fresh_dir("cachetorn");
  server::ArtifactCache cache(dir);
  std::vector<std::vector<std::byte>> shards{{std::byte{5}}};
  ASSERT_TRUE(cache.store_ufx(11, shards, ckpt::AuxStats{}));
  // Simulate a torn store: shards landed but meta.bin (the commit point)
  // did not.
  fs::path meta;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.path().filename() == "meta.bin") meta = entry.path();
  ASSERT_FALSE(meta.empty());
  fs::remove(meta);
  EXPECT_FALSE(cache.lookup_ufx(11).has_value());
  fs::remove_all(dir);
}

// ---- Job queue ----

server::JobSpec spec_bytes(std::uint64_t bytes, int priority = 0) {
  server::JobSpec spec;
  spec.estimated_bytes = bytes;
  spec.priority = priority;
  spec.output_path = "out.fasta";
  return spec;
}

TEST(JobQueue, AdmissionControl) {
  server::AdmissionConfig admission;
  admission.max_queued = 2;
  admission.max_resident_bytes = 1000;
  server::JobQueue queue(admission);
  std::string error;

  EXPECT_NE(queue.submit(spec_bytes(400), &error), 0u);
  EXPECT_NE(queue.submit(spec_bytes(400), &error), 0u);
  // Queue depth cap.
  EXPECT_EQ(queue.submit(spec_bytes(1), &error), 0u);
  EXPECT_EQ(error, "queue-full");

  // Memory budget cap: pop one (it stays resident as running), so depth
  // allows another but 400+400+300 would bust the byte budget.
  auto* running = queue.pop_next();
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(queue.submit(spec_bytes(300), &error), 0u);
  EXPECT_EQ(error, "memory-budget");
  EXPECT_NE(queue.submit(spec_bytes(200), &error), 0u);

  // Finishing a job releases its estimate; popping one of the two queued
  // jobs frees a queue slot, so a 300-byte job now fits both budgets.
  queue.finish(running, server::JobState::kDone, {});
  auto* next = queue.pop_next();
  ASSERT_NE(next, nullptr);
  EXPECT_NE(queue.submit(spec_bytes(300), &error), 0u);
  queue.finish(next, server::JobState::kDone, {});
  queue.shutdown();
}

TEST(JobQueue, PriorityThenFifoOrder) {
  server::JobQueue queue(server::AdmissionConfig{});
  std::string error;
  const auto a = queue.submit(spec_bytes(1, 0), &error);
  const auto b = queue.submit(spec_bytes(1, 5), &error);
  const auto c = queue.submit(spec_bytes(1, 5), &error);
  const auto d = queue.submit(spec_bytes(1, 1), &error);
  ASSERT_TRUE(a && b && c && d);

  // Dispatch: priority desc, FIFO within priority.
  const std::uint64_t expected[] = {b, c, d, a};
  for (const auto id : expected) {
    auto* job = queue.pop_next();
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->spec.id, id);
    queue.finish(job, server::JobState::kDone, {});
  }
  queue.shutdown();
  EXPECT_EQ(queue.pop_next(), nullptr);
}

TEST(JobQueue, CancelSemantics) {
  server::JobQueue queue(server::AdmissionConfig{});
  std::string error;
  const auto a = queue.submit(spec_bytes(1), &error);
  const auto b = queue.submit(spec_bytes(1), &error);
  ASSERT_TRUE(a && b);

  auto* running = queue.pop_next();
  ASSERT_EQ(running->spec.id, a);

  // Cancelling a queued job is immediate.
  EXPECT_TRUE(queue.cancel(b));
  EXPECT_EQ(queue.status(b)->state, server::JobState::kCancelled);
  // Cancelling it again (terminal) fails, as does an unknown id.
  EXPECT_FALSE(queue.cancel(b));
  EXPECT_FALSE(queue.cancel(999));

  // Cancelling the running job only raises the flag; the executor lands
  // the terminal state.
  EXPECT_TRUE(queue.cancel(a));
  EXPECT_EQ(queue.status(a)->state, server::JobState::kRunning);
  EXPECT_TRUE(running->cancel_requested.load());
  queue.finish(running, server::JobState::kCancelled, {});
  EXPECT_EQ(queue.status(a)->state, server::JobState::kCancelled);

  const auto counters = queue.counters();
  EXPECT_EQ(counters.cancelled, 2u);
  queue.shutdown();
}

TEST(JobQueue, TerminalHistoryIsCappedPerTenant) {
  server::AdmissionConfig admission;
  admission.max_retained_terminal = 2;
  server::JobQueue queue(admission);
  std::string error;

  auto run_one = [&](const std::string& tenant) {
    auto spec = spec_bytes(1);
    spec.tenant = tenant;
    const auto id = queue.submit(std::move(spec), &error);
    EXPECT_NE(id, 0u) << error;
    auto* job = queue.pop_next();
    EXPECT_EQ(job->spec.id, id);
    queue.finish(job, server::JobState::kDone, {});
    return id;
  };

  std::vector<std::uint64_t> alice;
  for (int i = 0; i < 4; ++i) alice.push_back(run_one("alice"));
  const auto bob = run_one("bob");

  // Alice keeps only her newest two records; bob's history is untouched
  // by her eviction.
  EXPECT_FALSE(queue.status(alice[0]).has_value());
  EXPECT_FALSE(queue.status(alice[1]).has_value());
  EXPECT_TRUE(queue.status(alice[2]).has_value());
  EXPECT_TRUE(queue.status(alice[3]).has_value());
  EXPECT_TRUE(queue.status(bob).has_value());

  // Totals survive eviction — counters are accumulated, not rescanned.
  EXPECT_EQ(queue.counters().completed, 5u);
  queue.shutdown();
}

TEST(JobQueue, ShutdownStopsDispatchWithoutDrainingBacklog) {
  server::JobQueue queue(server::AdmissionConfig{});
  std::string error;
  ASSERT_NE(queue.submit(spec_bytes(1), &error), 0u);
  queue.shutdown();
  // SHUTDOWN means stop dispatching, not run the backlog to completion.
  EXPECT_EQ(queue.pop_next(), nullptr);
  // Post-shutdown submissions are rejected.
  EXPECT_EQ(queue.submit(spec_bytes(1), &error), 0u);
  EXPECT_EQ(error, "shutting-down");
}

// ---- End-to-end over a live socket ----

/// A live server over a simulated dataset written to FASTQ, plus a
/// one-shot reference pipeline result for byte-identity checks.
class ServedAssembly : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new SuiteState;
    state_->dir = fresh_dir("served");
    auto ds = sim::make_human_like(20000, 4242, 15.0);
    state_->fastq = (state_->dir / "reads.fastq").string();
    ASSERT_TRUE(io::write_fastq(state_->fastq, ds.reads[0]));
    state_->insert = ds.libraries[0].mean_insert;

    // One-shot reference: the exact config a plain `SUBMIT k=25
    // min_count=3` maps to.
    pipeline::PipelineConfig cfg;
    cfg.k = 25;
    cfg.kmer.min_count = 3;
    cfg.merge_bubbles = false;
    cfg.sync_k();
    pipeline::Pipeline reference(pgas::Topology{4, 4}, cfg);
    // Mirror exactly what a SUBMIT line transmits: lib0 naming, the mean
    // insert, and no stddev (the protocol does not carry one).
    auto libs = ds.libraries;
    libs[0].name = "lib0";
    libs[0].fastq_path = state_->fastq;
    libs[0].stddev_insert = 0.0;
    state_->expected = reference.run_from_fastq(libs).scaffolds;
    ASSERT_FALSE(state_->expected.empty());

    server::ServerConfig sc;
    sc.listen_path = (state_->dir / "ctl.sock").string();
    sc.ranks = 4;
    sc.cores = 4;
    sc.state_dir = (state_->dir / "state").string();
    sc.keep_last = 1;
    state_->server = std::make_unique<server::JobServer>(sc);
    state_->thread = std::thread([] { (void)state_->server->serve(); });
  }

  static void TearDownTestSuite() {
    (void)request("SHUTDOWN");
    state_->thread.join();
    state_->server.reset();
    fs::remove_all(state_->dir);
    delete state_;
    state_ = nullptr;
  }

  static std::optional<server::Response> request(const std::string& command) {
    return server::request_with_retry((state_->dir / "ctl.sock").string(),
                                      command, 100, 50);
  }

  /// SUBMIT and return the job id (0 on rejection).
  static std::uint64_t submit(const std::string& args) {
    const auto resp = request("SUBMIT " + args);
    if (!resp || !resp->ok()) return 0;
    return std::strtoull(
        server::response_field(resp->first(), "id", "0").c_str(), nullptr, 10);
  }

  /// Poll STATUS until the job reaches a terminal state.
  static std::string await(std::uint64_t id) {
    for (int i = 0; i < 3000; ++i) {
      const auto resp = request("STATUS id=" + std::to_string(id));
      if (!resp || !resp->ok()) return "protocol-error";
      const auto state = server::response_field(resp->first(), "state");
      if (state == "done" || state == "failed" || state == "cancelled" ||
          state == "quarantined")
        return state;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return "timeout";
  }

  /// Stage names from the RESULT reply, in execution order.
  static std::vector<std::string> stages(std::uint64_t id) {
    std::vector<std::string> names;
    const auto resp = request("RESULT id=" + std::to_string(id));
    if (!resp) return names;
    for (const auto& line : resp->lines)
      if (line.rfind("STAGE ", 0) == 0) {
        const auto rest = line.substr(6);
        names.push_back(rest.substr(0, rest.find(' ')));
      }
    return names;
  }

  static std::string submit_args(const std::string& out,
                                 const std::string& extra = "") {
    char insert[32];
    std::snprintf(insert, sizeof insert, "%g", state_->insert);
    return "reads=" + state_->fastq + ":" + insert + " out=" +
           (state_->dir / out).string() + " k=25 min_count=3" +
           (extra.empty() ? "" : " " + extra);
  }

  static void expect_matches_reference(const std::string& out) {
    const auto got = io::read_fasta((state_->dir / out).string());
    ASSERT_EQ(got.size(), state_->expected.size()) << out;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, state_->expected[i].name) << out << " " << i;
      EXPECT_EQ(got[i].seq, state_->expected[i].seq) << out << " " << i;
    }
  }

  struct SuiteState {
    fs::path dir;
    std::string fastq;
    double insert = 0.0;
    std::vector<io::FastaRecord> expected;
    std::unique_ptr<server::JobServer> server;
    std::thread thread;
  };
  static SuiteState* state_;
};

ServedAssembly::SuiteState* ServedAssembly::state_ = nullptr;

bool has_stage(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

TEST_F(ServedAssembly, SequentialJobsMatchOneShotAndSecondHitsCache) {
  // Job 1: cold — computes k-mer analysis and populates the cache.
  const auto j1 = submit(submit_args("served1.fasta"));
  ASSERT_NE(j1, 0u);
  ASSERT_EQ(await(j1), "done");
  expect_matches_reference("served1.fasta");
  EXPECT_TRUE(has_stage(stages(j1), pipeline::kStageKmerAnalysis));

  // Job 2: identical (input, config) — the cache hit skips k-mer analysis
  // entirely, and the output is still byte-identical.
  const auto j2 = submit(submit_args("served2.fasta"));
  ASSERT_NE(j2, 0u);
  ASSERT_EQ(await(j2), "done");
  expect_matches_reference("served2.fasta");
  const auto result = request("RESULT id=" + std::to_string(j2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(server::response_field(result->first(), "cache_hit"), "1");
  EXPECT_FALSE(has_stage(stages(j2), pipeline::kStageKmerAnalysis));

  // Job 3: different config (k) — a different artifact key, so k-mer
  // analysis runs again.
  const auto j3 = submit("reads=" + state_->fastq + " out=" +
                         (state_->dir / "served3.fasta").string() +
                         " k=31 min_count=3");
  ASSERT_NE(j3, 0u);
  ASSERT_EQ(await(j3), "done");
  EXPECT_TRUE(has_stage(stages(j3), pipeline::kStageKmerAnalysis));

  const auto stats = request("STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(server::response_field(stats->first(), "cache_hits"), "1");
}

TEST_F(ServedAssembly, ConcurrentlyQueuedJobsAllComplete) {
  // Submit three jobs back-to-back without waiting: one runs, two queue.
  const auto a = submit(submit_args("conc_a.fasta"));
  const auto b = submit(submit_args("conc_b.fasta"));
  const auto c = submit(submit_args("conc_c.fasta"));
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(await(a), "done");
  EXPECT_EQ(await(b), "done");
  EXPECT_EQ(await(c), "done");
  expect_matches_reference("conc_a.fasta");
  expect_matches_reference("conc_b.fasta");
  expect_matches_reference("conc_c.fasta");
}

TEST_F(ServedAssembly, CancelQueuedAndRunningLeavesTeamReusable) {
  // A long job (several scaffolding rounds) pins the executor while we
  // cancel the job queued behind it — that cancel is deterministic.
  const auto running = submit(submit_args("cancel_run.fasta", "rounds=3"));
  const auto queued = submit(submit_args("cancel_q.fasta"));
  ASSERT_TRUE(running && queued);
  const auto cancel = request("CANCEL id=" + std::to_string(queued));
  ASSERT_TRUE(cancel.has_value());
  EXPECT_TRUE(cancel->ok());
  EXPECT_EQ(await(queued), "cancelled");
  EXPECT_FALSE(fs::exists(state_->dir / "cancel_q.fasta"));

  // Cancel the running job mid-stage; the pipeline aborts at the next
  // stage boundary without wounding the team.
  EXPECT_TRUE(request("CANCEL id=" + std::to_string(running))->ok());
  const auto state = await(running);
  // The race is real: the job may finish before the poll lands. Either
  // way the team must serve the next job.
  EXPECT_TRUE(state == "cancelled" || state == "done") << state;

  const auto next = submit(submit_args("after_cancel.fasta"));
  ASSERT_NE(next, 0u);
  ASSERT_EQ(await(next), "done");
  expect_matches_reference("after_cancel.fasta");
}

TEST_F(ServedAssembly, KilledJobQuarantinedAloneNextJobUnaffected) {
  // An injected rank-kill mid-assembly fails every attempt of this job:
  // the retry policy burns its budget (attempts=2 to keep the test fast)
  // and quarantines the poison job with its accumulated fault record.
  const auto doomed = submit(submit_args(
      "killed.fasta", "kill=1@contig_generation tenant=chaos attempts=2"));
  ASSERT_NE(doomed, 0u);
  ASSERT_EQ(await(doomed), "quarantined");
  const auto status = request("STATUS id=" + std::to_string(doomed));
  ASSERT_TRUE(status.has_value());
  const auto error = server::response_field(status->first(), "error");
  EXPECT_NE(error.find("killed"), std::string::npos) << error;
  // The fault record names each failed attempt.
  EXPECT_NE(error.find("attempt"), std::string::npos) << error;
  EXPECT_EQ(server::response_field(status->first(), "attempts"), "2");

  // A job under a pinned lossy-chaos plan still completes correctly (the
  // delivery protocol hides the losses), and so does a clean job after.
  const auto chaotic = submit(
      submit_args("chaotic.fasta", "chaos=drop=0.02,dup=0.01 chaos_seed=7"));
  ASSERT_NE(chaotic, 0u);
  ASSERT_EQ(await(chaotic), "done");
  expect_matches_reference("chaotic.fasta");

  const auto clean = submit(submit_args("after_kill.fasta"));
  ASSERT_NE(clean, 0u);
  ASSERT_EQ(await(clean), "done");
  expect_matches_reference("after_kill.fasta");
}

TEST_F(ServedAssembly, DeadlineExpiredBeforeDispatchFailsWithoutRunning) {
  // Job A pins the executor; job B's 1 ms wall-clock deadline expires
  // while it waits in the queue, so dispatch fails it without running a
  // single stage — and without charging a retry.
  const auto pinning = submit(submit_args("dl_pin.fasta", "rounds=3"));
  const auto doomed = submit(submit_args("dl_late.fasta", "deadline=1"));
  ASSERT_TRUE(pinning && doomed);
  ASSERT_EQ(await(doomed), "failed");
  const auto status = request("STATUS id=" + std::to_string(doomed));
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(
      server::response_field(status->first(), "error").find("deadline"),
      std::string::npos);
  EXPECT_FALSE(fs::exists(state_->dir / "dl_late.fasta"));
  EXPECT_TRUE(stages(doomed).empty());
  EXPECT_EQ(await(pinning), "done");
}

TEST_F(ServedAssembly, TenantCheckpointsStayIsolated) {
  // Interleaved jobs from two tenants, keep_last=1: each tenant's
  // checkpoints live in its own directory, so neither prunes the other
  // and each can resume from its own snapshots.
  const auto a1 = submit(submit_args("tenant_a1.fasta", "tenant=alice"));
  ASSERT_EQ(await(a1), "done");
  const auto b1 = submit(submit_args("tenant_b1.fasta", "tenant=bob"));
  ASSERT_EQ(await(b1), "done");

  const auto state_dir = state_->dir / "state" / "tenants";
  EXPECT_TRUE(fs::exists(state_dir / "alice"));
  EXPECT_TRUE(fs::exists(state_dir / "bob"));

  // resume=1 restarts each tenant's job from its own snapshots: the
  // k-mer analysis stage is loaded, not recomputed (and no cache is
  // consulted — resume goes through the checkpoint subsystem).
  const auto a2 = submit(
      submit_args("tenant_a2.fasta", "tenant=alice resume=1 cache=0"));
  ASSERT_EQ(await(a2), "done");
  expect_matches_reference("tenant_a2.fasta");
  EXPECT_FALSE(has_stage(stages(a2), pipeline::kStageKmerAnalysis));
  const auto b2 =
      submit(submit_args("tenant_b2.fasta", "tenant=bob resume=1 cache=0"));
  ASSERT_EQ(await(b2), "done");
  expect_matches_reference("tenant_b2.fasta");
  EXPECT_FALSE(has_stage(stages(b2), pipeline::kStageKmerAnalysis));
}

TEST_F(ServedAssembly, InPlaceRewriteSameSizeMissesCache) {
  // A dataset rewritten in place with unchanged size must not hit the
  // cache: serving the old data's artifacts would be silent corruption.
  const auto mut = (state_->dir / "mut.fastq").string();
  fs::copy_file(state_->fastq, mut, fs::copy_options::overwrite_existing);
  const std::string args = "reads=" + mut + " out=" +
                           (state_->dir / "mut1.fasta").string() +
                           " k=25 min_count=3";
  const auto cold = submit(args);
  ASSERT_NE(cold, 0u);
  ASSERT_EQ(await(cold), "done");
  EXPECT_TRUE(has_stage(stages(cold), pipeline::kStageKmerAnalysis));

  // Same path, same size, new mtime — only the write time distinguishes
  // the "rewritten" file from the cached generation.
  fs::last_write_time(mut, fs::last_write_time(mut) + std::chrono::seconds(2));
  const auto resub = submit("reads=" + mut + " out=" +
                            (state_->dir / "mut2.fasta").string() +
                            " k=25 min_count=3");
  ASSERT_NE(resub, 0u);
  ASSERT_EQ(await(resub), "done");
  const auto result = request("RESULT id=" + std::to_string(resub));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(server::response_field(result->first(), "cache_hit"), "0");
  EXPECT_TRUE(has_stage(stages(resub), pipeline::kStageKmerAnalysis));
}

TEST_F(ServedAssembly, IdleClientDoesNotBlockControlPlane) {
  // A client that connects and sends nothing must not wedge the control
  // plane for everyone else. Wait for the listener first: the raw connect
  // below has no retry, and the server binds its socket only after journal
  // recovery.
  {
    const auto ready = request("PING");
    ASSERT_TRUE(ready.has_value());
    ASSERT_TRUE(ready->ok());
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const auto sock_path = (state_->dir / "ctl.sock").string();
  ASSERT_LT(sock_path.size(), sizeof addr.sun_path);
  std::strncpy(addr.sun_path, sock_path.c_str(), sizeof addr.sun_path - 1);
  const int idle_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  ASSERT_EQ(::connect(idle_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  // With the idler parked mid-connection, a second connection still gets
  // answered (well before the idler's 10s server-side timeout).
  const auto ping = request("PING");
  ASSERT_TRUE(ping.has_value());
  EXPECT_TRUE(ping->ok());
  ::close(idle_fd);
}

TEST_F(ServedAssembly, ProtocolErrorsOverTheWire) {
  const auto bad = request("SUBMIT out=x.fasta");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->ok());
  EXPECT_EQ(bad->first(), "ERR missing-reads");

  // Hard kills are refused at the door — on the in-process team they
  // would take down the whole server, not the job.
  const auto hard =
      request("SUBMIT " +
              submit_args("hard.fasta", "kill=1@contig_generation,hard"));
  ASSERT_TRUE(hard.has_value());
  EXPECT_FALSE(hard->ok());
  EXPECT_EQ(hard->first(), "ERR bad-kill");

  const auto unknown = request("FROBNICATE x=1");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(unknown->ok());

  const auto missing = request("STATUS id=424242");
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->ok());

  const auto ping = request("PING");
  ASSERT_TRUE(ping.has_value());
  EXPECT_TRUE(ping->ok());
}

}  // namespace
}  // namespace hipmer
