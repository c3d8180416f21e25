// hipmer — command-line front end for the assembly pipeline.
//
//   hipmer assemble --reads lib.fastq --insert 400 [--reads lib2.fastq
//          --insert 4200 --scaffold-only] --k 31 --ranks 16
//          [--rounds 1] [--diploid] [--min-count auto|N]
//          [--out scaffolds.fasta]
//          [--checkpoint-dir DIR [--resume] [--keep-last N]]
//   hipmer simulate (human|wheat|metagenome) --genome N --out-dir DIR
//   hipmer convert --fastq in.fastq --seqdb out.sdb     (either direction)
//   hipmer serve --listen /run/hipmer.sock [--ranks N] [--state-dir DIR]
//   hipmer submit --listen /run/hipmer.sock --reads lib.fastq --out f.fasta
//   hipmer status|cancel|stats|shutdown --listen /run/hipmer.sock [--job N]
//
// (`--serve`, `--submit` and `--status` are accepted as aliases for the
// corresponding subcommands.)
//
// `assemble` accepts interleaved paired-end FASTQ files (read names must
// carry pairing as "<lib>:<pair>/<mate>"; `simulate` writes that format).
// `--min-count auto` has the k-mer analysis derive the erroneous-k-mer
// cutoff from its own count histogram's valley (see kcount/histogram.hpp);
// the chosen value is printed after the run.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/fastq.hpp"
#include "io/seqdb.hpp"
#include "pgas/fabric.hpp"
#include "pipeline/pipeline.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "sim/datasets.hpp"
#include "sim/metagenome_sim.hpp"
#include "util/options.hpp"

namespace {

using namespace hipmer;

/// argv[0] of this invocation — workers are spawned by re-exec'ing it.
std::string g_binary = "hipmer";

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hipmer assemble --reads FILE --insert N [--reads FILE "
               "--insert N --scaffold-only]...\n"
               "                  [--k 31] [--ranks 16] [--rounds 1] "
               "[--diploid] [--min-count auto|N] [--out FILE]\n"
               "                  [--packed-reads] [--shuffle-reads]\n"
               "                  [--checkpoint-dir DIR [--resume] "
               "[--keep-last N]]\n"
               "                  [--chaos-spec "
               "'drop=0.05,dup=0.02;store:corrupt=0.01;blackhole=2@merAligner'"
               " [--chaos-seed N]]\n"
               "                  [--fabric threads|proc] [--fabric-socket "
               "PATH] [--kill RANK@STAGE[:OCC[:STEP]][,hard]]\n"
               "  hipmer simulate (human|wheat|metagenome) [--genome N] "
               "[--species N] --out-dir DIR\n"
               "  hipmer convert (--fastq-to-seqdb IN OUT | "
               "--seqdb-to-fastq IN OUT)\n"
               "  hipmer serve --listen SOCK [--ranks N] [--state-dir DIR] "
               "[--max-queued N]\n"
               "               [--max-resident-bytes N] [--keep-last N] "
               "[--no-cache]\n"
               "               [--state-journal PATH | --no-journal] "
               "[--max-attempts N] [--retry-backoff-ms N]\n"
               "               [--fs-faults SPEC [--fs-fault-seed N]]\n"
               "  hipmer submit --listen SOCK --reads FILE [--insert N] "
               "[--scaffold-only]... --out FILE\n"
               "               [--tenant T] [--priority N] [--k N] "
               "[--min-count N] [--rounds N] [--diploid] [--resume]\n"
               "               [--no-cache] [--kill SPEC] [--chaos-spec S "
               "--chaos-seed N] [--deadline MS] [--attempts N] [--wait]\n"
               "  hipmer status --listen SOCK --job ID [--result]\n"
               "  hipmer cancel --listen SOCK --job ID\n"
               "  hipmer stats --listen SOCK\n"
               "  hipmer shutdown --listen SOCK\n");
  return 2;
}

/// `--reads`/`--insert`/`--scaffold-only` repeat per library, so they are
/// parsed positionally from argv rather than through util::Options.
std::vector<seq::ReadLibrary> parse_libraries(int argc, char** argv) {
  std::vector<seq::ReadLibrary> libraries;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reads") == 0 && i + 1 < argc) {
      seq::ReadLibrary lib;
      lib.fastq_path = argv[i + 1];
      lib.name = "lib" + std::to_string(libraries.size());
      lib.mean_insert = 400.0;
      libraries.push_back(lib);
    } else if (std::strcmp(argv[i], "--insert") == 0 && i + 1 < argc &&
               !libraries.empty()) {
      libraries.back().mean_insert = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--scaffold-only") == 0 &&
               !libraries.empty()) {
      libraries.back().for_contigging = false;
    }
  }
  return libraries;
}

// `--kill RANK@STAGE[:OCC[:STEP]][,hard]` specs are parsed by
// pgas::FaultPlan::parse (shared with the server's SUBMIT kill= rider).

/// SIGKILL + reap every worker the coordinator spawned (the restart path
/// must not leave half-dead workers holding the old sockets).
void reap_workers(pipeline::Pipeline* pipe) {
  if (pipe == nullptr) return;
  auto* fab = dynamic_cast<pgas::SocketFabric*>(&pipe->team().fabric());
  if (fab == nullptr) return;
  for (const long pid : fab->worker_pids()) {
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid), &status, 0);
    if (getenv("HIPMER_FABRIC_DEBUG")) {
      if (WIFEXITED(status))
        std::fprintf(stderr, "[fabdbg] worker pid %ld exited %d\n", pid, WEXITSTATUS(status));
      else if (WIFSIGNALED(status))
        std::fprintf(stderr, "[fabdbg] worker pid %ld signal %d\n", pid, WTERMSIG(status));
    }
  }
}

/// Final report + FASTA output — the primary process's job on every fabric.
int report_and_write(pipeline::Pipeline& pipe,
                     const pipeline::PipelineResult& result,
                     const std::string& out) {
  std::printf("%s", result.format_stages().c_str());
  if (pipe.config().kmer.min_count == 0 && result.min_count > 0)
    std::printf("auto min-count: %u (histogram valley)\n", result.min_count);
  if (pipe.team().transport().chaos_enabled()) {
    const std::string retries =
        pipe.team().transport().format_retry_histograms();
    std::printf("chaos retry histograms:\n%s",
                retries.empty() ? "  (no retries)\n" : retries.c_str());
  }
  std::printf("contigs:   %s\n",
              util::format_assembly_stats(result.contig_stats).c_str());
  std::printf("scaffolds: %s\n",
              util::format_assembly_stats(result.scaffold_stats).c_str());
  if (!io::write_fasta(out, result.scaffolds)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu scaffolds to %s\n", result.scaffolds.size(),
              out.c_str());
  return 0;
}

int cmd_assemble(int argc, char** argv) {
  util::Options opts(argc, argv);
  auto libraries = parse_libraries(argc, argv);
  if (libraries.empty()) {
    std::fprintf(stderr, "assemble: at least one --reads FILE required\n");
    return usage();
  }
  const int k = static_cast<int>(opts.get_int("k", 31));
  const int ranks = static_cast<int>(opts.get_int("ranks", 16));
  const std::string out = opts.get("out", "scaffolds.fasta");
  const std::string min_count = opts.get("min-count", "auto");

  pipeline::PipelineConfig cfg;
  cfg.k = k;
  cfg.scaffolding_rounds = static_cast<int>(opts.get_int("rounds", 1));
  cfg.merge_bubbles = opts.get_bool("diploid", false);
  // Perf knobs: 2-bit resident reads, and the post-alignment locality
  // shuffle. Neither changes the assembly output.
  cfg.packed_reads = opts.get_bool("packed-reads", false);
  cfg.shuffle_reads = opts.get_bool("shuffle-reads", false);
  if (min_count != "auto" &&
      (min_count.empty() ||
       min_count.find_first_not_of("0123456789") != std::string::npos)) {
    std::fprintf(stderr, "assemble: --min-count must be auto or a number\n");
    return usage();
  }
  // 0 has the k-mer analysis pick the cutoff from its own histogram.
  cfg.kmer.min_count =
      min_count == "auto"
          ? 0
          : static_cast<std::uint32_t>(
                std::strtoul(min_count.c_str(), nullptr, 10));
  cfg.checkpoint.dir = opts.get("checkpoint-dir", "");
  cfg.checkpoint.keep_last = static_cast<int>(opts.get_int("keep-last", 0));
  const bool resume = opts.get_bool("resume", false);
  if (resume && cfg.checkpoint.dir.empty()) {
    std::fprintf(stderr, "assemble: --resume requires --checkpoint-dir DIR\n");
    return usage();
  }
  const std::string chaos_spec = opts.get("chaos-spec", "");
  if (!chaos_spec.empty()) {
    cfg.chaos = pgas::ChaosPlan::parse(
        static_cast<std::uint64_t>(opts.get_int("chaos-seed", 1)), chaos_spec);
  }
  cfg.sync_k();

  const std::string fabric = opts.get("fabric", "threads");
  const int worker_rank = static_cast<int>(opts.get_int("worker-rank", -1));
  std::string socket_path = opts.get("fabric-socket", "");
  const std::string kill_spec = opts.get("kill", "");
  if (fabric != "threads" && fabric != "proc") {
    std::fprintf(stderr, "assemble: --fabric must be threads or proc\n");
    return usage();
  }

  if (worker_rank > 0) {
    // ---- worker mode: host one rank, connect back, run the same SPMD
    // program.
    if (socket_path.empty()) {
      std::fprintf(stderr,
                   "assemble: --worker-rank requires --fabric-socket\n");
      return 2;
    }
    cfg.fabric.mode = pgas::FabricConfig::Mode::kProcWorker;
    cfg.fabric.my_rank = worker_rank;
    cfg.fabric.socket_path = socket_path;
    try {
      pipeline::Pipeline pipe(pgas::Topology{ranks, 4}, cfg);
      if (!kill_spec.empty())
        pipe.team().faults().set_plan(pgas::FaultPlan::parse(kill_spec));
      const auto result = pipe.execute_from_fastq(libraries, resume);
      (void)result;  // rank 0's process reports and writes the output
      return 0;
    } catch (const pgas::RankKilled& e) {
      if (getenv("HIPMER_FABRIC_DEBUG"))
        std::fprintf(stderr, "[fabdbg %d] worker %d RankKilled: %s\n",
                     (int)getpid(), worker_rank, e.what());
      return 75;  // "teammate died" — the coordinator respawns us
    }
  }

  if (fabric == "proc") {
    // ---- coordinator: rank 0 + router here, one spawned process per
    // remaining rank. A RankKilled unwind (suspect peer, kill -9'd worker)
    // reaps the team and respawns it in --resume mode against the
    // checkpoint directory, a bounded number of times.
    if (socket_path.empty())
      socket_path =
          "/tmp/hipmer-fabric-" + std::to_string(getpid()) + ".sock";
    const auto make_worker_argv = [&](const std::string& sock, bool with_kill,
                                      bool force_resume) {
      // This binary + the original arguments, with the fabric flags pinned
      // down (workers never spawn).
      std::vector<std::string> wargv;
      wargv.push_back(g_binary);
      bool has_resume = false;
      for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--fabric" || a == "--fabric-socket") {
          ++i;
          continue;
        }
        if (a == "--kill") {
          ++i;
          if (with_kill && i < argc) {
            wargv.emplace_back("--kill");
            wargv.emplace_back(argv[i]);
          }
          continue;
        }
        if (a == "--resume") has_resume = true;
        wargv.push_back(a);
      }
      wargv.insert(wargv.end(), {"--fabric", "proc", "--fabric-socket", sock});
      if (force_resume && !has_resume) wargv.emplace_back("--resume");
      return wargv;
    };

    bool do_resume = resume;
    for (int attempt = 0;; ++attempt) {
      const std::string sock =
          attempt == 0 ? socket_path
                       : socket_path + ".r" + std::to_string(attempt);
      cfg.fabric.mode = pgas::FabricConfig::Mode::kProcCoordinator;
      cfg.fabric.socket_path = sock;
      cfg.fabric.worker_argv = make_worker_argv(sock, attempt == 0, do_resume);
      std::unique_ptr<pipeline::Pipeline> pipe;
      try {
        pipe = std::make_unique<pipeline::Pipeline>(pgas::Topology{ranks, 4},
                                                    cfg);
        if (!kill_spec.empty() && attempt == 0)
          pipe->team().faults().set_plan(pgas::FaultPlan::parse(kill_spec));
        std::printf(
            "assembling %zu librar%s on %d ranks (%d processes), k=%d, "
            "min_count=%s...\n",
            libraries.size(), libraries.size() == 1 ? "y" : "ies", ranks,
            ranks, k, min_count.c_str());
        const auto result = pipe->execute_from_fastq(libraries, do_resume);
        return report_and_write(*pipe, result, out);
      } catch (const pgas::RankKilled& e) {
        reap_workers(pipe.get());
        if (attempt >= 2 || cfg.checkpoint.dir.empty()) {
          std::fprintf(stderr, "assemble: team died (%s)%s\n", e.what(),
                       cfg.checkpoint.dir.empty()
                           ? "; no --checkpoint-dir to resume from"
                           : "; giving up");
          return 1;
        }
        std::fprintf(stderr,
                     "assemble: %s; respawning workers and resuming from "
                     "checkpoint\n",
                     e.what());
        do_resume = true;
      }
    }
  }

  pipeline::Pipeline pipe(pgas::Topology{ranks, 4}, cfg);
  if (!kill_spec.empty())
    pipe.team().faults().set_plan(pgas::FaultPlan::parse(kill_spec));
  std::printf("assembling %zu librar%s on %d ranks, k=%d, min_count=%s...\n",
              libraries.size(), libraries.size() == 1 ? "y" : "ies", ranks, k,
              min_count.c_str());
  const auto result = pipe.execute_from_fastq(libraries, resume);
  return report_and_write(pipe, result, out);
}

int cmd_simulate(const std::string& kind, int argc, char** argv) {
  util::Options opts(argc, argv);
  const std::string out_dir = opts.get("out-dir", ".");
  const auto genome = static_cast<std::uint64_t>(opts.get_int("genome", 500'000));
  sim::Dataset ds;
  if (kind == "human") {
    ds = sim::make_human_like(genome, static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  } else if (kind == "wheat") {
    ds = sim::make_wheat_like(genome, static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  } else if (kind == "metagenome") {
    sim::MetagenomeConfig mc;
    mc.num_species = static_cast<int>(opts.get_int("species", 40));
    mc.mean_genome_length = genome / static_cast<std::uint64_t>(mc.num_species);
    mc.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    const auto mg = sim::simulate_metagenome(mc);
    ds.name = "metagenome";
    ds.libraries.push_back(seq::ReadLibrary{"pe", mc.mean_insert,
                                            mc.stddev_insert, mc.read_length,
                                            "", true});
    ds.reads.push_back(mg.reads);
  } else {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!sim::write_dataset_fastq(ds, out_dir)) {
    std::fprintf(stderr, "cannot write FASTQ files to %s\n", out_dir.c_str());
    return 1;
  }
  for (const auto& lib : ds.libraries)
    std::printf("wrote %s (insert %.0f)\n", lib.fastq_path.c_str(),
                lib.mean_insert);
  return 0;
}

// ---- server mode (src/server): long-lived job server + thin clients ----

int cmd_serve(int argc, char** argv) {
  util::Options opts(argc, argv);
  server::ServerConfig cfg;
  cfg.listen_path = opts.get("listen", "");
  if (cfg.listen_path.empty()) {
    std::fprintf(stderr, "serve: --listen SOCK required\n");
    return usage();
  }
  cfg.ranks = static_cast<int>(opts.get_int("ranks", 4));
  cfg.state_dir = opts.get("state-dir", "hipmer-server-state");
  cfg.admission.max_queued =
      static_cast<std::size_t>(opts.get_int("max-queued", 16));
  cfg.admission.max_resident_bytes = static_cast<std::uint64_t>(
      opts.get_int("max-resident-bytes", 4ll << 30));
  cfg.keep_last = static_cast<int>(opts.get_int("keep-last", 2));
  cfg.enable_cache = !opts.get_bool("no-cache", false);
  cfg.enable_journal = !opts.get_bool("no-journal", false);
  cfg.journal_path = opts.get("state-journal", "");
  cfg.max_attempts =
      static_cast<std::uint32_t>(opts.get_int("max-attempts", 3));
  cfg.retry_backoff_ms =
      static_cast<std::uint32_t>(opts.get_int("retry-backoff-ms", 200));
  cfg.fs_fault_spec = opts.get("fs-faults", "");
  cfg.fs_fault_seed =
      static_cast<std::uint64_t>(opts.get_int("fs-fault-seed", 1));
  server::JobServer srv(cfg);
  return srv.serve();
}

/// One request/response against --listen; prints the response lines.
int run_control_command(const std::string& sock, const std::string& command) {
  const auto resp = server::request(sock, command);
  if (!resp) {
    std::fprintf(stderr, "cannot reach server at %s\n", sock.c_str());
    return 1;
  }
  for (const auto& line : resp->lines) std::printf("%s\n", line.c_str());
  return resp->ok() ? 0 : 1;
}

int cmd_submit(int argc, char** argv) {
  util::Options opts(argc, argv);
  const std::string sock = opts.get("listen", "");
  const auto libraries = parse_libraries(argc, argv);
  const std::string out = opts.get("out", "");
  if (sock.empty() || libraries.empty() || out.empty()) {
    std::fprintf(stderr,
                 "submit: --listen SOCK, --reads FILE and --out FILE "
                 "required\n");
    return usage();
  }
  std::string reads;
  for (const auto& lib : libraries) {
    if (!reads.empty()) reads += ",";
    char insert[32];
    std::snprintf(insert, sizeof insert, "%g", lib.mean_insert);
    reads += lib.fastq_path + ":" + insert;
    if (!lib.for_contigging) reads += ":s";
  }
  std::string command = "SUBMIT reads=" + reads + " out=" + out +
                        " tenant=" + opts.get("tenant", "default") +
                        " priority=" + std::to_string(opts.get_int("priority", 0)) +
                        " k=" + std::to_string(opts.get_int("k", 31)) +
                        " rounds=" + std::to_string(opts.get_int("rounds", 1));
  if (opts.has("min-count"))
    command += " min_count=" + opts.get("min-count", "0");
  if (opts.get_bool("diploid", false)) command += " diploid=1";
  if (opts.get_bool("resume", false)) command += " resume=1";
  if (opts.get_bool("no-cache", false)) command += " cache=0";
  if (opts.has("kill")) command += " kill=" + opts.get("kill", "");
  if (opts.has("chaos-spec")) {
    command += " chaos=" + opts.get("chaos-spec", "") +
               " chaos_seed=" + std::to_string(opts.get_int("chaos-seed", 1));
  }
  if (opts.has("deadline"))
    command += " deadline=" + std::to_string(opts.get_int("deadline", 0));
  if (opts.has("attempts"))
    command += " attempts=" + std::to_string(opts.get_int("attempts", 0));

  const auto resp = server::request_with_retry(sock, command, 50, 100);
  if (!resp) {
    std::fprintf(stderr, "cannot reach server at %s\n", sock.c_str());
    return 1;
  }
  std::printf("%s\n", resp->first().c_str());
  if (!resp->ok()) return 1;
  const std::string id = server::response_field(resp->first(), "id");
  if (!opts.get_bool("wait", false)) return 0;

  // --wait: poll until the job lands in a terminal state, then print the
  // full RESULT (including per-stage timings). Exponential backoff with
  // jitter, capped at 2s — a fleet of waiting clients must not hammer the
  // server in lockstep.
  useconds_t delay_us = 25 * 1000;
  constexpr useconds_t kMaxDelayUs = 2'000'000;
  std::srand(static_cast<unsigned>(getpid()) ^
             static_cast<unsigned>(time(nullptr)));
  for (;;) {
    const auto status = server::request(sock, "STATUS id=" + id);
    if (!status || !status->ok()) {
      std::fprintf(stderr, "lost server while waiting for job %s\n",
                   id.c_str());
      return 1;
    }
    const std::string state =
        server::response_field(status->first(), "state", "?");
    if (state == "done" || state == "failed" || state == "cancelled" ||
        state == "quarantined") {
      const auto result = server::request(sock, "RESULT id=" + id);
      if (result)
        for (const auto& line : result->lines)
          std::printf("%s\n", line.c_str());
      return state == "done" ? 0 : 1;
    }
    // +-25% jitter decorrelates concurrent waiters.
    const useconds_t jitter = delay_us / 2 > 0
                                  ? static_cast<useconds_t>(
                                        std::rand() %
                                        static_cast<int>(delay_us / 2 + 1))
                                  : 0;
    usleep(delay_us - delay_us / 4 + jitter);
    delay_us = std::min(delay_us * 2, kMaxDelayUs);
  }
}

int cmd_control(const std::string& verb, int argc, char** argv) {
  util::Options opts(argc, argv);
  const std::string sock = opts.get("listen", "");
  if (sock.empty()) {
    std::fprintf(stderr, "%s: --listen SOCK required\n", verb.c_str());
    return usage();
  }
  if (verb == "stats") return run_control_command(sock, "STATS");
  if (verb == "shutdown") return run_control_command(sock, "SHUTDOWN");
  const std::string id = opts.get("job", "");
  if (id.empty()) {
    std::fprintf(stderr, "%s: --job ID required\n", verb.c_str());
    return usage();
  }
  if (verb == "cancel") return run_control_command(sock, "CANCEL id=" + id);
  const bool full = opts.get_bool("result", false);
  return run_control_command(sock,
                             (full ? "RESULT id=" : "STATUS id=") + id);
}

int cmd_convert(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  for (std::size_t i = 0; i + 2 < args.size(); ++i) {
    if (args[i] == "--fastq-to-seqdb") {
      const auto reads = io::read_fastq(args[i + 1]);
      if (!io::write_seqdb(args[i + 2], reads)) return 1;
      std::printf("wrote %zu records to %s\n", reads.size(), args[i + 2].c_str());
      return 0;
    }
    if (args[i] == "--seqdb-to-fastq") {
      const auto reads = io::read_seqdb(args[i + 1]);
      if (!io::write_fastq(args[i + 2], reads)) return 1;
      std::printf("wrote %zu records to %s\n", reads.size(), args[i + 2].c_str());
      return 0;
    }
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Workers are spawned by execv of this binary; resolve the stable path
  // (argv[0] may be relative to a cwd a worker no longer shares).
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n > 0) {
    exe[n] = '\0';
    g_binary = exe;
  } else {
    g_binary = argv[0];
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "assemble") return cmd_assemble(argc - 1, argv + 1);
    if (cmd == "simulate" && argc >= 3)
      return cmd_simulate(argv[2], argc - 2, argv + 2);
    if (cmd == "convert") return cmd_convert(argc - 1, argv + 1);
    if (cmd == "serve" || cmd == "--serve")
      return cmd_serve(argc - 1, argv + 1);
    if (cmd == "submit" || cmd == "--submit")
      return cmd_submit(argc - 1, argv + 1);
    if (cmd == "status" || cmd == "--status")
      return cmd_control("status", argc - 1, argv + 1);
    if (cmd == "cancel") return cmd_control("cancel", argc - 1, argv + 1);
    if (cmd == "stats") return cmd_control("stats", argc - 1, argv + 1);
    if (cmd == "shutdown")
      return cmd_control("shutdown", argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hipmer: %s\n", e.what());
    return 1;
  }
  return usage();
}
