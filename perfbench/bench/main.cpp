// Repository benchmark program: one workload per invocation.
//
//   perfbench --workload human_oneshot|wheat_oneshot|served_mix
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 is the separate traced run: it alternates untraced and traced
// assemblies of the workload's primary input (printing the tracing
// overhead), probes the PGAS layer on that input's k-mers, drives a short
// served session, and reports the per-layer metrics. Either way the last
// stdout line is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "io/fasta.hpp"
#include "pipeline/pipeline.hpp"
#include "probes.hpp"
#include "served.hpp"
#include "traced.hpp"
#include "truth.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace hm = hipmer;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

/// Setup repeats per run (median reported), and the floor on measured
/// assemblies when one takes longer than the whole --seconds budget.
constexpr int kSetupRepeats = 101;
constexpr int kMinAssemblies = 3;
constexpr int kServedClients = 2;
constexpr int kServedSetupLaunches = 30;

const hm::pgas::Topology kTopology{kRanks, kRanksPerNode};

struct Assembly {
  std::vector<hm::io::FastaRecord> scaffolds;
  std::string fasta;  // bytes as written to disk
  double setup_s = 0.0;
  double assemble_s = 0.0;
  double modeled_s = 0.0;
  double latency_s = 0.0;
};

/// One user-visible assembly: start the team, run_from_fastq, write FASTA.
Assembly assemble_once(const Input& input) {
  Assembly a;
  const auto t0 = Clock::now();
  hm::pipeline::Pipeline pipe(kTopology, input.config);
  a.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  auto result = pipe.run_from_fastq(input.libraries);
  a.assemble_s = seconds_since(t1);
  a.modeled_s = result.modeled_total();
  if (!hm::io::write_fasta("asm.fasta", result.scaffolds))
    throw std::runtime_error("cannot write asm.fasta");
  a.latency_s = seconds_since(t0);
  a.fasta = read_file("asm.fasta");
  a.scaffolds = std::move(result.scaffolds);
  return a;
}

/// Team and fabric start: Pipeline construction plus the first (empty)
/// team round trip, which is when the rank threads first run.
Samples measure_setup(const Input& input) {
  Samples s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    hm::pipeline::Pipeline pipe(kTopology, input.config);
    pipe.team().run([](hm::pgas::Rank&) {});
    s.add(seconds_since(t0));
  }
  return s;
}

void print_samples(const char* name, const Samples& s, const char* unit) {
  std::printf("  %-24s median %.6g %s  p25 %.6g  p75 %.6g  (n=%zu)\n", name,
              s.median(), unit, s.quantile(0.25), s.quantile(0.75), s.size());
}

/// Ground-truth metrics: recall and precision are means over the run's
/// inputs, each scored against its own genome. N50 is that of all the
/// inputs' scaffolds pooled: a few long scaffolds can double the N50 of one
/// small assembly, and move the pooled N50 far less.
void add_truth(RunResult& r, const std::vector<Input>& inputs,
               const std::vector<std::vector<hm::io::FastaRecord>>& scaffolds) {
  Samples recall, precision;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto score = score_against_truth(inputs[i].genome, scaffolds[i]);
    std::printf("  truth %s: %zu scaffolds, N50 %.0f, recall %.6f of %zu ref "
                "k-mers, precision %.6f of %zu scaffold k-mers\n",
                inputs[i].label.c_str(), scaffolds[i].size(),
                scaffold_n50({scaffolds[i]}), score.ref_kmer_recall,
                score.ref_kmers, score.scaffold_kmer_precision,
                score.scaffold_kmers);
    recall.add(score.ref_kmer_recall);
    precision.add(score.scaffold_kmer_precision);
  }
  const auto mean = [](const Samples& s) {
    return s.sum() / static_cast<double>(s.size());
  };
  const double n50 = scaffold_n50(scaffolds);
  std::printf("  truth pooled: N50 %.0f over %zu inputs\n", n50, inputs.size());
  r.metrics["ref_kmer_recall"] = {mean(recall), "ratio", recall.size()};
  r.metrics["scaffold_kmer_precision"] = {mean(precision), "ratio",
                                          precision.size()};
  r.metrics["scaffold_n50_bp"] = {n50, "bp", scaffolds.size()};
  // Floors far below what the pipeline reaches: they catch a broken
  // assembly, while the metrics' bounds catch a degraded one.
  r.check(mean(recall) > 0.8, "recall below 0.8");
  r.check(mean(precision) > 0.9, "precision below 0.9");
}

void add_ok_frac(RunResult& r) {
  const double ok_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.attempted - r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  failed_frac %.6f (%llu of %llu)\n", 1.0 - ok_frac,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  r.metrics["ok_frac"] = {ok_frac, "ratio", r.attempted};
  r.check(r.failed == 0, "failed assemblies or jobs");
}

// ---- --trace 0 ----

/// Repeats whole assemblies for `seconds`, rotating through the inputs.
/// Every repeat of an input must reproduce that input's first scaffolds.
RunResult oneshot_untraced(const std::vector<Input>& inputs, double seconds) {
  RunResult r;
  const Samples setup = measure_setup(inputs.front());
  Samples assemble, modeled, latency;
  std::vector<std::string> first_fasta(inputs.size());
  std::vector<std::vector<hm::io::FastaRecord>> first_scaffolds(inputs.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0;
       seconds_since(t0) < seconds || i < inputs.size() ||
       (latency.size() < kMinAssemblies && r.failed < kMinAssemblies);
       ++i) {
    const std::size_t k = i % inputs.size();
    // Hand the previous repeat's freed heap back to the OS, so each repeat
    // starts from the heap a fresh `hipmer assemble` process would have and
    // peak RSS measures one assembly, not fragmentation left by earlier ones.
    malloc_trim(0);
    ++r.attempted;
    Assembly a;
    try {
      a = assemble_once(inputs[k]);
    } catch (const std::exception& e) {
      std::printf("  assembly failed: %s\n", e.what());
      ++r.failed;
      continue;
    }
    if (first_fasta[k].empty()) {
      first_fasta[k] = a.fasta;
      first_scaffolds[k] = std::move(a.scaffolds);
      r.check(!first_scaffolds[k].empty(), inputs[k].label + ": no scaffolds");
    } else if (a.fasta != first_fasta[k]) {
      std::printf("  %s repeat differs from its first run (%s vs %s)\n",
                  inputs[k].label.c_str(), hex64(bytes_hash(a.fasta)).c_str(),
                  hex64(bytes_hash(first_fasta[k])).c_str());
      ++r.failed;
      continue;
    }
    assemble.add(a.assemble_s);
    modeled.add(a.modeled_s);
    latency.add(a.latency_s);
  }
  const double wall = seconds_since(t0);
  for (std::size_t k = 0; k < inputs.size(); ++k)
    std::printf("  %s scaffolds hash %s\n", inputs[k].label.c_str(),
                hex64(bytes_hash(first_fasta[k])).c_str());
  print_samples("setup_s", setup, "s");
  print_samples("assemble_s", assemble, "s");
  print_samples("modeled_s", modeled, "s");
  print_samples("job_s", latency, "s");
  add_truth(r, inputs, first_scaffolds);
  r.metrics["setup_s"] = {setup.median(), "s", setup.size()};
  r.metrics["assemble_s"] = {assemble.median(), "s", assemble.size()};
  r.metrics["modeled_s"] = {modeled.median(), "s", modeled.size()};
  r.metrics["peak_rss_MB"] = {peak_rss_mb(), "MB"};
  r.metrics["job_p50_s"] = {latency.median(), "s", latency.size()};
  r.metrics["job_p75_s"] = {latency.quantile(0.75), "s", latency.size()};
  r.metrics["jobs_per_min"] = {60.0 * static_cast<double>(latency.size()) / wall,
                               "1/min", latency.size()};
  add_ok_frac(r);
  return r;
}

/// One-shot reference FASTA of each served input: the bytes every served
/// job of that input must reproduce.
std::vector<std::string> served_references(const std::vector<Input>& inputs,
                                           RunResult& r) {
  std::vector<std::string> refs;
  std::vector<std::vector<hm::io::FastaRecord>> scaffolds;
  for (const auto& in : inputs) {
    auto a = assemble_once(in);
    r.check(!a.scaffolds.empty(), in.label + " reference has no scaffolds");
    std::printf("  reference %s: hash %s\n", in.label.c_str(),
                hex64(bytes_hash(a.fasta)).c_str());
    refs.push_back(std::move(a.fasta));
    scaffolds.push_back(std::move(a.scaffolds));
  }
  add_truth(r, inputs, scaffolds);
  return refs;
}

RunResult served_untraced(const std::vector<Input>& inputs, std::uint64_t seed,
                          double seconds) {
  RunResult r;
  const auto refs = served_references(inputs, r);
  // As between one-shot repeats: the session's peak RSS should not carry
  // the references' freed heap.
  malloc_trim(0);
  ServedPlan plan;
  plan.clients = kServedClients;
  plan.seconds = seconds;
  plan.setup_launches = kServedSetupLaunches;
  plan.seed = seed;
  const auto session = run_served(inputs, refs, plan);

  Samples exec, modeled, latency;
  std::size_t hits = 0;
  for (const auto& job : session.jobs) {
    ++r.attempted;
    if (!job.ok) {
      ++r.failed;
      continue;
    }
    hits += job.cache_hit ? 1 : 0;
    exec.add(job.exec_s);
    modeled.add(job.modeled_s);
    latency.add(job.latency_s);
  }
  std::printf("  %zu jobs by %d clients in %.3f s, %zu cache hits\n",
              session.jobs.size(), plan.clients, session.loop_wall_s, hits);
  print_samples("setup_s", session.setup_s, "s");
  print_samples("job_exec_s", exec, "s");
  print_samples("job_modeled_s", modeled, "s");
  print_samples("job_latency_s", latency, "s");
  r.metrics["setup_s"] = {session.setup_s.median(), "s", session.setup_s.size()};
  r.metrics["assemble_s"] = {exec.median(), "s", exec.size()};
  r.metrics["modeled_s"] = {modeled.median(), "s", modeled.size()};
  r.metrics["peak_rss_MB"] = {peak_rss_mb(), "MB"};
  r.metrics["job_p50_s"] = {latency.median(), "s", latency.size()};
  r.metrics["job_p75_s"] = {latency.quantile(0.75), "s", latency.size()};
  r.metrics["jobs_per_min"] = {
      60.0 * static_cast<double>(latency.size()) / session.loop_wall_s, "1/min",
      latency.size()};
  add_ok_frac(r);
  return r;
}

// ---- --trace 1 ----

/// Share of the budget spent alternating untraced and traced assemblies;
/// the rest goes to the PGAS probe and the served session.
constexpr double kTracedShare = 0.5;

RunResult traced_run(const std::vector<Input>& inputs, bool served_mix,
                     std::uint64_t seed, double seconds,
                     const std::string& trace_out) {
  RunResult r;
  const Input& primary = inputs.front();
  std::map<std::string, Samples> layer;
  std::map<std::string, std::string> units;
  Samples untraced_wall, traced_wall;
  std::unique_ptr<Tracer> last_tracer;
  std::string reference;
  const auto t0 = Clock::now();
  while (traced_wall.empty() || seconds_since(t0) < seconds * kTracedShare) {
    r.attempted += 2;
    const auto plain = assemble_once(primary);
    untraced_wall.add(plain.assemble_s);
    auto tracer = std::make_unique<Tracer>(kRanks);
    const auto traced = run_traced(primary, *tracer);
    traced_wall.add(traced.wall_s);
    const std::string traced_fasta = fasta_bytes(traced.scaffolds);
    if (reference.empty()) reference = plain.fasta;
    if (plain.fasta != reference) {
      std::printf("  untraced repeat differs from the first\n");
      ++r.failed;
    }
    if (traced_fasta != plain.fasta) {
      std::printf("  traced scaffolds differ from the untraced run\n");
      ++r.failed;
    }
    for (const auto& [name, metric] : traced.metrics) {
      layer[name].add(metric.value);
      units[name] = metric.unit;
    }
    last_tracer = std::move(tracer);
  }
  std::printf("  traced scaffolds %s the untraced run's (hash %s)\n",
              r.failed == 0 ? "match" : "DIFFER FROM",
              hex64(bytes_hash(reference)).c_str());
  std::printf("  tracing overhead: traced wall %.6f s vs untraced %.6f s "
              "(%+.2f%%, n=%zu pairs)\n",
              traced_wall.median(), untraced_wall.median(),
              100.0 * (traced_wall.median() / untraced_wall.median() - 1.0),
              traced_wall.size());
  for (const auto& [name, s] : layer)
    r.metrics[name] = {s.median(), units[name], s.size()};
  if (!trace_out.empty()) {
    if (last_tracer->write_chrome_json(trace_out, primary.label))
      std::printf("  wrote %zu spans to %s\n", last_tracer->span_count(),
                  trace_out.c_str());
    else
      std::printf("  could not write %s\n", trace_out.c_str());
  }

  for (auto& [name, metric] : probe_pgas(primary)) r.metrics[name] = metric;

  // The served layers: the mix itself, or this input served (one miss, then
  // hits) for a one-shot workload.
  ServedPlan plan;
  plan.seed = seed;
  std::vector<std::string> refs;
  if (served_mix) {
    for (const auto& in : inputs) refs.push_back(assemble_once(in).fasta);
    plan.clients = kServedClients;
    plan.seconds = std::max(1.0, seconds - seconds_since(t0));
  } else {
    refs.push_back(reference);
    plan.clients = 1;
    plan.seconds = seconds;
    plan.max_jobs = 3;
  }
  const auto session = run_served(served_mix ? inputs : std::vector<Input>{primary},
                                  refs, plan);
  for (const auto& job : session.jobs) {
    ++r.attempted;
    if (!job.ok) ++r.failed;
  }
  std::printf("  served %zu jobs (%llu cache hits)\n", session.jobs.size(),
              static_cast<unsigned long long>(session.cache_hits));
  for (auto& [name, metric] : served_layer_metrics(session))
    r.metrics[name] = metric;
  r.check(r.failed == 0, "traced run: mismatched or failed assemblies");
  return r;
}

// ---- output ----

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void print_metric_lines(const RunResult& r) {
  for (const auto& [name, m] : r.metrics)
    std::printf("  %-40s %.10g %s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val.c_str());
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-out") a.trace_out = val;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

int run(const Args& args) {
  // Inputs, server state and outputs live in a private work directory,
  // removed on exit; relative paths there keep socket paths short.
  const fs::path home = fs::current_path();
  const fs::path work = home / ".bench_build" / "work" /
                        (args.workload + "-" + std::to_string(::getpid()));
  std::string trace_out = args.trace_out;
  if (!trace_out.empty()) trace_out = fs::absolute(trace_out).string();
  fs::create_directories(work);
  fs::current_path(work);

  RunResult result;
  int code = 0;
  try {
    const auto gen0 = Clock::now();
    std::vector<Input> inputs;
    if (args.workload == "human_oneshot")
      inputs = make_human_inputs(args.seed, ".");
    else if (args.workload == "wheat_oneshot")
      inputs = make_wheat_inputs(args.seed, ".");
    else if (args.workload == "served_mix")
      inputs = make_served_inputs(".");
    else
      throw std::invalid_argument("unknown workload " + args.workload);
    std::printf("workload %s seed %llu: %zu input(s), the first %llu reads "
                "in %.1f MB of FASTQ, generated in %.2f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), inputs.size(),
                static_cast<unsigned long long>(inputs.front().reads),
                static_cast<double>(inputs.front().fastq_bytes) / 1e6,
                seconds_since(gen0));

    const bool served = args.workload == "served_mix";
    if (args.trace)
      result = traced_run(inputs, served, args.seed, args.seconds, trace_out);
    else if (served)
      result = served_untraced(inputs, args.seed, args.seconds);
    else
      result = oneshot_untraced(inputs, args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  fs::current_path(home);
  std::error_code ec;
  fs::remove_all(work, ec);
  if (code != 0) return code;
  print_metric_lines(result);
  std::fflush(stdout);
  print_result(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::printf("build: %s, %s", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
#if defined(HIPMER_CHECKED)
  std::printf(", HIPMER_CHECKED");
#endif
  std::printf("\n");
  // Timings from these builds measure a different program.
#if !defined(NDEBUG) || defined(HIPMER_CHECKED) || defined(PERFBENCH_SANITIZED) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing to report from a debug, checked or "
               "sanitizer build\n");
  return 2;
#else
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::run(args);
#endif
}
