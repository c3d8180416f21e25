#include "workloads.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "sim/datasets.hpp"
#include "sim/read_sim.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace hm = hipmer;

// ---- common.hpp ----

std::string fasta_bytes(const std::vector<hm::io::FastaRecord>& records) {
  // Mirrors io::write_fasta's layout (80-column lines).
  constexpr std::size_t kWidth = 80;
  std::string out;
  for (const auto& rec : records) {
    out += '>';
    out += rec.name;
    out += '\n';
    for (std::size_t i = 0; i < rec.seq.size(); i += kWidth) {
      out.append(rec.seq, i, kWidth);
      out += '\n';
    }
  }
  return out;
}

std::uint64_t bytes_hash(const std::string& bytes) {
  return hm::util::hash_bytes(bytes.data(), bytes.size());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double scaffold_n50(const std::vector<std::vector<hm::io::FastaRecord>>& sets) {
  std::vector<std::uint64_t> lengths;
  for (const auto& records : sets)
    for (const auto& r : records) lengths.push_back(r.seq.size());
  return static_cast<double>(
      hm::util::compute_assembly_stats(std::move(lengths)).n50);
}

double imbalance(const std::vector<double>& per_rank) {
  double max = 0.0;
  double sum = 0.0;
  for (double v : per_rank) {
    max = std::max(max, v);
    sum += v;
  }
  if (sum <= 0.0) return 1.0;
  return max / (sum / static_cast<double>(per_rank.size()));
}

// ---- inputs ----

namespace {

constexpr std::uint64_t kHumanGenomeBp = 500'000;
constexpr std::uint64_t kWheatGenomeBp = 500'000;
constexpr std::uint64_t kServedGenomeBp = 60'000;
constexpr double kServedCoverage = 15.0;
constexpr int kServedInputs = 4;
/// Seed of the served inputs' reads, whatever the workload seed.
constexpr std::uint64_t kServedReadsSeed = 1;
/// Read samples a one-shot run rotates through. Contiguity differs between
/// samples of one genome by ~15%; scoring three together keeps the quality
/// metrics of one seed close to those of the next.
constexpr int kOneshotSamples = 3;

/// Independent dataset seeds per (workload, input) from one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return hm::util::mix64(seed * 0x9e3779b97f4a7c15ULL + salt) % 1'000'000'007ULL;
}

Input from_dataset(hm::sim::Dataset ds, const std::string& dir,
                   const std::string& label) {
  if (!hm::sim::write_dataset_fastq(ds, dir))
    throw std::runtime_error("cannot write FASTQ under " + dir);
  Input in;
  in.label = label;
  in.reads = ds.total_reads();
  in.libraries = ds.libraries;
  in.genome = std::move(ds.genome);
  for (const auto& lib : in.libraries)
    in.fastq_bytes += static_cast<std::uint64_t>(
        std::ifstream(lib.fastq_path, std::ios::binary | std::ios::ate)
            .tellg());
  in.config.k = 31;
  // Pinned at what auto-selection picks on these datasets, so a change to
  // the selector cannot silently change the measured work.
  in.config.kmer.min_count = 2;
  return in;
}

/// Re-sequence `ds.genome`: every library is simulated again from `seed`
/// with the error rate and coverage share the dataset preset uses.
void resequence(hm::sim::Dataset& ds, std::uint64_t seed,
                const std::vector<std::pair<double, double>>& cov_err) {
  for (std::size_t i = 0; i < ds.libraries.size(); ++i) {
    const auto& lib = ds.libraries[i];
    hm::sim::LibraryConfig lc;
    lc.name = lib.name;
    lc.read_length = lib.read_length;
    lc.mean_insert = lib.mean_insert;
    lc.stddev_insert = lib.stddev_insert;
    lc.coverage = cov_err[i].first;
    lc.error_rate = cov_err[i].second;
    lc.seed = derive_seed(seed, 100 + i);
    ds.reads[i] = hm::sim::simulate_library(ds.genome, lc);
  }
}

/// kOneshotSamples re-sequencings of `ds.genome` from `seed`, each written
/// under its own subdirectory of `dir`.
std::vector<Input> resequenced(hm::sim::Dataset ds, std::uint64_t seed,
                               const std::string& dir, const std::string& label,
                               const std::vector<std::pair<double, double>>& cov_err) {
  std::vector<Input> inputs;
  for (int s = 0; s < kOneshotSamples; ++s) {
    resequence(ds, derive_seed(seed, 1000 + static_cast<std::uint64_t>(s)),
               cov_err);
    const std::string name = label + std::to_string(s);
    std::filesystem::create_directories(dir + "/" + name);
    inputs.push_back(from_dataset(ds, dir + "/" + name, name));
  }
  return inputs;
}

}  // namespace

std::vector<Input> make_human_inputs(std::uint64_t seed, const std::string& dir) {
  auto inputs = resequenced(hm::sim::make_human_like(kHumanGenomeBp, 1001, 20.0),
                            seed, dir, "human", {{20.0, 0.008}});
  for (auto& in : inputs) {
    in.config.scaffolding_rounds = 1;
    in.config.merge_bubbles = true;
    in.config.sync_k();
  }
  return inputs;
}

std::vector<Input> make_wheat_inputs(std::uint64_t seed, const std::string& dir) {
  auto ds = hm::sim::make_wheat_like(kWheatGenomeBp, 1002);
  // The long-insert libraries scaffold only (§5).
  for (auto& lib : ds.libraries)
    if (lib.name.rfind("mp", 0) == 0) lib.for_contigging = false;
  const double cov = 24.0;
  auto inputs = resequenced(
      std::move(ds), seed, dir, "wheat",
      {{cov * 0.8 / 3, 0.002}, {cov * 0.8 / 3, 0.002}, {cov * 0.8 / 3, 0.002},
       {cov * 0.1, 0.002}, {cov * 0.1, 0.002}});
  for (auto& in : inputs) {
    in.config.scaffolding_rounds = 4;
    in.config.merge_bubbles = false;
    in.config.sync_k();
  }
  return inputs;
}

std::vector<Input> make_served_inputs(const std::string& dir) {
  std::vector<Input> inputs;
  for (int i = 0; i < kServedInputs; ++i) {
    const std::string sub = dir + "/served" + std::to_string(i);
    std::filesystem::create_directories(sub);
    auto ds = hm::sim::make_human_like(
        kServedGenomeBp, 2001 + static_cast<std::uint64_t>(i), kServedCoverage);
    resequence(ds,
               derive_seed(kServedReadsSeed, 10 + static_cast<std::uint64_t>(i)),
               {{kServedCoverage, 0.008}});
    Input in = from_dataset(std::move(ds), sub, "served" + std::to_string(i));
    in.config.scaffolding_rounds = 1;
    in.config.merge_bubbles = true;
    in.config.sync_k();
    // Library metadata exactly as the server derives it from SUBMIT, so the
    // one-shot reference and the served job are the same assembly.
    hm::server::JobSpec spec;
    std::string error;
    const auto cmd =
        hm::server::parse_command("SUBMIT " + submit_args(in) + " out=x");
    if (!hm::server::JobServer::parse_submit(cmd, &spec, &error))
      throw std::runtime_error("served input rejected: " + error);
    in.libraries = spec.libraries;
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::string submit_args(const Input& input) {
  std::string reads;
  for (const auto& lib : input.libraries) {
    if (!reads.empty()) reads += ',';
    char insert[32];
    std::snprintf(insert, sizeof insert, "%g", lib.mean_insert);
    reads += lib.fastq_path + ":" + insert + (lib.for_contigging ? "" : ":s");
  }
  return "reads=" + reads + " k=" + std::to_string(input.config.k) +
         " min_count=" + std::to_string(input.config.kmer.min_count) +
         " rounds=" + std::to_string(input.config.scaffolding_rounds) +
         (input.config.merge_bubbles ? " diploid=1" : "");
}

}  // namespace perfbench
