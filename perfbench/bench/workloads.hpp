#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "seq/read.hpp"
#include "sim/genome_sim.hpp"

/// The benchmark's inputs, generated from the workload seed with src/sim.
///
/// Each input is a simulated genome (kept for the ground-truth evaluator),
/// its read libraries written as FASTQ into the run's work directory, and
/// the pipeline configuration the workload assembles it with. The program
/// under test only ever sees the FASTQ files.
namespace perfbench {

/// Ranks and ranks-per-node of every team the benchmark starts: four ranks
/// on two simulated nodes, so on-node and off-node traffic both exist.
inline constexpr int kRanks = 4;
inline constexpr int kRanksPerNode = 2;

struct Input {
  std::string label;
  hipmer::sim::Genome genome;
  std::vector<hipmer::seq::ReadLibrary> libraries;
  hipmer::pipeline::PipelineConfig config;
  std::uint64_t fastq_bytes = 0;
  std::uint64_t reads = 0;
};

/// The one-shot workloads assemble one fixed simulated genome each (the
/// organism); the seed re-sequences it into three read samples, which a run
/// assembles in rotation.
///
/// Human-like: 500 kbp diploid genome, one PE395 library at 20x, one
/// scaffolding round, bubble merging on.
[[nodiscard]] std::vector<Input> make_human_inputs(std::uint64_t seed,
                                                   const std::string& dir);

/// Wheat-like: 500 kbp repetitive genome, three short-insert plus two
/// scaffolding-only long-insert libraries, four scaffolding rounds.
[[nodiscard]] std::vector<Input> make_wheat_inputs(std::uint64_t seed,
                                                   const std::string& dir);

/// The served mix's four distinct small human-like inputs (~60 kbp, 15x),
/// configured exactly as the server configures a `diploid=1` job. They are
/// the same for every seed: the seed sets the order of submissions instead
/// (`ServedPlan::seed`). Re-sequencing a genome this small moves its N50 by
/// half or more between seeds, which would drown the served quality metrics.
[[nodiscard]] std::vector<Input> make_served_inputs(const std::string& dir);

/// The SUBMIT arguments (minus out= and tenant=) that make the job server
/// assemble `input` with `input.config`.
[[nodiscard]] std::string submit_args(const Input& input);

}  // namespace perfbench
