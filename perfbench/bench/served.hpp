#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

/// Closed-loop client sessions against an in-process job server.
///
/// Each client submits one job, polls until it is terminal, checks the
/// job's FASTA against the one-shot reference of the same input, and only
/// then submits the next. Every timing is taken around client calls or
/// read from the server's RESULT `STAGE` lines and `STATS` counters.
namespace perfbench {

struct ServedPlan {
  int clients = 2;
  /// Closed-loop duration; jobs in flight at the deadline still finish.
  double seconds = 10.0;
  /// Stop after this many submissions in total (0 = until the deadline).
  int max_jobs = 0;
  /// Extra server launches on fresh state, timed launch-to-PING only, made
  /// both before and after the session: the launch time drifts with the
  /// host's fsync latency over seconds, and two windows carry less of that
  /// drift into the run's median than one.
  int setup_launches = 0;
  std::uint64_t seed = 1;
};

struct ServedJob {
  int input = 0;
  bool ok = false;
  bool cache_hit = false;
  double latency_s = 0.0;  // SUBMIT sent to terminal state observed
  double ack_ms = 0.0;     // SUBMIT round trip (includes the journal fsync)
  double exec_s = 0.0;     // sum of the job's STAGE walls
  double modeled_s = 0.0;  // sum of the job's STAGE modeled seconds
  double ckpt_s = 0.0;     // the job's checkpoint STAGE walls
};

struct ServedSession {
  Samples setup_s;  // launch to first PING reply, one per launch
  std::vector<ServedJob> jobs;
  double loop_wall_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Run one session. `reference_fasta[i]` is the byte-exact FASTA a
/// one-shot run of `inputs[i]` writes. Paths are relative to the current
/// directory, which holds the inputs.
[[nodiscard]] ServedSession run_served(
    const std::vector<Input>& inputs,
    const std::vector<std::string>& reference_fasta, const ServedPlan& plan);

/// server.* and ckpt.* per-layer metrics of a session.
[[nodiscard]] MetricTable served_layer_metrics(const ServedSession& session);

}  // namespace perfbench
