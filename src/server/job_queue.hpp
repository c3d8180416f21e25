#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "seq/read.hpp"

/// Job queue with admission control for the assembly server.
///
/// Submissions are admitted against two budgets — a queue-depth cap and a
/// resident-memory estimate summed over every queued+running job (the
/// estimate is the total input FASTQ size, a good proxy for the resident
/// read store that dominates a job's footprint). Admitted jobs are
/// scheduled highest priority first, FIFO within a priority. One executor
/// drains the queue; any number of control connections submit, poll and
/// cancel concurrently.
namespace hipmer::server {

/// kQuarantined is the poison-job terminal state: the job died
/// `max_attempts` times, the retry policy gave up, and its accumulated
/// fault record stays retrievable via STATUS while later jobs run clean.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled,
                      kQuarantined };

[[nodiscard]] const char* job_state_name(JobState state);

/// True for states a job can never leave.
[[nodiscard]] inline bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kQuarantined;
}

/// Everything the executor needs to run one job, parsed from SUBMIT.
struct JobSpec {
  std::uint64_t id = 0;
  std::string tenant = "default";
  int priority = 0;

  std::vector<seq::ReadLibrary> libraries;
  std::string output_path;

  int k = 31;
  /// 0 = keep the pipeline default.
  std::uint32_t min_count = 0;
  int rounds = 1;
  /// Merge diploid bubbles before scaffolding (the CLI's --diploid). Off by
  /// default so a served job matches a one-shot `assemble` byte for byte.
  bool diploid = false;
  bool resume = false;
  bool use_cache = true;

  /// Fault injection riders (tests / chaos drills): same specs the CLI's
  /// --kill and --chaos-spec take. A job carrying these can only hurt
  /// itself — containment is the server's job.
  std::string kill_spec;
  std::string chaos_spec;
  std::uint64_t chaos_seed = 1;

  /// Admission estimate: total input bytes (filled at submit).
  std::uint64_t estimated_bytes = 0;

  /// Retry budget: attempts before quarantine. 0 = take the server
  /// default; resolved to a concrete value before the job is journaled.
  std::uint32_t max_attempts = 0;
  /// Wall-clock budget in ms from submission; 0 = none. Enforced through
  /// the pipeline's cancel_poll and at dispatch time.
  std::uint64_t deadline_ms = 0;
  /// system_clock ms at admission — the deadline's anchor. Journaled, so a
  /// restart doesn't reset a job's clock.
  std::uint64_t submit_wall_ms = 0;
};

/// Filled in by the executor as the job finishes (any terminal state).
struct JobOutcome {
  std::uint64_t scaffolds = 0;
  std::uint64_t scaffold_bases = 0;
  bool cache_hit = false;
  std::string error;
  std::vector<pipeline::StageReport> stages;
};

struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kQueued;
  JobOutcome outcome;
  /// Set by CANCEL on a running job; the pipeline's cancel_poll reads it
  /// between stages.
  std::atomic<bool> cancel_requested{false};
  /// Attempts started so far. A failed attempt bumps it under the queue
  /// lock (`requeue`, or `finish` into kQuarantined), so STATUS reads it
  /// race-free.
  std::uint32_t attempt = 0;
  /// Exponential-backoff gate: a queued job is not dispatchable before
  /// this instant.
  std::chrono::steady_clock::time_point not_before{};
  /// Accumulated per-attempt failure reasons — the quarantine fault
  /// record STATUS reports.
  std::string fault_log;
};

struct AdmissionConfig {
  std::size_t max_queued = 16;
  /// Sum of estimated_bytes over queued+running jobs may not exceed this.
  std::uint64_t max_resident_bytes = 4ull << 30;
  /// Terminal job records retained per tenant for STATUS/RESULT queries;
  /// older ones are evicted so a long-lived server's history (and the
  /// map every submit/status scans) stays bounded.
  std::size_t max_retained_terminal = 32;
};

class JobQueue {
 public:
  explicit JobQueue(AdmissionConfig admission) : admission_(admission) {}

  /// Admission-checked enqueue. On success assigns spec.id and returns
  /// the id; on rejection returns 0 and sets `error` to a one-word reason
  /// (queue-full / memory-budget). `precommit`, when set, runs under the
  /// queue lock after the id is assigned but before the job becomes
  /// visible — the write-ahead hook: returning false aborts the admission
  /// with error "journal-io", so no job exists that the journal missed.
  std::uint64_t submit(JobSpec spec, std::string* error,
                       const std::function<bool(const JobSpec&)>& precommit =
                           nullptr);

  /// Block until a job is runnable (marked kRunning before return) or the
  /// queue shuts down (nullptr). Jobs inside their retry-backoff window
  /// are held back until `not_before`. The returned record stays owned by
  /// the queue and outlives the job.
  JobRecord* pop_next();

  /// Retry hand-back: a running job whose attempt died goes back to
  /// queued, not dispatchable before `not_before`, one attempt further on.
  void requeue(JobRecord* job, std::chrono::steady_clock::time_point
                                   not_before);

  /// Journal-replay hand-back: re-create a job with its original id and
  /// recovered state (kQueued or a terminal state — never kRunning; an
  /// interrupted run is re-admitted as queued). Bypasses admission: the
  /// job was already admitted in a previous life. Returns the record, or
  /// nullptr when the id is already present.
  JobRecord* restore(JobSpec spec, JobState state, std::uint32_t attempt,
                     JobOutcome outcome, std::string fault_log);

  /// Queued jobs cancel immediately; running jobs get the flag (the
  /// executor lands the terminal state). False for unknown/terminal jobs.
  bool cancel(std::uint64_t id);

  /// Executor hand-back: record the terminal state + outcome
  /// (kQuarantined also counts the attempt that spent the budget).
  void finish(JobRecord* job, JobState state, JobOutcome outcome);

  struct Snapshot {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    /// 0-based position among queued jobs in dispatch order; -1 once off
    /// the queue.
    int queue_position = -1;
    JobOutcome outcome;
    std::string tenant;
    std::string output_path;
    std::uint32_t attempt = 0;
  };
  [[nodiscard]] std::optional<Snapshot> status(std::uint64_t id);

  struct Counters {
    std::size_t queued = 0;
    std::size_t running = 0;
    std::uint64_t resident_estimate = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t quarantined = 0;
  };
  [[nodiscard]] Counters counters();

  /// Wake the executor with nullptr; subsequent submits are rejected.
  void shutdown();

 private:
  /// Queued ids in dispatch order (priority desc, then submit order).
  [[nodiscard]] std::vector<std::uint64_t> queued_order_locked() const;

  /// Drop the tenant's oldest terminal records beyond
  /// admission_.max_retained_terminal (by value: the caller's record may
  /// itself be evicted).
  void evict_terminal_locked(std::string tenant);

  AdmissionConfig admission_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::uint64_t next_id_ = 1;
  /// unique_ptr: records hold an atomic and must stay address-stable for
  /// the executor while the map grows.
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> jobs_;
  Counters totals_;
};

}  // namespace hipmer::server
