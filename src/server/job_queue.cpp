#include "server/job_queue.hpp"

#include <algorithm>

namespace hipmer::server {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::vector<std::uint64_t> JobQueue::queued_order_locked() const {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, job] : jobs_)
    if (job->state == JobState::kQueued) ids.push_back(id);
  // Higher priority first; map iteration already gave submit order, and
  // stable_sort preserves it within a priority.
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return jobs_.at(a)->spec.priority >
                            jobs_.at(b)->spec.priority;
                   });
  return ids;
}

std::uint64_t JobQueue::submit(
    JobSpec spec, std::string* error,
    const std::function<bool(const JobSpec&)>& precommit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    if (error != nullptr) *error = "shutting-down";
    return 0;
  }
  std::size_t queued = 0;
  std::uint64_t resident = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued) {
      ++queued;
      resident += job->spec.estimated_bytes;
    } else if (job->state == JobState::kRunning) {
      resident += job->spec.estimated_bytes;
    }
  }
  if (queued >= admission_.max_queued) {
    if (error != nullptr) *error = "queue-full";
    return 0;
  }
  if (resident + spec.estimated_bytes > admission_.max_resident_bytes) {
    if (error != nullptr) *error = "memory-budget";
    return 0;
  }
  const std::uint64_t id = next_id_++;
  spec.id = id;
  // Write-ahead hook: the journal record must be durable before the job
  // becomes visible to pop_next or status. Under the lock so no observer
  // sees a job the journal missed.
  if (precommit && !precommit(spec)) {
    if (error != nullptr) *error = "journal-io";
    --next_id_;
    return 0;
  }
  auto job = std::make_unique<JobRecord>();
  job->spec = std::move(spec);
  jobs_.emplace(id, std::move(job));
  cv_.notify_all();
  return id;
}

JobRecord* JobQueue::pop_next() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Shutdown wins over remaining queued work: SHUTDOWN means "finish
    // the running job and stop", not "drain the backlog".
    if (shutdown_) return nullptr;
    const auto now = std::chrono::steady_clock::now();
    const auto order = queued_order_locked();
    // Dispatch the first queued job (priority order) whose retry backoff
    // has elapsed; jobs still inside their window only set the wakeup.
    auto wake = std::chrono::steady_clock::time_point::max();
    JobRecord* pick = nullptr;
    for (const auto id : order) {
      JobRecord* job = jobs_.at(id).get();
      if (job->not_before <= now) {
        pick = job;
        break;
      }
      wake = std::min(wake, job->not_before);
    }
    if (pick != nullptr) {
      pick->state = JobState::kRunning;
      return pick;
    }
    if (wake == std::chrono::steady_clock::time_point::max())
      cv_.wait(lock);
    else
      cv_.wait_until(lock, wake);
  }
}

void JobQueue::requeue(JobRecord* job,
                       std::chrono::steady_clock::time_point not_before) {
  std::lock_guard<std::mutex> lock(mu_);
  ++job->attempt;
  job->state = JobState::kQueued;
  job->not_before = not_before;
  cv_.notify_all();
}

JobRecord* JobQueue::restore(JobSpec spec, JobState state,
                             std::uint32_t attempt, JobOutcome outcome,
                             std::string fault_log) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spec.id;
  if (id == 0 || jobs_.count(id) != 0) return nullptr;
  next_id_ = std::max(next_id_, id + 1);
  auto job = std::make_unique<JobRecord>();
  job->spec = std::move(spec);
  job->state = state == JobState::kRunning ? JobState::kQueued : state;
  job->attempt = attempt;
  job->outcome = std::move(outcome);
  job->fault_log = std::move(fault_log);
  // Recovered history must keep the totals honest across restarts.
  switch (job->state) {
    case JobState::kDone:
      ++totals_.completed;
      break;
    case JobState::kFailed:
      ++totals_.failed;
      break;
    case JobState::kCancelled:
      ++totals_.cancelled;
      break;
    case JobState::kQuarantined:
      ++totals_.quarantined;
      break;
    default:
      break;
  }
  JobRecord* raw = job.get();
  jobs_.emplace(id, std::move(job));
  cv_.notify_all();
  return raw;
}

bool JobQueue::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord* job = it->second.get();
  if (job_state_terminal(job->state)) return false;
  if (job->state == JobState::kQueued) {
    job->state = JobState::kCancelled;
    ++totals_.cancelled;
    evict_terminal_locked(job->spec.tenant);
    return true;
  }
  // Running: the executor observes the flag at the next stage boundary
  // and lands kCancelled through finish().
  job->cancel_requested.store(true, std::memory_order_relaxed);
  return true;
}

void JobQueue::finish(JobRecord* job, JobState state, JobOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  job->state = state;
  job->outcome = std::move(outcome);
  switch (state) {
    case JobState::kDone:
      ++totals_.completed;
      break;
    case JobState::kFailed:
      ++totals_.failed;
      break;
    case JobState::kCancelled:
      ++totals_.cancelled;
      break;
    case JobState::kQuarantined:
      ++job->attempt;  // the attempt that spent the budget
      ++totals_.quarantined;
      break;
    default:
      break;
  }
  evict_terminal_locked(job->spec.tenant);
}

// `tenant` is taken by value: the caller's record may itself be evicted,
// which would invalidate a reference into it mid-scan.
void JobQueue::evict_terminal_locked(std::string tenant) {
  // Map order is id order = submission order, so the front of `terminal`
  // is the tenant's oldest history. Only terminal records are evicted —
  // the executor's pointer to the running job stays valid.
  std::vector<std::uint64_t> terminal;
  for (const auto& [id, rec] : jobs_)
    if (job_state_terminal(rec->state) && rec->spec.tenant == tenant)
      terminal.push_back(id);
  if (terminal.size() <= admission_.max_retained_terminal) return;
  const std::size_t excess = terminal.size() - admission_.max_retained_terminal;
  for (std::size_t i = 0; i < excess; ++i) jobs_.erase(terminal[i]);
}

std::optional<JobQueue::Snapshot> JobQueue::status(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const JobRecord& job = *it->second;
  Snapshot snap;
  snap.id = id;
  snap.state = job.state;
  snap.outcome = job.outcome;
  snap.tenant = job.spec.tenant;
  snap.output_path = job.spec.output_path;
  snap.attempt = job.attempt;
  if (job.state == JobState::kQueued) {
    const auto order = queued_order_locked();
    const auto pos = std::find(order.begin(), order.end(), id);
    if (pos != order.end())
      snap.queue_position = static_cast<int>(pos - order.begin());
  }
  return snap;
}

JobQueue::Counters JobQueue::counters() {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = totals_;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued) {
      ++c.queued;
      c.resident_estimate += job->spec.estimated_bytes;
    } else if (job->state == JobState::kRunning) {
      ++c.running;
      c.resident_estimate += job->spec.estimated_bytes;
    }
  }
  return c;
}

void JobQueue::shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

}  // namespace hipmer::server
