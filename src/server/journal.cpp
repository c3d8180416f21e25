#include "server/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "io/fs_faults.hpp"
#include "io/wire.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hipmer::server {

namespace fs = std::filesystem;

const char* journal_event_name(JournalEventType type) {
  switch (type) {
    case JournalEventType::kSubmit:
      return "submit";
    case JournalEventType::kStart:
      return "start";
    case JournalEventType::kCancel:
      return "cancel";
    case JournalEventType::kFail:
      return "fail";
    case JournalEventType::kFinish:
      return "finish";
  }
  return "unknown";
}

namespace {

constexpr std::uint32_t kMaxLibraries = 4096;

bool valid_event_type(std::uint8_t v) {
  return v >= static_cast<std::uint8_t>(JournalEventType::kSubmit) &&
         v <= static_cast<std::uint8_t>(JournalEventType::kFinish);
}

bool valid_state(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(JobState::kQuarantined);
}

}  // namespace

// wire-schema: journal_event writer
std::vector<std::byte> encode_journal_event(const JournalEvent& event) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(static_cast<std::uint32_t>(event.type));
  w.put_u64(event.job_id);
  w.put_u32(event.attempt);
  w.put_u32(static_cast<std::uint32_t>(event.final_state));
  w.put_u64(event.scaffolds);
  w.put_u64(event.scaffold_bases);
  w.put_u32(event.cache_hit ? 1 : 0);
  w.put_bytes(event.error);
  // The spec rides along flat (default-empty outside kSubmit): a single
  // fixed field list keeps the codec and its corruption sweeps simple.
  const JobSpec& s = event.spec;
  w.put_bytes(s.tenant);
  w.put_u32(static_cast<std::uint32_t>(s.priority));
  w.put_bytes(s.output_path);
  w.put_u32(static_cast<std::uint32_t>(s.k));
  w.put_u32(s.min_count);
  w.put_u32(static_cast<std::uint32_t>(s.rounds));
  w.put_u32((s.diploid ? 1u : 0u) | (s.resume ? 2u : 0u) |
            (s.use_cache ? 4u : 0u));
  w.put_bytes(s.kill_spec);
  w.put_bytes(s.chaos_spec);
  w.put_u64(s.chaos_seed);
  w.put_u64(s.estimated_bytes);
  w.put_u32(s.max_attempts);
  w.put_u64(s.deadline_ms);
  w.put_u64(s.submit_wall_ms);
  w.put_u32(static_cast<std::uint32_t>(s.libraries.size()));
  for (const auto& lib : s.libraries) {  // wire: loop libraries
    w.put_bytes(lib.name);
    w.put_bytes(lib.fastq_path);
    w.put_pod(lib.mean_insert);  // wire: pod double
    w.put_u32(lib.for_contigging ? 1 : 0);
  }
  return buf;
}

// wire-schema: journal_event reader
std::optional<JournalEvent> decode_journal_event(
    const std::vector<std::byte>& payload) {
  io::wire::Reader r(payload.data(), payload.size());
  try {
    JournalEvent event;
    const auto type = r.get_u32_checked("journal type");
    if (type > 0xff || !valid_event_type(static_cast<std::uint8_t>(type)))
      return std::nullopt;
    event.type = static_cast<JournalEventType>(type);
    event.job_id = r.get_u64_checked("journal job id");
    event.attempt = r.get_u32_checked("journal attempt");
    const auto state = r.get_u32_checked("journal final state");
    if (state > 0xff || !valid_state(static_cast<std::uint8_t>(state)))
      return std::nullopt;
    event.final_state = static_cast<JobState>(state);
    event.scaffolds = r.get_u64_checked("journal scaffolds");
    event.scaffold_bases = r.get_u64_checked("journal bases");
    const auto cache_hit = r.get_u32_checked("journal cache hit");
    if (cache_hit > 1) return std::nullopt;
    event.cache_hit = cache_hit != 0;
    event.error = r.get_bytes_checked("journal error");
    JobSpec& s = event.spec;
    s.id = event.job_id;
    s.tenant = r.get_bytes_checked("journal tenant");
    s.priority = static_cast<int>(r.get_u32_checked("journal priority"));
    s.output_path = r.get_bytes_checked("journal out");
    s.k = static_cast<int>(r.get_u32_checked("journal k"));
    s.min_count = r.get_u32_checked("journal min count");
    s.rounds = static_cast<int>(r.get_u32_checked("journal rounds"));
    const auto flags = r.get_u32_checked("journal flags");
    if (flags > 7) return std::nullopt;
    s.diploid = (flags & 1) != 0;
    s.resume = (flags & 2) != 0;
    s.use_cache = (flags & 4) != 0;
    s.kill_spec = r.get_bytes_checked("journal kill spec");
    s.chaos_spec = r.get_bytes_checked("journal chaos spec");
    s.chaos_seed = r.get_u64_checked("journal chaos seed");
    s.estimated_bytes = r.get_u64_checked("journal estimated bytes");
    s.max_attempts = r.get_u32_checked("journal max attempts");
    s.deadline_ms = r.get_u64_checked("journal deadline");
    s.submit_wall_ms = r.get_u64_checked("journal submit wall");
    const auto nlibs = r.get_u32_checked("journal library count");
    if (nlibs > kMaxLibraries) return std::nullopt;
    s.libraries.reserve(nlibs);
    for (std::uint32_t i = 0; i < nlibs; ++i) {  // wire: loop libraries
      seq::ReadLibrary lib;
      lib.name = r.get_bytes_checked("journal lib name");
      lib.fastq_path = r.get_bytes_checked("journal lib path");
      lib.mean_insert = r.get_pod_checked<double>("journal lib insert");
      const auto contigging = r.get_u32_checked("journal lib contigging");
      if (contigging > 1) return std::nullopt;
      lib.for_contigging = contigging != 0;
      s.libraries.push_back(std::move(lib));
    }
    if (!r.done()) return std::nullopt;
    return event;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

std::vector<std::byte> encode_journal_record(const JournalEvent& event) {
  const auto payload = encode_journal_event(event);
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  // [u32 length][payload] is exactly put_bytes' framing.
  w.put_bytes(std::string_view(reinterpret_cast<const char*>(payload.data()),
                               payload.size()));
  w.put_u32(util::crc32c(payload.data(), payload.size()));
  return buf;
}

std::optional<JournalEvent> decode_journal_record(
    const std::vector<std::byte>& record) {
  if (record.size() < 2 * sizeof(std::uint32_t)) return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, record.data(), sizeof len);
  if (len > kJournalMaxRecordBytes ||
      record.size() != 2 * sizeof(std::uint32_t) + len)
    return std::nullopt;
  std::uint32_t stored = 0;
  std::memcpy(&stored, record.data() + sizeof len + len, sizeof stored);
  std::vector<std::byte> payload(record.begin() + sizeof len,
                                 record.begin() + sizeof len + len);
  if (util::crc32c(payload.data(), payload.size()) != stored)
    return std::nullopt;
  return decode_journal_event(payload);
}

std::map<std::uint64_t, RecoveredJob> reconstruct_jobs(
    const std::vector<JournalEvent>& events) {
  std::map<std::uint64_t, RecoveredJob> jobs;
  for (const auto& event : events) {
    if (event.type == JournalEventType::kSubmit) {
      RecoveredJob job;
      job.spec = event.spec;
      job.state = JobState::kQueued;
      // Compacted journals carry consumed attempts and the fault log on
      // the SUBMIT record itself.
      job.attempt = event.attempt;
      job.fault_log = event.error;
      jobs[event.job_id] = std::move(job);
      continue;
    }
    const auto it = jobs.find(event.job_id);
    // An orphan transition (its SUBMIT compacted away after the job went
    // terminal and was evicted) carries no recoverable state.
    if (it == jobs.end()) continue;
    RecoveredJob& job = it->second;
    if (job_state_terminal(job.state)) continue;
    switch (event.type) {
      case JournalEventType::kStart:
        job.state = JobState::kRunning;
        job.attempt = event.attempt;
        break;
      case JournalEventType::kCancel:
        if (job.state == JobState::kQueued) {
          job.state = JobState::kCancelled;
        } else {
          // Running: the executor never landed the terminal record before
          // the crash; honor the cancellation instead of resuming.
          job.cancel_requested = true;
        }
        break;
      case JournalEventType::kFail:
        // One attempt died retryably; the job went back to the queue with
        // the next attempt number.
        job.state = JobState::kQueued;
        job.attempt = event.attempt + 1;
        if (!job.fault_log.empty()) job.fault_log += "; ";
        job.fault_log += "attempt " + std::to_string(event.attempt) + ": " +
                         event.error;
        break;
      case JournalEventType::kFinish:
        job.state = event.final_state;
        job.outcome.scaffolds = event.scaffolds;
        job.outcome.scaffold_bases = event.scaffold_bases;
        job.outcome.cache_hit = event.cache_hit;
        job.outcome.error = event.error;
        break;
      case JournalEventType::kSubmit:
        break;
    }
  }
  // A cancel observed while running turns terminal here: the interrupted
  // attempt will never finish, and the user asked for it to stop.
  for (auto& [id, job] : jobs) {
    if (job.state == JobState::kRunning && job.cancel_requested) {
      job.state = JobState::kCancelled;
      job.outcome.error = "cancelled before restart";
    }
  }
  return jobs;
}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  close_locked();
}

void JobJournal::close_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool JobJournal::open_for_append_locked() {
  close_locked();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    util::log_warn("journal: cannot open " + path_ + ": " +
                   std::strerror(errno));
    return false;
  }
  std::error_code ec;
  const auto size = fs::file_size(path_, ec);
  size_ = ec ? 0 : static_cast<std::uint64_t>(size);
  return true;
}

std::optional<JobJournal::ReplayResult> JobJournal::open_and_replay() {
  std::lock_guard<std::mutex> lock(mu_);
  ReplayResult result;

  std::error_code ec;
  const fs::path dir = fs::path(path_).parent_path();
  if (!dir.empty()) fs::create_directories(dir, ec);
  // A compaction that died mid-commit leaves journal.bin.tmp next to a
  // still-valid journal; sweep it before anything else.
  fs::remove(path_ + ".tmp", ec);

  auto bytes = io::read_file(path_);
  const std::size_t header = 2 * sizeof(std::uint32_t);
  bool fresh = !bytes.has_value();
  if (bytes && bytes->size() >= header) {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::memcpy(&magic, bytes->data(), sizeof magic);
    std::memcpy(&version, bytes->data() + sizeof magic, sizeof version);
    if (magic != kJournalMagic || version != kJournalVersion) {
      // Nothing in a foreign file is recoverable; move it aside rather
      // than silently destroy whatever it was.
      util::log_warn("journal: " + path_ +
                     " has a corrupt or foreign header; starting fresh");
      fs::rename(path_, path_ + ".corrupt", ec);
      fresh = true;
      result.tail_truncated = true;
    }
  } else if (bytes && !bytes->empty()) {
    // Shorter than a header: torn creation.
    fresh = true;
    result.tail_truncated = true;
  } else if (bytes && bytes->empty()) {
    fresh = true;
  }

  if (fresh) {
    std::vector<std::byte> head;
    io::wire::Writer w(head);
    w.put_u32(kJournalMagic);
    w.put_u32(kJournalVersion);
    const int fd =
        ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      util::log_warn("journal: cannot create " + path_ + ": " +
                     std::strerror(errno));
      return std::nullopt;
    }
    const auto n = ::write(fd, head.data(), head.size());
    ::fsync(fd);
    ::close(fd);
    if (n != static_cast<ssize_t>(head.size())) {
      util::log_warn("journal: cannot write header to " + path_);
      return std::nullopt;
    }
    if (!open_for_append_locked()) return std::nullopt;
    result.valid_bytes = header;
    return result;
  }

  // Scan: accept records while framing and CRC hold; the first torn or
  // corrupt record ends the valid prefix.
  std::size_t pos = header;
  const auto& data = *bytes;
  while (pos + 2 * sizeof(std::uint32_t) <= data.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, data.data() + pos, sizeof len);
    if (len > kJournalMaxRecordBytes ||
        pos + 2 * sizeof(std::uint32_t) + len > data.size())
      break;
    std::vector<std::byte> record(
        data.begin() + static_cast<std::ptrdiff_t>(pos),
        data.begin() +
            static_cast<std::ptrdiff_t>(pos + 2 * sizeof(std::uint32_t) +
                                        len));
    auto event = decode_journal_record(record);
    if (!event) break;
    result.events.push_back(std::move(*event));
    pos += 2 * sizeof(std::uint32_t) + len;
  }
  if (pos < data.size()) {
    result.tail_truncated = true;
    util::log_warn("journal: truncating torn tail of " + path_ + " (" +
                   std::to_string(data.size() - pos) + " bytes after " +
                   std::to_string(result.events.size()) + " valid records)");
    const int fd = ::open(path_.c_str(), O_WRONLY);
    if (fd >= 0) {
      if (::ftruncate(fd, static_cast<off_t>(pos)) != 0)
        util::log_warn("journal: cannot truncate " + path_ + ": " +
                       std::strerror(errno));
      ::fsync(fd);
      ::close(fd);
    }
  }
  result.valid_bytes = pos;
  if (!open_for_append_locked()) return std::nullopt;
  return result;
}

bool JobJournal::append(const JournalEvent& event, std::string* error_name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto set_error = [&](const char* name) {
    if (error_name != nullptr) *error_name = name;
    return false;
  };
  if (fd_ < 0) return set_error("journal-closed");

  const auto record = encode_journal_record(event);
  io::FsFaults& shim = io::FsFaults::instance();
  const io::FsFate fate =
      shim.armed() ? shim.next_fate(path_) : io::FsFate::kOk;

  std::size_t write_size = record.size();
  bool injected_fail = false;
  const char* fate_name = "journal-io";
  switch (fate) {
    case io::FsFate::kOk:
      break;
    case io::FsFate::kEnospc:
      return set_error("journal-enospc");
    case io::FsFate::kEio:
      return set_error("journal-eio");
    case io::FsFate::kShortWrite:
    case io::FsFate::kCrashBeforeRename:
      // For an append there is no rename; both tear the record mid-write.
      write_size = record.size() > 1
                       ? static_cast<std::size_t>(
                             shim.mix(path_, size_, 0x746F726EULL) %
                             record.size())
                       : 0;
      injected_fail = true;
      fate_name = "journal-short-write";
      break;
    case io::FsFate::kCrashAfterRename:
      // The bytes land but the "process dies" before acking: the caller
      // sees failure, replay sees the record. At-least-once is the safe
      // direction for a WAL.
      injected_fail = true;
      fate_name = "journal-crash";
      break;
  }

  const std::uint64_t before = size_;
  bool failed = false;
  if (write_size > 0) {
    const auto n = ::write(fd_, record.data(), write_size);
    if (n < 0) {
      failed = true;
    } else {
      size_ += static_cast<std::uint64_t>(n);
      failed = static_cast<std::size_t>(n) != record.size();
    }
  } else {
    failed = true;
  }

  if (failed || injected_fail) {
    if (fate != io::FsFate::kCrashAfterRename) {
      // Self-heal: a failed append must not leave torn bytes for the next
      // append to bury mid-file — truncate back to the valid prefix.
      if (::ftruncate(fd_, static_cast<off_t>(before)) == 0) size_ = before;
    }
    ::fsync(fd_);
    return set_error(fate_name);
  }
  if (::fsync(fd_) != 0) return set_error("journal-fsync");
  return true;
}

bool JobJournal::compact(const std::vector<JournalEvent>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(kJournalMagic);
  w.put_u32(kJournalVersion);
  for (const auto& event : live) {
    const auto record = encode_journal_record(event);
    buf.insert(buf.end(), record.begin(), record.end());
  }
  close_locked();
  const auto status = io::write_file_atomic(path_, buf.data(), buf.size());
  if (status != io::AtomicWriteStatus::kOk) {
    std::error_code ec;
    fs::remove(path_ + ".tmp", ec);
    util::log_warn("journal: compaction of " + path_ +
                   " failed; keeping the uncompacted log");
  }
  // Either way the on-disk journal is valid (new on success, old on
  // failure) — reopen for appends.
  return open_for_append_locked() &&
         status == io::AtomicWriteStatus::kOk;
}

}  // namespace hipmer::server
