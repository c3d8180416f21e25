#include "io/parallel_fastq.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "io/fastq.hpp"
#include "seq/read_name.hpp"

namespace hipmer::io {

namespace {

/// True if `pos` in `data` is the start of a FASTQ record: an '@' at the
/// start of a line whose line-after-next starts with '+'. `pos` may equal 0
/// (file start) or follow a '\n'.
bool is_record_start(const std::string& data, std::size_t pos) {
  if (pos >= data.size() || data[pos] != '@') return false;
  if (pos != 0 && data[pos - 1] != '\n') return false;
  // Skip the header line, then the sequence line; the next line must be '+'.
  std::size_t nl1 = data.find('\n', pos);
  if (nl1 == std::string::npos) return false;
  std::size_t nl2 = data.find('\n', nl1 + 1);
  if (nl2 == std::string::npos) return false;
  return nl2 + 1 < data.size() && data[nl2 + 1] == '+';
}

/// True if the record starting at `pos` is named as the second mate of a
/// pair ("<lib>:<pair>/1"). No rank's range starts there, so both mates of
/// an interleaved pair land on one rank, as the in-memory deal keeps them.
bool is_second_mate(const std::string& data, std::size_t pos) {
  const std::size_t nl = data.find('\n', pos);
  std::uint64_t pair = 0;
  int mate = 0;
  return seq::parse_read_name(
             std::string_view(data).substr(pos + 1, nl - pos - 1), pair,
             mate) &&
         mate == 1;
}

}  // namespace

ParallelFastqReader::ParallelFastqReader(std::string path,
                                         std::size_t block_size)
    : path_(std::move(path)), block_size_(block_size) {
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) throw std::runtime_error("cannot open FASTQ file: " + path_);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw std::runtime_error("cannot stat FASTQ file: " + path_);
  }
  file_size_ = static_cast<std::uint64_t>(st.st_size);
}

ParallelFastqReader::~ParallelFastqReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ParallelFastqReader::pread_range(std::uint64_t offset,
                                             std::size_t length) const {
  if (offset >= file_size_) return {};
  length = static_cast<std::size_t>(
      std::min<std::uint64_t>(length, file_size_ - offset));
  std::string out(length, '\0');
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(fd_, out.data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) throw std::runtime_error("pread failed on: " + path_);
    if (n == 0) break;  // unexpected EOF (file shrank); return what we have
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  return out;
}

std::uint64_t ParallelFastqReader::next_record_boundary(
    std::uint64_t offset) const {
  if (offset == 0) return 0;
  // Read a window generously larger than a record; grow on pathological
  // inputs (very long reads).
  std::size_t window = 64 << 10;
  while (offset < file_size_) {
    const std::string data = pread_range(offset, window);
    // Candidate boundaries are positions after a newline.
    for (std::size_t i = 0; i + 1 < data.size(); ++i) {
      if (data[i] == '\n' && is_record_start(data, i + 1) &&
          !is_second_mate(data, i + 1))
        return offset + i + 1;
    }
    if (offset + data.size() >= file_size_) return file_size_;
    if (window >= (64u << 20))
      throw std::runtime_error("no FASTQ record boundary found in 64MB: " + path_);
    window *= 4;
  }
  return file_size_;
}

double ParallelFastqReader::sample_record_length(std::uint64_t offset,
                                                 int max_records) const {
  const std::uint64_t start = next_record_boundary(offset);
  if (start >= file_size_) return 0.0;
  const std::string data = pread_range(start, block_size_);
  int records = 0;
  std::size_t pos = 0;
  std::size_t last_end = 0;
  while (records < max_records) {
    // A record is 4 lines.
    std::size_t p = pos;
    for (int line = 0; line < 4; ++line) {
      const std::size_t nl = data.find('\n', p);
      if (nl == std::string::npos) { p = std::string::npos; break; }
      p = nl + 1;
    }
    if (p == std::string::npos) break;
    last_end = p;
    pos = p;
    ++records;
  }
  if (records == 0) return 0.0;
  return static_cast<double>(last_end) / records;
}

void ParallelFastqReader::read_my_records(pgas::Rank& rank,
                                          seq::ReadStore& out) {
  const int p = rank.nranks();
  const int me = rank.id();
  // Root sizes the per-rank stats table; the barrier publishes it before
  // any rank takes a reference into it (a lazy any-rank resize would race
  // with slot writers). Under the multi-process fabric every process holds
  // its own reader, so each sizes its own copy.
  if ((rank.is_root() || rank.team().multiprocess()) &&
      stats_.size() != static_cast<std::size_t>(p))
    stats_.assign(static_cast<std::size_t>(p), ParallelFastqStats{});
  rank.barrier();
  ParallelFastqStats& st = stats_[static_cast<std::size_t>(me)];
  st = ParallelFastqStats{};

  // --- Step 1: sampling pass (each rank samples its own region; the
  // average record length feeds the boundary-scan window sizing and is the
  // direct analogue of the paper's id-length estimation). ---
  const std::uint64_t nominal =
      (file_size_ + static_cast<std::uint64_t>(p) - 1) / static_cast<std::uint64_t>(p);
  const std::uint64_t my_start_nominal = std::min<std::uint64_t>(
      nominal * static_cast<std::uint64_t>(me), file_size_);
  st.sampled_avg_record_bytes =
      sample_record_length(my_start_nominal, /*max_records=*/1024);
  rank.barrier();

  // --- Steps 2+3: byte-range split with boundary fast-forward. Rank i
  // fast-forwards past a partial record at its start (rank i-1 finishes
  // it by reading past its own end). ---
  const std::uint64_t my_start = next_record_boundary(my_start_nominal);
  const std::uint64_t next_start_nominal = std::min<std::uint64_t>(
      nominal * static_cast<std::uint64_t>(me + 1), file_size_);
  const std::uint64_t my_end = next_record_boundary(next_start_nominal);

  // --- Step 4: large buffered preads, parsed in memory. Record fields are
  // appended to `out` from views into `carry` — no per-record allocations
  // in the reader itself. ---
  if (my_start >= my_end) {
    rank.stats().add_io_read(0);
    return;
  }
  std::string carry;
  std::uint64_t offset = my_start;
  while (offset < my_end) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_size_, my_end - offset));
    std::string block = pread_range(offset, want);
    st.bytes_read += block.size();
    offset += block.size();
    carry += block;
    // Parse all complete records currently in `carry`.
    const std::string_view cv(carry);
    std::size_t pos = 0;
    while (true) {
      std::size_t probe = pos;
      std::size_t line_starts[4];
      bool complete = true;
      for (int line = 0; line < 4; ++line) {
        line_starts[line] = probe;
        const std::size_t nl = carry.find('\n', probe);
        if (nl == std::string::npos) { complete = false; break; }
        probe = nl + 1;
      }
      if (!complete) break;
      const std::size_t h_end = carry.find('\n', line_starts[0]);
      const std::size_t s_end = carry.find('\n', line_starts[1]);
      const std::size_t q_end = carry.find('\n', line_starts[3]);
      if (carry[line_starts[0]] != '@')
        throw std::runtime_error("parallel FASTQ reader desynchronized in: " + path_);
      const auto name =
          cv.substr(line_starts[0] + 1, h_end - line_starts[0] - 1);
      const auto bases = cv.substr(line_starts[1], s_end - line_starts[1]);
      const auto quals = cv.substr(line_starts[3], q_end - line_starts[3]);
      if (bases.size() != quals.size())
        throw std::runtime_error("FASTQ seq/qual length mismatch: " +
                                 std::string(name));
      out.append(name, bases, quals);
      ++st.records;
      pos = probe;
    }
    carry.erase(0, pos);
  }
  if (!carry.empty()) {
    // Partial trailing record: only legal at the very end of our range when
    // my_end coincided with a block boundary mid-record — cannot happen
    // because my_end is a record boundary. Guard anyway.
    throw std::runtime_error("parallel FASTQ reader left a partial record in: " + path_);
  }
  rank.stats().add_io_read(st.bytes_read);
}

}  // namespace hipmer::io
