#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgas/thread_team.hpp"
#include "seq/read_store.hpp"

/// Parallel block FASTQ reader (§3.3 of the paper).
///
/// The paper's algorithm, reproduced here:
///   1. **Sample**: each rank samples records near the start of its region
///      to estimate the average record length (the paper samples ~1M reads
///      to estimate id lengths; id length variation is why record length
///      cannot be assumed constant).
///   2. **Split**: the file is divided into P byte ranges of equal size.
///   3. **Fast-forward**: a split point generally lands mid-record, so a
///      rank scans forward to the next true record boundary; the partial
///      record it skipped is processed by the previous rank, which reads
///      *past* its end offset until it completes the record it started.
///      A boundary never falls between the two mates of an interleaved
///      pair: a record named as a second mate (`seq/read_name.hpp`) is
///      skipped too, so mates always share a rank.
///      Record-boundary detection uses the standard FASTQ disambiguation:
///      a line starting with '@' is a header only if the line after next
///      starts with '+' (quality lines may also start with '@').
///   4. **Buffered reads**: data is pulled with large pread() calls (the
///      MPI_File_read_at analogue) and parsed in memory.
///
/// Every byte read is charged to the rank's `io_read_bytes` so the machine
/// model can apply the saturating-filesystem term.
namespace hipmer::io {

struct ParallelFastqStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t records = 0;
  double sampled_avg_record_bytes = 0.0;
};

class ParallelFastqReader {
 public:
  /// `block_size` is the pread granularity (paper: "large buffer sizes").
  explicit ParallelFastqReader(std::string path,
                               std::size_t block_size = 4u << 20);

  /// Collective: appends to `out` the records whose byte offset falls in
  /// this rank's range. Must be called by every rank of the team. The
  /// union over ranks is exactly the file, with no duplicates. With a
  /// packed store the record fields go straight from the parse buffer into
  /// the 2-bit arena — no per-record std::string triple ever exists.
  void read_my_records(pgas::Rank& rank, seq::ReadStore& out);

  /// Stats from the last read_my_records call on this rank.
  [[nodiscard]] const ParallelFastqStats& stats(int rank_id) const {
    return stats_[static_cast<std::size_t>(rank_id)];
  }

  [[nodiscard]] std::uint64_t file_size() const noexcept { return file_size_; }

  /// Estimate average record length by parsing up to `max_records` records
  /// starting at `offset` (rounded forward to a record boundary).
  [[nodiscard]] double sample_record_length(std::uint64_t offset,
                                            int max_records) const;

  /// Exposed for tests: offset of the first record boundary at or after
  /// `offset` that does not start a second mate (file_size if none).
  [[nodiscard]] std::uint64_t next_record_boundary(std::uint64_t offset) const;

 private:
  [[nodiscard]] std::string pread_range(std::uint64_t offset,
                                        std::size_t length) const;

  std::string path_;
  std::size_t block_size_;
  std::uint64_t file_size_ = 0;
  int fd_ = -1;
  std::vector<ParallelFastqStats> stats_;

 public:
  ~ParallelFastqReader();
  ParallelFastqReader(const ParallelFastqReader&) = delete;
  ParallelFastqReader& operator=(const ParallelFastqReader&) = delete;
};

}  // namespace hipmer::io
