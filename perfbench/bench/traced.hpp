#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "pgas/comm_stats.hpp"
#include "workloads.hpp"

/// Traced replica of `Pipeline::run_from_fastq` for per-module numbers.
///
/// The benchmark issues the same stage sequence `Pipeline::assemble` runs with
/// default options (no checkpoint, resume, shuffle or oracle branches),
/// calling each module's public functions itself. Around every call it
/// records one span per rank with that rank's `CommStats` delta, and
/// around every collective stage a serial span with the per-rank deltas.
/// Spans stay in memory and are written once, as Chrome trace-event JSON.
/// Nothing inside src/ is instrumented, so the scaffolds must equal an
/// untraced run's byte for byte — the proof that this is the pipeline.
namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Name of the enclosing stage span (empty for stage spans).
  std::string parent;
  hipmer::pgas::CommStatsSnapshot delta;
};

class Tracer {
 public:
  explicit Tracer(int nranks);

  /// Thread-safe for distinct ranks: each rank appends to its own list.
  void add_rank_span(int rank, const std::string& name, Clock::time_point start,
                     Clock::time_point end,
                     const hipmer::pgas::CommStatsSnapshot& delta);
  void add_stage_span(const std::string& name, Clock::time_point start,
                      Clock::time_point end,
                      const hipmer::pgas::CommStatsSnapshot& delta);
  /// Stage every subsequent rank span belongs to (serial context only).
  void set_current_stage(std::string name) { current_stage_ = std::move(name); }

  /// Sum over calls of `name` of the call's extent across ranks (first
  /// rank start to last rank end); the k-th span of each rank is the same
  /// collective call.
  [[nodiscard]] double call_seconds(const std::string& name) const;

  [[nodiscard]] std::size_t span_count() const;
  bool write_chrome_json(const std::string& path, const std::string& label) const;

 private:
  Clock::time_point origin_;
  std::string current_stage_;
  std::vector<std::vector<Span>> rank_spans_;
  std::vector<Span> stage_spans_;
};

struct TracedRun {
  std::vector<hipmer::io::FastaRecord> scaffolds;
  double wall_s = 0.0;
  /// Per-layer metrics of this run (io.*, kcount.*, dbg.*, align.*,
  /// scaffold.*, and the run-wide pgas.transport_retries/offnode_MB).
  MetricTable metrics;
};

/// Assemble `input` on a fresh 4-rank team, recording into `tracer`.
[[nodiscard]] TracedRun run_traced(const Input& input, Tracer& tracer);

}  // namespace perfbench
