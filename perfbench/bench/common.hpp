#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "io/fasta.hpp"

/// Shared plumbing of the benchmark program: sample sets with the same
/// quantile rule the result checker uses, metric tables, and the output
/// fingerprint every correctness check compares.
namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A set of timings. Quantiles follow Python's
/// `statistics.quantiles(method="exclusive")`, so a p75 printed here is the
/// p75 a reader recomputes from the printed samples.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  [[nodiscard]] double quantile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    const double h = (n + 1.0) * p;
    const double j = std::floor(h);
    if (j < 1.0) return v.front();
    if (j >= n) return v.back();
    const auto i = static_cast<std::size_t>(j);
    return v[i - 1] + (h - j) * (v[i] - v[i - 1]);
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }

 private:
  std::vector<double> values_;
};

/// One reported metric: value, unit, and how many samples it summarizes
/// (1 for counts and single measurements).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

using MetricTable = std::map<std::string, Metric>;

/// Outcome of one benchmark invocation.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricTable metrics;

  /// Record a check; a failed check marks the whole run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

/// The bytes `io::write_fasta` would write for `records`, hashed: the
/// fingerprint that repeat, traced-vs-untraced and served-vs-one-shot
/// comparisons agree on.
[[nodiscard]] std::string fasta_bytes(
    const std::vector<hipmer::io::FastaRecord>& records);
[[nodiscard]] std::uint64_t bytes_hash(const std::string& bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Whole-file read; empty string when the file is missing.
[[nodiscard]] std::string read_file(const std::string& path);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Scaffold N50 of one or more record sets pooled into one, in bases.
[[nodiscard]] double scaffold_n50(
    const std::vector<std::vector<hipmer::io::FastaRecord>>& sets);

/// max/mean of per-rank values (1.0 when every value is zero).
[[nodiscard]] double imbalance(const std::vector<double>& per_rank);

}  // namespace perfbench
