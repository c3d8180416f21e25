#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

/// Misra–Gries frequent-items ("heavy hitter") sketch (§3.1).
///
/// With θ counter slots, every item x with true frequency f(x) >= n/θ is
/// guaranteed to be present in the summary, and each reported count f'(x)
/// satisfies f(x) - n/θ <= f'(x) <= f(x) — the lower-bound property the
/// paper relies on ("the reported count is a lower bound on the actual
/// count"). Summaries are *mergeable* (Agarwal et al.): combining two
/// summaries and decrementing by the (θ+1)-largest count preserves the
/// guarantee, which is what makes the parallel scheme of Cafaro & Tempesta
/// work — each rank sketches its local stream, then the sketches merge.
namespace hipmer::kcount {

template <typename K, typename Hash = std::hash<K>>
class MisraGries {
 public:
  /// `capacity` is θ, the number of counter slots (paper default: 32,000).
  explicit MisraGries(std::size_t capacity) : capacity_(capacity) {
    counters_.reserve(capacity + 1);
  }

  /// Observe one occurrence of `key` (weight `w`).
  void offer(const K& key, std::uint64_t w = 1) {
    n_ += w;
    if (auto it = counters_.find(key); it != counters_.end()) {
      it->second += w;
      return;
    }
    // Decrement-all steps. With weighted offers, decrement by the smaller
    // of w and the current minimum to preserve the lower-bound guarantee;
    // a step by the minimum frees a slot, which the new key then takes
    // with its remaining weight.
    while (counters_.size() >= capacity_) {
      std::uint64_t dec = w;
      for (const auto& [k, c] : counters_) dec = std::min(dec, c);
      decrement_all(dec);
      w -= dec;
      if (w == 0) return;
    }
    counters_.emplace(key, w);
  }

  /// Merge another summary (mergeable-summaries construction): add counts
  /// key-wise, then reduce back to θ slots by subtracting the (θ+1)-largest
  /// count from everything.
  void merge(const MisraGries& other) {
    n_ += other.n_;
    for (const auto& [k, c] : other.counters_) counters_[k] += c;
    shrink_to_capacity();
  }

  /// Merge from a flat (key,count) list, e.g. gathered across ranks.
  void merge_items(const std::vector<std::pair<K, std::uint64_t>>& items,
                   std::uint64_t other_n) {
    n_ += other_n;
    for (const auto& [k, c] : items) counters_[k] += c;
    shrink_to_capacity();
  }

  /// Estimated (lower-bound) count for `key`; 0 if not tracked.
  [[nodiscard]] std::uint64_t count(const K& key) const {
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
  }

  /// All tracked items with estimated count >= `min_count`.
  [[nodiscard]] std::vector<std::pair<K, std::uint64_t>> items(
      std::uint64_t min_count = 1) const {
    std::vector<std::pair<K, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [k, c] : counters_)
      if (c >= min_count) out.emplace_back(k, c);
    return out;
  }

  /// Total stream weight observed (n in the error bound n/θ).
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return n_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return counters_.size(); }

  /// The guarantee threshold: any item with true count >= this is tracked.
  [[nodiscard]] std::uint64_t guarantee_threshold() const noexcept {
    return n_ / (capacity_ + 1) + 1;
  }

 private:
  void decrement_all(std::uint64_t dec) {
    for (auto it = counters_.begin(); it != counters_.end();) {
      if (it->second <= dec) {
        it = counters_.erase(it);
      } else {
        it->second -= dec;
        ++it;
      }
    }
  }

  void shrink_to_capacity() {
    if (counters_.size() <= capacity_) return;
    // Find the (capacity+1)-largest count and subtract it from everyone.
    std::vector<std::uint64_t> counts;
    counts.reserve(counters_.size());
    for (const auto& [k, c] : counters_) counts.push_back(c);
    auto nth = counts.begin() + static_cast<std::ptrdiff_t>(capacity_);
    std::nth_element(counts.begin(), nth, counts.end(),
                     std::greater<std::uint64_t>());
    decrement_all(*nth);
  }

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  std::unordered_map<K, std::uint64_t, Hash> counters_;
};

}  // namespace hipmer::kcount
