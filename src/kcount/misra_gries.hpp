#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
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
///
/// Storage is one flat, linear-probed array of {key, count} slots (count 0
/// marks an empty slot), so an offer allocates nothing. The array is a
/// power of two that starts at <= 1024 slots and doubles whenever an insert
/// would leave it more than half full, up to the first power of two
/// >= 2θ+2 — room for the 2θ keys a merge holds before it shrinks. A
/// decrement touches every slot anyway, so it rebuilds the table compacted
/// rather than leaving tombstones. The tracked set, its counts and the
/// stream length depend only on the offers, never on the layout.
namespace hipmer::kcount {

template <typename K, typename Hash = std::hash<K>>
class MisraGries {
 public:
  /// `capacity` is θ, the number of counter slots (paper default: 32,000).
  explicit MisraGries(std::size_t capacity)
      : capacity_(capacity), max_slots_(std::bit_ceil(2 * capacity + 2)) {
    reset_slots(std::min(kInitialSlots, max_slots_));
  }

  /// Observe one occurrence of `key` (weight `w`).
  void offer(const K& key, std::uint64_t w = 1) { offer(key, Hash{}(key), w); }

  /// As above, with `hash == Hash{}(key)` already computed by the caller.
  void offer(const K& key, std::uint64_t hash, std::uint64_t w) {
    assert(hash == Hash{}(key));
    n_ += w;
    if (w == 0) return;
    if (Slot& s = slots_[find(key, hash)]; s.count != 0) {
      s.count += w;
      return;
    }
    // Decrement-all steps. With weighted offers, decrement by the smaller
    // of w and the current minimum to preserve the lower-bound guarantee;
    // a step by the minimum frees a slot, which the new key then takes
    // with its remaining weight. No count is below 1, so the scan for the
    // minimum stops there (a unit offer skips it).
    while (size_ >= capacity_) {
      std::uint64_t dec = w;
      for (std::size_t i = 0; i < slots_.size() && dec > 1; ++i)
        if (slots_[i].count != 0) dec = std::min(dec, slots_[i].count);
      decrement_all(dec);
      w -= dec;
      if (w == 0) return;
    }
    insert(key, hash, w);
  }

  /// Merge another summary (mergeable-summaries construction): add counts
  /// key-wise, then reduce back to θ slots by subtracting the (θ+1)-largest
  /// count from everything.
  void merge(const MisraGries& other) {
    n_ += other.n_;
    for (const Slot& o : other.slots_) {
      if (o.count == 0) continue;
      const std::uint64_t hash = Hash{}(o.key);
      if (Slot& s = slots_[find(o.key, hash)]; s.count != 0)
        s.count += o.count;
      else
        insert(o.key, hash, o.count);
    }
    shrink_to_capacity();
  }

  /// Estimated (lower-bound) count for `key`; 0 if not tracked.
  [[nodiscard]] std::uint64_t count(const K& key) const {
    return slots_[find(key, Hash{}(key))].count;
  }

  /// All tracked items with estimated count >= `min_count`.
  [[nodiscard]] std::vector<std::pair<K, std::uint64_t>> items(
      std::uint64_t min_count = 1) const {
    std::vector<std::pair<K, std::uint64_t>> out;
    out.reserve(size_);
    for (const Slot& s : slots_)
      if (s.count != 0 && s.count >= min_count) out.emplace_back(s.key, s.count);
    return out;
  }

  /// Total stream weight observed (n in the error bound n/θ).
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return n_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The guarantee threshold: any item with true count >= this is tracked.
  [[nodiscard]] std::uint64_t guarantee_threshold() const noexcept {
    return n_ / (capacity_ + 1) + 1;
  }

 private:
  struct Slot {
    K key{};
    std::uint64_t count = 0;
  };

  static constexpr std::size_t kInitialSlots = 1024;

  /// Replace the table with `n` empty slots (n a power of two >= 2).
  void reset_slots(std::size_t n) {
    slots_.assign(n, Slot{});
    shift_ = 64 - std::countr_zero(n);
    size_ = 0;
  }

  /// The slot holding `key`, or the empty slot where it would go. The
  /// table always keeps an empty slot, so the probe terminates.
  [[nodiscard]] std::size_t find(const K& key, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    // Multiply-shift takes the top bits, so a weak low-bit hash (identity
    // std::hash, or keys pre-sharded by hash % ranks) still spreads.
    auto i = static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  /// Place an absent key, doubling the table first if it would pass half
  /// full (never beyond max_slots_).
  void insert(const K& key, std::uint64_t hash, std::uint64_t count) {
    if (2 * (size_ + 1) > slots_.size() && slots_.size() < max_slots_) {
      std::vector<Slot> old = std::move(slots_);
      reset_slots(old.size() * 2);
      for (const Slot& s : old)
        if (s.count != 0) place(s.key, Hash{}(s.key), s.count);
    }
    place(key, hash, count);
  }

  void place(const K& key, std::uint64_t hash, std::uint64_t count) {
    Slot& s = slots_[find(key, hash)];
    s.key = key;
    s.count = count;
    ++size_;
  }

  /// Subtract `dec` from every count and drop those that reach zero: one
  /// sweep collects the survivors and empties every slot, then the
  /// survivors are reinserted, so no tombstones are left behind.
  void decrement_all(std::uint64_t dec) {
    std::vector<Slot> survivors;
    for (Slot& s : slots_) {
      if (s.count == 0) continue;
      if (s.count > dec) survivors.push_back(Slot{s.key, s.count - dec});
      s.count = 0;
    }
    size_ = 0;
    for (const Slot& s : survivors) place(s.key, Hash{}(s.key), s.count);
  }

  void shrink_to_capacity() {
    if (size_ <= capacity_) return;
    // Find the (capacity+1)-largest count and subtract it from everyone.
    std::vector<std::uint64_t> counts;
    counts.reserve(size_);
    for (const Slot& s : slots_)
      if (s.count != 0) counts.push_back(s.count);
    auto nth = counts.begin() + static_cast<std::ptrdiff_t>(capacity_);
    std::nth_element(counts.begin(), nth, counts.end(),
                     std::greater<std::uint64_t>());
    decrement_all(*nth);
  }

  std::size_t capacity_;
  std::size_t max_slots_;
  std::uint64_t n_ = 0;
  std::size_t size_ = 0;
  int shift_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace hipmer::kcount
