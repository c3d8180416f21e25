#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

/// Replicated heavy-hitter lookup for the k-mer passes (§3.1).
///
/// Both owner-side passes probe every k-mer instance against the global
/// heavy-hitter set, and the counting pass accumulates each heavy hitter in
/// a rank-local tally. This index answers the probe with the dense position
/// of the key in the heavy-hitter list, so the tallies live in a plain
/// vector indexed by that position.
///
/// Layout: one flat, linear-probed array of {key, index} slots (the
/// `MisraGries` slot style), built once and read-only afterwards. Slots are
/// chosen by a multiply-shift of the caller's key hash, so the hash an
/// instance already computed for its owner is reused. The array is a power
/// of two at most a quarter full: most probes are misses (heavy hitters are
/// a tiny share of distinct k-mers), and a sparse table ends them at the
/// first or second slot.
namespace hipmer::kcount {

template <typename K, typename Hash = std::hash<K>>
class HeavyHitterIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffU;

  HeavyHitterIndex() = default;

  /// Index `items[i].first` at position i (keys must be distinct).
  explicit HeavyHitterIndex(
      const std::vector<std::pair<K, std::uint64_t>>& items) {
    assert(items.size() < kAbsent);
    if (items.empty()) return;
    const std::size_t n = std::bit_ceil(4 * items.size());
    slots_.assign(n, Slot{});
    shift_ = 64 - std::countr_zero(n);
    for (std::size_t i = 0; i < items.size(); ++i) {
      Slot& s = slots_[find_slot(items[i].first, Hash{}(items[i].first))];
      assert(s.index == kAbsent);
      s.key = items[i].first;
      s.index = static_cast<std::uint32_t>(i);
    }
  }

  /// Position of `key` in the indexed list, or kAbsent. `hash` must equal
  /// `Hash{}(key)`.
  [[nodiscard]] std::uint32_t find(const K& key, std::uint64_t hash) const {
    assert(hash == Hash{}(key));
    if (slots_.empty()) return kAbsent;
    return slots_[find_slot(key, hash)].index;
  }

 private:
  struct Slot {
    K key{};
    std::uint32_t index = kAbsent;
  };

  /// The slot holding `key`, or the empty slot where the probe ends. The
  /// table is never full, so the probe terminates.
  [[nodiscard]] std::size_t find_slot(const K& key, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].index != kAbsent && slots_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }

  int shift_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace hipmer::kcount
