#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// Per-rank direct-mapped software cache for remote reads.
///
/// A power-of-two array of slots indexed by a hash the caller supplies:
/// one key compare per lookup, and an insert overwrites whatever held the
/// slot, so nothing is allocated per entry. ContigStore keeps one per rank
/// for whole contig records (slot = contig id); DistHashMap fronts its
/// batched lookups with one when a read-only phase opts in.
///
/// The cache is strictly a read-phase structure: the owner tags it with a
/// write version and it drops everything when the version moves (see
/// `check_version`), so a value can never be served across a write-phase
/// boundary. Single-threaded by construction — each rank owns one cache and
/// nobody else touches it — so no locking.
namespace hipmer::pgas {

template <typename K, typename V>
class ReadCache {
 public:
  /// `slots` is rounded up to a power of two (at least one).
  explicit ReadCache(std::size_t slots)
      : slots_(std::bit_ceil(std::max<std::size_t>(slots, 1))) {}

  /// Drop everything if the owning table has been written since the cache
  /// was last coherent. Call before every lookup/insert batch.
  void check_version(std::uint64_t table_version) {
    if (table_version == seen_version_) return;
    if (size_ > 0) slots_.assign(slots_.size(), Slot{});
    size_ = 0;
    seen_version_ = table_version;
  }

  /// nullptr on miss; on hit the pointer stays valid until the next
  /// insert into the same slot. Bumps the hit/miss counters.
  [[nodiscard]] const V* lookup(const K& key, std::uint64_t slot_hash) {
    const Slot& slot = slots_[slot_hash & (slots_.size() - 1)];
    if (slot.used && slot.key == key) {
      ++hits_;
      return &slot.value;
    }
    ++misses_;
    return nullptr;
  }

  /// Store a value fetched from the owner in its slot, evicting the
  /// previous occupant. Only positive results are cached — a cached
  /// "absent" could not be invalidated by the insert that fills it without
  /// a version bump on every store, which read-only phases never issue.
  const V& insert(const K& key, std::uint64_t slot_hash, V value) {
    Slot& slot = slots_[slot_hash & (slots_.size() - 1)];
    if (!slot.used) {
      slot.used = true;
      ++size_;
    }
    slot.key = key;
    slot.value = std::move(value);
    return slot.value;
  }

  /// Occupied slots.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Table version this cache was last coherent with (0 = never synced).
  /// The phase checker compares it against the live table version *before*
  /// check_version self-invalidates.
  [[nodiscard]] std::uint64_t seen_version() const noexcept {
    return seen_version_;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Slot {
    bool used = false;
    K key{};
    V value{};
  };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t seen_version_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hipmer::pgas
