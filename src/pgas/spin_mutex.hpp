#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

/// One-byte spinlock over a plain byte (0 = unlocked).
///
/// Distributed hash-table shards carry one lock per bucket; a std::mutex
/// (40 bytes on glibc) per bucket would dwarf the entries themselves
/// (Per.16: use compact data structures). The lock is a byte in the
/// bucket header, taken through std::atomic_ref, so a zero-filled
/// allocation is already a table of unlocked buckets and no constructor
/// has to run. Critical sections here are a few dozen nanoseconds (probe a
/// bucket, merge a value), so spinning is appropriate.
namespace hipmer::pgas {

class SpinGuard {
 public:
  explicit SpinGuard(std::uint8_t& word) noexcept : flag_(word) {
    // Test-and-test-and-set: poll with plain loads so waiters share the
    // line instead of bouncing it; after a few polls yield so an
    // oversubscribed host (many logical ranks per hardware thread) can
    // schedule the holder instead of burning the whole quantum spinning.
    int attempts = 0;
    while (flag_.exchange(1, std::memory_order_acquire) != 0) {
      while (flag_.load(std::memory_order_relaxed) != 0)
        if (++attempts > 16) std::this_thread::yield();
    }
  }
  ~SpinGuard() { flag_.store(0, std::memory_order_release); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  std::atomic_ref<std::uint8_t> flag_;
};

}  // namespace hipmer::pgas
