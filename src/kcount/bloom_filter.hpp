#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "util/hash.hpp"

/// Bloom filter for singleton k-mer elimination (§3.1).
///
/// K-mer analysis inserts a k-mer into the main hash table only on its
/// *second* sighting: the first sighting merely sets bits here. Because the
/// overwhelming majority of distinct k-mers in error-containing reads occur
/// exactly once (95% for human per §5.4) and are erroneous, this keeps them
/// out of the main table entirely — the memory reduction the paper puts at
/// up to 85%.
///
/// Blocked layout: every probe of a key lands in one 64-byte block (one
/// cache line), chosen by a multiply-shift of the key's hash; the probe
/// bits inside the block come from a second, independent mix. A key costs
/// one cache miss instead of one per probe, for a slightly higher false
/// positive rate at the same bits/key (~2.5% at 8 bits/key, 4 probes).
///
/// Single-writer contract: each rank owns its filter and is the only
/// thread that ever tests or sets it (the counter routes every k-mer to its
/// owner rank first). Bits are therefore set with a relaxed load and store,
/// not a locked read-modify-write; two concurrent writers could lose each
/// other's bits.
namespace hipmer::kcount {

class BloomFilter {
 public:
  /// Size for `expected_keys` with roughly `bits_per_key` bits each, in
  /// whole blocks. At most 7 probes fit in one 64-bit mix (9 bits each).
  explicit BloomFilter(std::size_t expected_keys, int bits_per_key = 8,
                       int num_probes = 4)
      : num_probes_(num_probes) {
    assert(num_probes >= 1 && num_probes <= 7);
    std::size_t bits = expected_keys * static_cast<std::size_t>(bits_per_key);
    if (bits < 1024) bits = 1024;
    num_blocks_ = (bits + kBlockBits - 1) / kBlockBits;
    blocks_ = std::make_unique<Block[]>(num_blocks_);
  }

  /// Insert and report whether the key was (apparently) already present.
  /// Owner rank only (see the single-writer contract above).
  bool test_and_set(std::uint64_t hash) noexcept {
    Block& block = block_of(hash);
    std::uint64_t bits = util::fmix64(hash);
    bool all_set = true;
    for (int p = 0; p < num_probes_; ++p, bits >>= 9) {
      std::atomic<std::uint64_t>& word = block.words[(bits >> 6) & 7];
      const std::uint64_t mask = std::uint64_t{1} << (bits & 63);
      const std::uint64_t prev = word.load(std::memory_order_relaxed);
      all_set &= (prev & mask) != 0;
      word.store(prev | mask, std::memory_order_relaxed);
    }
    return all_set;
  }

  [[nodiscard]] bool test(std::uint64_t hash) const noexcept {
    const Block& block = block_of(hash);
    std::uint64_t bits = util::fmix64(hash);
    for (int p = 0; p < num_probes_; ++p, bits >>= 9) {
      const std::uint64_t mask = std::uint64_t{1} << (bits & 63);
      if ((block.words[(bits >> 6) & 7].load(std::memory_order_relaxed) &
           mask) == 0)
        return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return num_blocks_ * sizeof(Block);
  }

 private:
  static constexpr std::size_t kBlockBits = 512;

  struct alignas(64) Block {
    std::atomic<std::uint64_t> words[kBlockBits / 64];
  };

  /// Multiply-shift: the high 64 bits of hash * num_blocks are uniform over
  /// [0, num_blocks) for a uniform hash, with no division.
  [[nodiscard]] Block& block_of(std::uint64_t hash) const noexcept {
    const auto idx = static_cast<std::size_t>(
        (static_cast<unsigned __int128>(hash) * num_blocks_) >> 64);
    return blocks_[idx];
  }

  int num_probes_;
  std::size_t num_blocks_;
  std::unique_ptr<Block[]> blocks_;
};

}  // namespace hipmer::kcount
