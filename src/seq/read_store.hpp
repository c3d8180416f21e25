#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "seq/kmer_scanner.hpp"
#include "seq/packed_reads.hpp"
#include "seq/read.hpp"

/// The one carrier for a rank's share of the reads: every stage, reader,
/// checkpoint codec and pipeline entry point takes a ReadStore. It holds
/// either the classic `std::vector<seq::Read>` (three heap strings per
/// record) or a `PackedReads` arena, chosen at construction
/// (`--packed-reads`). Both representations expose identical element
/// accessors, so every stage is written once against ReadStore and
/// produces byte-identical output either way; the representation is
/// private, except that the "RDP1" checkpoint writer serializes a packed
/// store's arena words directly.
namespace hipmer::seq {

class ReadStore {
 public:
  ReadStore() = default;
  explicit ReadStore(bool packed) : packed_(packed) {}

  [[nodiscard]] bool packed() const noexcept { return packed_; }

  void reserve(std::size_t reads, std::size_t bases) {
    if (packed_)
      arena_.reserve(reads, bases);
    else
      plain_.reserve(reads);
  }

  void append(std::string_view name, std::string_view seq,
              std::string_view quals) {
    if (packed_)
      arena_.append(name, seq, quals);
    else
      plain_.push_back(
          Read{std::string(name), std::string(seq), std::string(quals)});
  }

  void append(const Read& r) {
    if (packed_)
      arena_.append(r);
    else
      plain_.push_back(r);
  }

  void append(Read&& r) {
    if (packed_)
      arena_.append(r);
    else
      plain_.push_back(std::move(r));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return packed_ ? arena_.size() : plain_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::uint32_t length(std::size_t i) const noexcept {
    return packed_ ? arena_.length(i)
                   : static_cast<std::uint32_t>(plain_[i].seq.size());
  }

  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    return packed_ ? arena_.name(i) : std::string_view(plain_[i].name);
  }

  /// Sequence characters; decodes into `scratch` on the packed path, a
  /// zero-copy view on the plain path.
  [[nodiscard]] std::string_view seq(std::size_t i,
                                     std::string& scratch) const {
    if (!packed_) return plain_[i].seq;
    arena_.decode_seq(i, scratch);
    return scratch;
  }

  [[nodiscard]] std::string_view quals(std::size_t i,
                                       std::string& scratch) const {
    if (!packed_) return plain_[i].quals;
    arena_.decode_quals(i, scratch);
    return scratch;
  }

  /// Base-code at (read, position), as base_to_code would report it.
  [[nodiscard]] std::uint8_t code(std::size_t i,
                                  std::uint32_t pos) const noexcept {
    return packed_ ? arena_.view(i).code(pos)
                   : base_to_code(plain_[i].seq[pos]);
  }

  /// Rolling canonical k-mer scanner over read i: straight off the packed
  /// words when packed, over the string otherwise. The store must outlive
  /// the scanner.
  template <int MAX_K>
  [[nodiscard]] KmerScanner<MAX_K> scanner(std::size_t i, int k) const {
    if (packed_) return KmerScanner<MAX_K>(arena_.view(i), k);
    return KmerScanner<MAX_K>(std::string_view(plain_[i].seq), k);
  }

  /// The packed arena; only meaningful when packed() (the RDP1 writer).
  [[nodiscard]] const PackedReads& arena() const noexcept { return arena_; }

  /// Materialize to owned Read records.
  [[nodiscard]] std::vector<Read> to_reads() const {
    if (!packed_) return plain_;
    std::vector<Read> out(arena_.size());
    for (std::size_t i = 0; i < arena_.size(); ++i) {
      out[i].name = std::string(arena_.name(i));
      arena_.decode_seq(i, out[i].seq);
      arena_.decode_quals(i, out[i].quals);
    }
    return out;
  }

  /// Compact the packed arena once ingest is done (see
  /// PackedReads::shrink_to_fit). Deliberately a no-op on the plain path:
  /// there the footprint lives in the per-record heap strings, whose
  /// capacities travel unchanged through a vector reallocation, so a
  /// shrink pass would move every record to reclaim only the outer
  /// vector's slack — the seed representation is kept as-built and is what
  /// bench/reads_memory baselines against.
  void shrink_to_fit() {
    if (packed_) arena_.shrink_to_fit();
  }

  void clear() {
    plain_.clear();
    arena_.clear();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    if (packed_) return arena_.memory_bytes();
    std::size_t bytes = sizeof(*this) + plain_.capacity() * sizeof(Read);
    const std::size_t sso = std::string().capacity();
    for (const auto& r : plain_)
      for (const std::string* s : {&r.name, &r.seq, &r.quals})
        if (s->capacity() > sso) bytes += s->capacity() + 1;
    return bytes;
  }

 private:
  bool packed_ = false;
  std::vector<Read> plain_;
  PackedReads arena_;
};

/// Non-owning handle on one ReadStore, for the stages that take several
/// read sets at once (one per library).
using ReadSetView = std::reference_wrapper<const ReadStore>;

}  // namespace hipmer::seq
