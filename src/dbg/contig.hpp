#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/types.hpp"

/// Contig record produced by de Bruijn graph traversal.
namespace hipmer::dbg {

/// Why a contig stopped growing at one end, and (for fork-adjacent ends)
/// the junction k-mer. The scaffolder's bubble identification (§4.2) keys
/// on these: the two haplotype paths of a diploid bubble record the same
/// junction k-mers at their ends.
struct TermInfo {
  /// 'F' — this end's own k-mer has multiple high-quality extensions;
  /// 'N' — the neighbor k-mer exists but does not extend back uniquely
  ///       (we stopped in front of a fork);
  /// 'X' — no high-quality extension / neighbor absent from the table;
  /// 'O' — the walk re-entered its own chain (a circular chain, or a
  ///       reverse-complement hairpin).
  char code = 'X';
  /// Canonical junction k-mer for 'F' (the end k-mer itself) and 'N' (the
  /// fork neighbor). Meaningless otherwise.
  seq::KmerT junction;
  bool has_junction = false;
};

struct Contig {
  /// Globally unique id, assigned collectively after traversal.
  std::uint64_t id = 0;
  /// Sequence in canonical orientation (min of seq, revcomp(seq));
  /// termination infos are swapped accordingly so `left` always describes
  /// the stored orientation's left end.
  std::string seq;
  /// Mean k-mer depth along the contig (Σ k-mer counts / #k-mers) — the
  /// quantity §4.1 computes for scaffolding.
  double avg_depth = 0.0;
  TermInfo left;
  TermInfo right;

  [[nodiscard]] std::size_t size() const noexcept { return seq.size(); }
};

}  // namespace hipmer::dbg
