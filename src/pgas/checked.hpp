#pragma once

/// Compile-time plumbing for the phase-discipline checker (HIPMER_CHECKED).
///
/// The checker needs the *call site* of every table operation so a violation
/// can report both sides of a conflict ("lookup at align/mer_aligner.cpp:142
/// while rank 3 still had stores buffered from kcount/kmer_analysis.cpp:88").
/// When HIPMER_CHECKED is on, every instrumented entry point grows a trailing
/// defaulted `std::source_location` parameter; when it is off the parameter
/// — and every checker hook — compiles away entirely, so the unchecked build
/// is bit-for-bit the uninstrumented code path.
///
/// Usage in an instrumented signature:
///
///   void update(Rank& rank, const K& key, const V& delta,
///               Policy policy = Policy::kInsert HIPMER_SITE_DEFAULT);
///
/// and to forward the site to an inner call:  inner(args HIPMER_SITE_FWD);

#if defined(HIPMER_CHECKED)

#include <source_location>

namespace hipmer::pgas {
using CallSite = std::source_location;
}  // namespace hipmer::pgas

// Trailing defaulted parameter capturing the caller's location.
#define HIPMER_SITE_DEFAULT \
  , ::hipmer::pgas::CallSite hipmer_site = ::hipmer::pgas::CallSite::current()
// Matching parameter for out-of-line definitions / non-defaulted positions.
#define HIPMER_SITE_PARAM , ::hipmer::pgas::CallSite hipmer_site
// Forward the captured site to an inner instrumented call.
#define HIPMER_SITE_FWD , hipmer_site
// Variants for functions where the site is the only parameter.
#define HIPMER_SITE_DEFAULT0 \
  ::hipmer::pgas::CallSite hipmer_site = ::hipmer::pgas::CallSite::current()
#define HIPMER_SITE_PARAM0 ::hipmer::pgas::CallSite hipmer_site

#else

#define HIPMER_SITE_DEFAULT
#define HIPMER_SITE_PARAM
#define HIPMER_SITE_FWD
#define HIPMER_SITE_DEFAULT0
#define HIPMER_SITE_PARAM0

#endif  // HIPMER_CHECKED

namespace hipmer::pgas {

/// RAII opt-out from the phase rules for one table on one rank: UPC's
/// "relaxed" access mode made explicit. A protocol that is mixed-phase by
/// design — fine-grained updates interleaved with batched lookups inside
/// one epoch, each entry guarded by its own state — wraps that block in a
/// RelaxedPhase to document it at the call site and silence the checker
/// for exactly that scope; everything outside it stays strict. No `src/`
/// phase uses it; it stays for the deliberate-violation tests that pin the
/// opt-out. Compiles to nothing when HIPMER_CHECKED is off.
#if defined(HIPMER_CHECKED)
template <typename Table>
class RelaxedPhase {
 public:
  template <typename RankT>
  RelaxedPhase(RankT& rank, Table& table) : table_(&table), rank_(rank.id()) {
    table_->checked_relaxed_begin(rank_);
  }
  ~RelaxedPhase() { table_->checked_relaxed_end(rank_); }
  RelaxedPhase(const RelaxedPhase&) = delete;
  RelaxedPhase& operator=(const RelaxedPhase&) = delete;

 private:
  Table* table_;
  int rank_;
};
#else
template <typename Table>
class RelaxedPhase {
 public:
  template <typename RankT>
  RelaxedPhase(RankT&, Table&) {}
  RelaxedPhase(const RelaxedPhase&) = delete;
  RelaxedPhase& operator=(const RelaxedPhase&) = delete;
};
#endif

}  // namespace hipmer::pgas
