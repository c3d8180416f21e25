#pragma once

/// Runtime phase-discipline checker for the PGAS layer (HIPMER_CHECKED).
///
/// HipMer's distributed tables are correct only under a bulk-synchronous
/// contract (§3/§4.1 of the paper): aggregating stores are flushed and a
/// barrier crossed before one-sided lookups begin; a read cache never
/// survives a write phase; every rank enters the same collectives in the
/// same order. That contract normally lives in comments. Under the
/// HIPMER_CHECKED build it becomes an executable state machine:
///
///   - every rank has an *epoch* = number of barriers it has crossed;
///   - every registered table records, per rank, the epoch and call site of
///     its last fine/batched store and lookup;
///   - each primitive validates the phase rules before recording itself.
///
/// Rules (each names the diagnostic a violation aborts with):
///   lookup-during-WRITE       lookup while this rank still has buffered
///                             stores, or while another rank stored to the
///                             table in the same epoch (no barrier between)
///   store-during-READ         store while another rank performed lookups in
///                             the same epoch (the table was not "reopened"
///                             by a barrier)
///   undrained-rows-at-barrier barrier entered while this rank has pending
///                             aggregation rows (stores or lookup requests)
///   stale-cache-across-write  a read cache consulted after the table
///                             version moved under it (cache outlived a
///                             write phase)
///   mismatched-collective     ranks entered different collectives at the
///                             same physical barrier instance
///   mixed-access              fine-grained and batched ops of the same
///                             direction on one table in one epoch
///
/// Phases where mixed fine-RMW + batched-read traffic is the *protocol*
/// (the traversal's speculative claim/abort loop) opt out explicitly with a
/// `RelaxedPhase` scope — the UPC "relaxed" access mode, made visible and
/// grep-able at the call site.
///
/// Everything in this header exists only under HIPMER_CHECKED; the
/// unchecked build compiles none of it (see checked.hpp).

#if defined(HIPMER_CHECKED)

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "pgas/checked.hpp"

namespace hipmer::pgas {

class ThreadTeam;
class CheckedTable;

// ---- rule names (stable strings; tests grep for these) ----
inline constexpr const char* kRuleLookupDuringWrite = "lookup-during-WRITE";
inline constexpr const char* kRuleStoreDuringRead = "store-during-READ";
inline constexpr const char* kRuleUndrained = "undrained-rows-at-barrier";
inline constexpr const char* kRuleStaleCache = "stale-cache-across-write";
inline constexpr const char* kRuleMismatchedCollective = "mismatched-collective";
inline constexpr const char* kRuleMixedAccess = "mixed-access";

/// Plain-data call site (source_location is not assignable; this is).
struct SiteInfo {
  const char* file = "?";
  unsigned line = 0;
  const char* function = "?";
};

[[nodiscard]] inline SiteInfo to_site(const CallSite& s) {
  return SiteInfo{s.file_name(), s.line(), s.function_name()};
}

struct Violation {
  std::string rule;
  std::string table;
  int rank = -1;
  /// The offending call and the call it conflicts with.
  SiteInfo site;
  SiteInfo other_site;
  int other_rank = -1;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Thrown by the test violation handler (the default handler aborts).
class PhaseViolation : public std::runtime_error {
 public:
  explicit PhaseViolation(Violation v);
  [[nodiscard]] const Violation& violation() const noexcept { return v_; }

 private:
  Violation v_;
};

/// Process-global violation sink. The default prints the full diagnostic to
/// stderr and calls std::abort(). Tests install a handler that records and
/// throws PhaseViolation instead (ThreadTeam::run propagates it); returns
/// the previous handler so fixtures can restore it.
using ViolationHandler = std::function<void(const Violation&)>;
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Per-team checker: owns rank epochs, the barrier-matching records and the
/// registry of checked tables. One instance lives inside ThreadTeam.
class PhaseChecker {
 public:
  enum Kind : int {
    kBarrier = 0,
    kAllreduce,
    kAllgather,
    kAllgatherv,
    kBroadcast,
    kExscan,
    kAlltoallv,
  };
  static const char* kind_name(int kind);

  PhaseChecker(ThreadTeam& team, int nranks);

  PhaseChecker(const PhaseChecker&) = delete;
  PhaseChecker& operator=(const PhaseChecker&) = delete;

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] std::uint64_t epoch(int rank) const noexcept {
    return slots_[static_cast<std::size_t>(rank)]->epoch.load(
        std::memory_order_relaxed);
  }

  // ---- table registry ----
  void register_table(CheckedTable* table);
  void unregister_table(CheckedTable* table);

  // ---- barrier protocol (called from Rank::barrier, in this order) ----
  /// Undrained-rows check over every registered table, then publish this
  /// rank's (kind, site) record for the matching step.
  void pre_barrier(int rank, int kind, SiteInfo site);
  /// All-pairs comparison of the published records; runs between the two
  /// arrival phases so every record is fresh.
  void compare_barrier_records(int rank);
  void advance_epoch(int rank) noexcept {
    slots_[static_cast<std::size_t>(rank)]->epoch.fetch_add(
        1, std::memory_order_relaxed);
  }

  // ---- multi-process record exchange (SocketFabric barrier protocol) ----
  /// This rank's record as published by pre_barrier, for shipping to peers
  /// over the fabric.
  [[nodiscard]] int record_kind(int rank) const noexcept {
    return slots_[static_cast<std::size_t>(rank)]->record_kind;
  }
  [[nodiscard]] SiteInfo record_site(int rank) const noexcept {
    return slots_[static_cast<std::size_t>(rank)]->record_site;
  }
  /// Install a remote rank's record into its local mirror slot so the
  /// compare_barrier_records all-pairs check runs unmodified across
  /// processes. Strings are interned (SiteInfo borrows const char*);
  /// idempotent within a barrier round.
  void install_record(int rank, int kind, const std::string& file,
                      unsigned line, const std::string& func);

  // ---- collective scope (outermost collective tags its barriers) ----
  void push_collective(int rank, int kind, SiteInfo site) noexcept;
  void pop_collective(int rank) noexcept;
  [[nodiscard]] int scope_kind(int rank) const noexcept;
  [[nodiscard]] bool in_collective(int rank) const noexcept;
  [[nodiscard]] SiteInfo scope_site(int rank) const noexcept;

  /// True once a violation fired or rank-fault injection killed the team:
  /// every subsequent check is skipped so the unwind (arrive_and_drop,
  /// stale slots, tables abandoned mid-WRITE by survivors) is not reported
  /// as a second, bogus violation.
  [[nodiscard]] bool suppressed() const;

  /// Deliver `v` to the installed handler (sets the suppression flag first).
  void report(const Violation& v);

  /// Serial context, between jobs on a long-lived team: zero every rank's
  /// epoch and scope/record slots and un-trip the suppression flag so the
  /// next job starts from the same state a fresh team would. The table
  /// registry is cleared defensively — all checked structures are per-job
  /// and must already be destroyed.
  void reset_for_job();

 private:
  struct alignas(64) RankSlot {
    std::atomic<std::uint64_t> epoch{0};
    // Collective scope — touched only by the owning rank's thread.
    int scope_kind = kBarrier;
    int scope_depth = 0;
    SiteInfo scope_site{};
    // Published record for the current barrier instance; written by the
    // owner before arrival, read by peers between the two phases.
    int record_kind = kBarrier;
    SiteInfo record_site{};
  };

  ThreadTeam* team_;
  int nranks_;
  // unique_ptr: atomics are not movable and each slot gets its own line.
  std::vector<std::unique_ptr<RankSlot>> slots_;
  std::mutex registry_mu_;
  std::vector<CheckedTable*> tables_;
  std::atomic<bool> tripped_{false};
  /// Interned copies of remote call-site strings (stable addresses for the
  /// borrowed const char* in SiteInfo).
  std::mutex intern_mu_;
  std::set<std::string> interned_;
};

/// RAII tag for a barrier-bracketed collective: the outermost scope names
/// the kind recorded at each inner barrier so mismatches report "allgather
/// vs barrier" instead of two anonymous barriers.
class CollectiveScope {
 public:
  CollectiveScope(PhaseChecker& checker, int rank, int kind, SiteInfo site)
      : checker_(&checker), rank_(rank) {
    checker_->push_collective(rank_, kind, site);
  }
  ~CollectiveScope() { checker_->pop_collective(rank_); }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  PhaseChecker* checker_;
  int rank_;
};

/// Per-table phase state machine. A distributed structure (DistHashMap,
/// ContigStore) owns one and reports every primitive through it.
class CheckedTable {
 public:
  /// How the pending-rows counts are obtained at barrier time.
  using PendingFn = std::function<std::size_t(int rank)>;

  enum class Path { kFine, kBatched, kLocal };

  CheckedTable(PhaseChecker& checker, std::string name,
               PendingFn pending_stores, PendingFn pending_lookups);
  ~CheckedTable();

  CheckedTable(const CheckedTable&) = delete;
  CheckedTable& operator=(const CheckedTable&) = delete;

  void set_name(std::string name);
  [[nodiscard]] std::string name() const;

  /// Validate + record a store (update / rmw / buffered enqueue /
  /// local erase). kLocal stores skip the mixed-access rule (owner-side
  /// compaction is not a communication path) but still conflict with
  /// same-epoch lookups from other ranks.
  void on_store(int rank, Path path, SiteInfo site);
  /// Validate + record a lookup (find / buffered request / cache hit).
  void on_lookup(int rank, Path path, SiteInfo site);
  /// Contract check for the software read cache: called with the cache's
  /// last-coherent version and the table's current version *before* the
  /// cache self-invalidates, so surviving a write phase is caught even
  /// though the stale data would have been dropped.
  void on_cache_consult(int rank, std::uint64_t cache_seen_version,
                        std::uint64_t table_version, std::size_t cache_size,
                        SiteInfo site);

  /// Relaxed scope (see RelaxedPhase): per-rank, re-entrant.
  void relaxed_begin(int rank);
  void relaxed_end(int rank);

  /// Barrier-time check: this rank must have no buffered rows.
  void check_undrained_at_barrier(int rank, SiteInfo barrier_site);

 private:
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  struct Event {
    std::uint64_t epoch = kNoEpoch;
    SiteInfo site{};
    bool relaxed = false;
  };

  struct RankState {
    Event fine_store;
    Event batched_store;
    Event fine_lookup;
    Event batched_lookup;
    // Last buffered-enqueue sites, for the undrained diagnostic.
    SiteInfo store_enqueue_site{};
    SiteInfo lookup_enqueue_site{};
    int relaxed_depth = 0;
  };

  void conflict(const char* rule, int rank, SiteInfo site, int other_rank,
                const Event& other, const std::string& detail);

  PhaseChecker* checker_;
  mutable std::mutex mu_;
  std::string name_;
  PendingFn pending_stores_;
  PendingFn pending_lookups_;
  std::vector<RankState> states_;
  // Most recent store anywhere (any epoch): the "other side" of a
  // stale-cache diagnostic, where the write that moved the version is the
  // interesting call site.
  Event last_store_;
  int last_store_rank_ = -1;
};

}  // namespace hipmer::pgas

#endif  // HIPMER_CHECKED
