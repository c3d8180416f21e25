#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/artifacts.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/snapshot_store.hpp"
#include "pgas/thread_team.hpp"

/// Checkpoint/restart driver used by pipeline::Pipeline.
///
/// Write path: after each stage the pipeline opens an entry
/// (`begin_entry`), every rank writes its own shard concurrently
/// (`write_shard`), and rank 0's serial context commits (`commit`) — which
/// appends to the manifest, atomically rewrites `manifest.bin`, and prunes
/// old entries per `keep_last`. A crash anywhere before the manifest rename
/// leaves the previous manifest in force.
///
/// Read path: `load` walks resume targets from furthest pipeline progress
/// down, checks each candidate entry's config fingerprint, reads and
/// CRC-verifies every shard of the target plus its dependency closure
/// (earlier artifacts the pipeline still needs from that point on), decodes,
/// and re-shards to the current team size. Any validation or decode failure
/// blacklists that entry and retries — falling back to the previous valid
/// stage, and ultimately to full recompute (an empty ResumeState).
namespace hipmer::ckpt {

/// Stage name announced to the fault injector for each snapshot read pass,
/// so tests can kill a rank mid-restore too.
inline constexpr const char* kRestoreFaultStage = "restore";

struct CheckpointConfig {
  /// Run directory; empty disables checkpointing entirely.
  std::string dir;
  /// Keep only the newest N entries (plus the newest entry's dependency
  /// closure); 0 keeps everything.
  int keep_last = 0;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Everything the pipeline needs to continue from a resume point. Shard
/// dimensions are already the *current* team's ([rank][...]).
struct ResumeState {
  /// Progress encoding (manifest.hpp); -1 = nothing usable, run from scratch.
  int progress = -1;
  AuxStats aux;

  std::vector<std::vector<std::vector<seq::Read>>> reads;  // [rank][lib]
  std::vector<std::vector<kcount::UfxRecord>> ufx;         // [rank]
  std::vector<std::vector<dbg::Contig>> contigs;           // [rank]

  /// Round whose alignments are loaded (-1 = none).
  int aligned_round = -1;
  std::vector<std::vector<align::ReadAlignment>> alignments;  // [rank]

  /// Round whose scaffold records are loaded (-1 = none).
  int scaffold_round = -1;
  std::vector<io::FastaRecord> scaffolds;
  scaffold::ScaffoldStats closure_stats{};
  std::vector<scaffold::InsertSizeEstimate> inserts;

  [[nodiscard]] bool empty() const noexcept { return progress < 0; }
};

class Checkpointer {
 public:
  /// Loads any existing manifest from `config.dir` at construction.
  /// `fingerprint` is the pipeline's config fingerprint; entries written
  /// under a different fingerprint are invisible to `load`.
  Checkpointer(CheckpointConfig config, std::uint64_t fingerprint);

  [[nodiscard]] const CheckpointConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Manifest& manifest() const noexcept { return manifest_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Serial: open a new uncommitted entry (creates its shard directory).
  [[nodiscard]] StageEntry begin_entry(const std::string& stage,
                                       int shard_count, const AuxStats& aux);

  /// Write one shard; callable concurrently for distinct shards (each rank
  /// writes its own). Records the shard's size and CRC in the entry.
  bool write_shard(StageEntry& entry, int shard,
                   const std::vector<std::byte>& payload);

  /// Serial: commit the entry — append to the manifest, atomic-rename the
  /// manifest file, prune. False (and no manifest change) on I/O failure.
  bool commit(StageEntry entry);

  /// Multi-process worker side of a commit: append the entry to this
  /// process's in-memory manifest only (no disk write, no prune), keeping
  /// seq numbering aligned with the primary, which owns manifest.bin.
  void commit_local(StageEntry entry);

  /// Find and load the best resume point at or below `max_progress`
  /// (pass progress_scaffolds(rounds - 1) for no cap). Reads shards in
  /// parallel on `team`; returns an empty state when nothing usable
  /// survives validation.
  [[nodiscard]] ResumeState load(pgas::ThreadTeam& team, int rounds,
                                 int max_progress);

 private:
  using EntryKey = std::pair<std::string, std::uint64_t>;  // (stage, seq)

  /// Latest committed entry for `stage` with a matching fingerprint that
  /// has not been blacklisted by a failed load.
  [[nodiscard]] const StageEntry* usable(const std::string& stage) const;

  /// Read + CRC-verify all shards of one entry, dealt round robin over the
  /// team's ranks. nullopt if any shard fails (caller blacklists).
  [[nodiscard]] std::optional<std::vector<std::vector<std::byte>>> read_entry(
      pgas::ThreadTeam& team, const StageEntry& entry) const;

  void prune();

  CheckpointConfig config_;
  std::uint64_t fingerprint_;
  SnapshotStore store_;
  Manifest manifest_;
  std::set<EntryKey> blacklist_;
};

}  // namespace hipmer::ckpt
