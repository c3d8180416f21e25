#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/mer_aligner.hpp"
#include "ckpt/checkpoint.hpp"
#include "dbg/contig_generator.hpp"
#include "dbg/oracle.hpp"
#include "io/fasta.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/chaos.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/thread_team.hpp"
#include "scaffold/bubbles.hpp"
#include "scaffold/gap_closing.hpp"
#include "scaffold/links.hpp"
#include "scaffold/ordering.hpp"
#include "scaffold/sequence_builder.hpp"
#include "seq/read.hpp"
#include "seq/read_store.hpp"
#include "util/stats.hpp"

/// End-to-end HipMer pipeline driver.
///
/// Orchestrates the full assembly of Figure 1 — k-mer analysis → contig
/// generation → scaffolding (alignment, insert sizes, splints/spans, links,
/// ordering/orientation, gap closing) — as a sequence of bulk-synchronous
/// phases over one ThreadTeam. Each phase is timed twice: measured wall
/// seconds on this host, and modeled seconds from the machine model applied
/// to the phase's per-rank communication counters (see
/// pgas/machine_model.hpp for why). The per-stage reports are exactly the
/// series Figures 7 and 8 of the paper plot.
namespace hipmer::pipeline {

/// Thrown from serial context (between timed phases) when
/// PipelineConfig::cancel_poll reports a cancellation request. No rank
/// unwinds and no barrier shrinks, so the team stays healthy — the next
/// job needs only the usual Pipeline::reset.
struct JobCancelled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct PipelineConfig {
  int k = 31;

  kcount::KmerAnalysisConfig kmer;
  dbg::ContigGenConfig contig;
  align::AlignerConfig aligner;
  scaffold::LinkConfig links;
  scaffold::OrderingConfig ordering;
  scaffold::GapClosingConfig gaps;
  scaffold::BubbleConfig bubbles;

  /// Merge diploid bubbles before scaffolding (§4.2). Harmless but
  /// pointless for haploid genomes.
  bool merge_bubbles = true;
  /// Scaffolding rounds (wheat runs four, §5.3); each round re-aligns the
  /// reads against the previous round's scaffolds.
  int scaffolding_rounds = 1;
  /// Optional oracle partition for communication-avoiding traversal (§3.2).
  const dbg::OraclePartition* oracle = nullptr;

  /// Baseline ("Ray-like") mode: rank 0 reads the FASTQ files alone and
  /// scatters the records, modelling an assembler without parallel I/O.
  bool serial_io = false;
  /// Baseline ("ABySS-like") mode: all reads are gathered to rank 0 before
  /// scaffolding, which then runs effectively single-rank ("the subsequent
  /// scaffolding steps must be performed on a single shared memory node").
  bool serial_scaffolding = false;

  /// Keep resident reads in the 2-bit PackedReads arena instead of
  /// std::vector<seq::Read> (--packed-reads). Perf/memory-only: every stage
  /// reads through seq::ReadStore, so output is byte-identical either way —
  /// which is why this knob stays out of the config fingerprint.
  bool packed_reads = false;
  /// After each round's alignment, redistribute read pairs so each rank
  /// owns the reads that align to its contigs (--shuffle-reads); gap
  /// closing's read projections then become mostly local. Perf-only and
  /// fingerprint-excluded for the same reason. Ignored under
  /// serial_scaffolding (rank 0 already holds everything).
  bool shuffle_reads = false;

  /// Machine model used for the modeled-seconds column of reports.
  pgas::MachineModel machine;

  /// Checkpoint/restart (src/ckpt): with a non-empty directory, `run`
  /// snapshots each stage's artifact and `resume` restarts from the newest
  /// valid snapshot. Excluded from the config fingerprint, like the machine
  /// model — neither affects assembly results.
  ckpt::CheckpointConfig checkpoint;

  /// Lossy-fabric chaos schedule (pgas/chaos.hpp): seeded fault injection
  /// on the batched comm paths. Default-constructed = perfect fabric.
  /// Excluded from the config fingerprint: the delivery protocol makes
  /// chaos invisible to assembly results — that invariance is what the
  /// chaos tests assert.
  pgas::ChaosPlan chaos;

  /// Delivery backend selection (--fabric): threads (default) or one OS
  /// process per rank over Unix-domain sockets. Excluded from the config
  /// fingerprint — the backends are byte-identical by construction, which
  /// the cross-fabric tests assert.
  pgas::FabricConfig fabric;

  /// Polled in serial context before every timed phase (the server's
  /// cancel path). Returning true aborts the job with JobCancelled from
  /// between stages, so the team stays healthy for the next job. A control
  /// knob, not a result knob — excluded from the fingerprint.
  std::function<bool()> cancel_poll;

  /// Which retry of the same job this run is (0 = first). Informational
  /// for resume logging; excluded from the fingerprint so a retry reuses
  /// the original attempt's snapshots.
  int attempt = 0;

  /// Propagate k into the sub-configs (call after setting `k`).
  void sync_k() {
    kmer.k = k;
    contig.k = k;
    aligner.seed_k = k;
    gaps.k = k;
    bubbles.k = k;
  }
};

/// One timed bulk-synchronous phase.
struct StageReport {
  std::string name;
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  pgas::CommStatsSnapshot comm;  // aggregate over ranks
  /// This process's RSS high-water mark when the phase ended, in MiB.
  double peak_rss_mb = 0.0;
};

struct PipelineResult {
  std::vector<io::FastaRecord> scaffolds;

  util::AssemblyStats contig_stats;
  util::AssemblyStats scaffold_stats;
  scaffold::ScaffoldStats closure_stats;
  std::vector<scaffold::InsertSizeEstimate> insert_estimates;

  std::uint64_t num_contigs = 0;
  std::uint64_t distinct_kmers = 0;
  double singleton_fraction = 0.0;
  std::size_t heavy_hitters = 0;

  /// Stages in execution order; repeated stage names (rounds) accumulate.
  std::vector<StageReport> stages;
  /// Per-pass wall seconds of the k-mer analysis this run performed (none
  /// when its UFX came from a checkpoint or the artifact cache).
  std::optional<kcount::KmerPassSeconds> kmer_passes;
  /// The count cutoff that k-mer analysis applied (0 when it did not run).
  std::uint32_t min_count = 0;

  [[nodiscard]] double wall_total() const;
  [[nodiscard]] double modeled_total() const;
  [[nodiscard]] double wall_for(const std::string& stage) const;
  [[nodiscard]] double modeled_for(const std::string& stage) const;
  /// Short human-readable per-stage summary, one line per stage
  /// ("  <stage>: wall <s>s peak_rss <MB>MB, modeled <s>s"); the k-mer
  /// analysis line carries its per-pass walls after the stage wall. Nothing
  /// between "wall" and ", modeled" holds a comma, so tools can strip the
  /// host-dependent figures as one field.
  [[nodiscard]] std::string format_stages() const;
};

/// Canonical stage names (shared with the benches).
inline constexpr const char* kStageIo = "io";
inline constexpr const char* kStageKmerAnalysis = "kmer_analysis";
inline constexpr const char* kStageContigGen = "contig_generation";
inline constexpr const char* kStageAligner = "merAligner";
inline constexpr const char* kStageScaffoldRest = "rest_scaffolding";
inline constexpr const char* kStageGapClosing = "gap_closing";
/// Locality shuffle between alignment and gap closing (--shuffle-reads).
inline constexpr const char* kStageShuffle = "shuffle_reads";
/// Checkpoint snapshot writes (one report per snapshotted artifact).
inline constexpr const char* kStageCheckpoint = "checkpoint";
/// Checkpoint reads on resume (also the fault-injection stage name for
/// killing a rank mid-restore; see ckpt::kRestoreFaultStage).
inline constexpr const char* kStageRestore = "restore";

class Pipeline {
 public:
  Pipeline(pgas::Topology topo, PipelineConfig config);

  /// Assemble from in-memory libraries: `library_reads[l]` holds library
  /// l's interleaved pairs; `libraries[l]` its metadata.
  [[nodiscard]] PipelineResult run(
      const std::vector<std::vector<seq::Read>>& library_reads,
      const std::vector<seq::ReadLibrary>& libraries);

  /// Assemble from FASTQ files named in `libraries` (parallel block
  /// reader; adds an "io" stage).
  [[nodiscard]] PipelineResult run_from_fastq(
      const std::vector<seq::ReadLibrary>& libraries);

  /// Restart from the newest valid checkpoint under
  /// `config().checkpoint.dir`, re-sharding snapshots to this team's size,
  /// then continue (and keep checkpointing). Falls back to a full `run`
  /// with the given in-memory reads when no snapshot survives validation.
  [[nodiscard]] PipelineResult resume(
      const std::vector<std::vector<seq::Read>>& library_reads,
      const std::vector<seq::ReadLibrary>& libraries);

  /// FASTQ variant of `resume` (falls back to `run_from_fastq`).
  [[nodiscard]] PipelineResult resume_from_fastq(
      const std::vector<seq::ReadLibrary>& libraries);

  /// The one FASTQ entry point shared by the CLI drivers and the server's
  /// job executor: `resume` selects resume_from_fastq (checkpoint restart
  /// with fallback) over a fresh run_from_fastq.
  [[nodiscard]] PipelineResult execute_from_fastq(
      const std::vector<seq::ReadLibrary>& libraries, bool resume);

  /// Re-arm this pipeline for another job on the same team (serial
  /// context, no run in flight). The delivery backend is a construction
  /// property of the team, so `config.fabric` is ignored in favor of the
  /// original; everything else — including the chaos plan and checkpoint
  /// dir — is replaced. Clears any artifact-cache hooks from the previous
  /// job.
  void reset(PipelineConfig config);

  /// Artifact-cache hook (src/server): the next run starts from these
  /// decoded UFX shards and skips the k-mer analysis stage entirely.
  /// Shards may come from any team size — contig generation re-owns every
  /// k-mer by hash, so they are dealt round robin exactly like a resume.
  /// `aux` carries the k-mer bookkeeping stats captured when the shards
  /// were produced. One-shot: consumed by the next run, cleared by reset.
  void set_preloaded_ufx(std::vector<std::vector<kcount::UfxRecord>> shards,
                         ckpt::AuxStats aux);

  /// Artifact-cache hook (src/server): invoked once after a run computes
  /// UFX from scratch, with every rank's shard encoded in the checkpoint
  /// wire format (ckpt::encode/decode_ufx_shard) plus the k-mer aux stats.
  /// Threads fabric only — on a multi-process fabric each process holds
  /// only its own shard, so the hook is skipped. One-shot like the
  /// preload.
  using UfxExportFn = std::function<void(
      std::vector<std::vector<std::byte>> encoded_shards,
      const ckpt::AuxStats& aux)>;
  void set_ufx_export(UfxExportFn fn) { ufx_export_ = std::move(fn); }

  [[nodiscard]] pgas::ThreadTeam& team() { return team_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  /// Fingerprint binding checkpoints to this configuration: k, every
  /// result-affecting stage parameter, and the library set (names +
  /// contigging roles). Deliberately excludes the team size (resume
  /// re-shards), scaffolding_rounds (a longer run reuses a shorter run's
  /// snapshots), and pure performance/modeling knobs.
  [[nodiscard]] std::uint64_t config_fingerprint(
      const std::vector<seq::ReadLibrary>& libraries) const;

 private:
  /// Per-rank, per-library read shares.
  using RankReads = std::vector<std::vector<seq::ReadStore>>;

  /// Empty RankReads sized for this team. The one place the pipeline picks
  /// the read representation (config_.packed_reads); every store it
  /// creates comes from here, and the reads checkpoint format follows it.
  [[nodiscard]] RankReads make_rank_reads(std::size_t nlibs) const;

  /// Whole-library reads dealt round robin by pair, so mates stay together
  /// on a rank.
  [[nodiscard]] RankReads deal_reads(
      const std::vector<std::vector<seq::Read>>& library_reads,
      std::size_t nlibs) const;

  [[nodiscard]] PipelineResult assemble(
      RankReads rank_reads, const std::vector<seq::ReadLibrary>& libraries,
      std::vector<StageReport> initial_stages, ckpt::ResumeState resume_state);

  void init_checkpointer(const std::vector<seq::ReadLibrary>& libraries);
  [[nodiscard]] ckpt::ResumeState load_resume_state(
      std::vector<StageReport>& stages);

  /// Time `body()` (which may run any number of collective phases) and
  /// append a report for it.
  template <typename Body>
  void run_reported(std::vector<StageReport>& stages, const std::string& name,
                    Body&& body);

  /// Run `fn` as one timed collective phase and append its report. The
  /// stage is announced to the fault injector and `fn` entry is a fault
  /// point (step 0 of a FaultPlan kills a rank at the stage boundary).
  template <typename Fn>
  void run_stage(std::vector<StageReport>& stages, const std::string& name,
                 Fn&& fn);

  /// Snapshot one artifact: every rank encodes and writes its shard
  /// (reported as a "checkpoint" stage), then the serial context commits.
  template <typename EncodeFn>
  void snapshot_stage(std::vector<StageReport>& stages,
                      const std::string& artifact, const ckpt::AuxStats& aux,
                      EncodeFn&& encode);

  pgas::ThreadTeam team_;
  PipelineConfig config_;
  std::unique_ptr<ckpt::Checkpointer> ckpt_;

  // Artifact-cache hooks (see set_preloaded_ufx / set_ufx_export).
  std::vector<std::vector<kcount::UfxRecord>> preloaded_ufx_;
  ckpt::AuxStats preloaded_aux_;
  bool has_preloaded_ufx_ = false;
  UfxExportFn ufx_export_;
};

}  // namespace hipmer::pipeline
