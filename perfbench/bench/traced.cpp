#include "traced.hpp"

#include <algorithm>
#include <fstream>
#include <memory>

#include "align/contig_store.hpp"
#include "align/mer_aligner.hpp"
#include "dbg/contig_generator.hpp"
#include "io/parallel_fastq.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/thread_team.hpp"
#include "scaffold/bubbles.hpp"
#include "scaffold/depths.hpp"
#include "scaffold/gap_closing.hpp"
#include "scaffold/insert_size.hpp"
#include "scaffold/links.hpp"
#include "scaffold/ordering.hpp"
#include "scaffold/sequence_builder.hpp"
#include "scaffold/splints_spans.hpp"

namespace perfbench {

namespace hm = hipmer;
using hm::pgas::CommStatsSnapshot;
using hm::pgas::Rank;

// ---- Tracer ----

Tracer::Tracer(int nranks)
    : origin_(Clock::now()), rank_spans_(static_cast<std::size_t>(nranks)) {}

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void Tracer::add_rank_span(int rank, const std::string& name,
                           Clock::time_point start, Clock::time_point end,
                           const CommStatsSnapshot& delta) {
  Span s;
  s.name = name;
  s.start_us = us_between(origin_, start);
  s.dur_us = us_between(start, end);
  s.parent = current_stage_;
  s.delta = delta;
  rank_spans_[static_cast<std::size_t>(rank)].push_back(std::move(s));
}

void Tracer::add_stage_span(const std::string& name, Clock::time_point start,
                            Clock::time_point end,
                            const CommStatsSnapshot& delta) {
  Span s;
  s.name = name;
  s.start_us = us_between(origin_, start);
  s.dur_us = us_between(start, end);
  s.delta = delta;
  stage_spans_.push_back(std::move(s));
}

double Tracer::call_seconds(const std::string& name) const {
  std::vector<std::vector<const Span*>> calls(rank_spans_.size());
  std::size_t ncalls = 0;
  for (std::size_t r = 0; r < rank_spans_.size(); ++r) {
    for (const auto& s : rank_spans_[r])
      if (s.name == name) calls[r].push_back(&s);
    ncalls = std::max(ncalls, calls[r].size());
  }
  double total_us = 0.0;
  for (std::size_t k = 0; k < ncalls; ++k) {
    double first = 0.0;
    double last = 0.0;
    bool any = false;
    for (const auto& per_rank : calls) {
      if (k >= per_rank.size()) continue;
      const Span& s = *per_rank[k];
      first = any ? std::min(first, s.start_us) : s.start_us;
      last = any ? std::max(last, s.start_us + s.dur_us) : s.start_us + s.dur_us;
      any = true;
    }
    if (any) total_us += last - first;
  }
  return total_us * 1e-6;
}

std::size_t Tracer::span_count() const {
  std::size_t n = stage_spans_.size();
  for (const auto& v : rank_spans_) n += v.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& label) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto emit = [&](const Span& s, int tid) {
    out << ",\n"
        << R"({"name":")" << s.name << R"(","ph":"X","pid":1,"tid":)" << tid
        << R"(,"ts":)" << s.start_us << R"(,"dur":)" << s.dur_us
        << R"(,"args":{"parent":")" << s.parent
        << R"(","work_units":)" << s.delta.work_units
        << R"(,"local_accesses":)" << s.delta.local_accesses
        << R"(,"onnode_msgs":)" << s.delta.onnode_msgs
        << R"(,"offnode_msgs":)" << s.delta.offnode_msgs
        << R"(,"offnode_bytes":)" << s.delta.offnode_bytes
        << R"(,"recv_ops":)" << s.delta.recv_ops
        << R"(,"read_cache_hits":)" << s.delta.read_cache_hits
        << R"(,"read_cache_misses":)" << s.delta.read_cache_misses
        << R"(,"transport_retries":)" << s.delta.transport_retries
        << R"(,"collectives":)" << s.delta.collectives << "}}";
  };
  // Track 0 is the serial stage track; track r + 1 is rank r.
  out << R"({"displayTimeUnit":"ms","otherData":{"workload":")" << label
      << R"("},"traceEvents":[)" << "\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"stages"}})";
  for (std::size_t r = 0; r < rank_spans_.size(); ++r)
    out << ",\n"
        << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << r + 1
        << R"(,"args":{"name":"rank )" << r << R"("}})";
  for (const auto& s : stage_spans_) emit(s, 0);
  for (std::size_t r = 0; r < rank_spans_.size(); ++r)
    for (const auto& s : rank_spans_[r]) emit(s, static_cast<int>(r) + 1);
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- traced pipeline ----

namespace {

/// One collective stage of the traced run.
struct StageRecord {
  std::string layer;  // benchmark grouping (kcount, scaffold.links_order, ...)
  double wall_s = 0.0;
  double modeled_s = 0.0;
  std::vector<CommStatsSnapshot> per_rank;
};

class TracedAssembly {
 public:
  TracedAssembly(const Input& input, Tracer& tracer)
      : input_(input),
        cfg_(input.config),
        tracer_(tracer),
        team_(hm::pgas::Topology{kRanks, kRanksPerNode}, cfg_.fabric) {
    cfg_.sync_k();
    team_.transport().set_plan(cfg_.chaos);
  }

  TracedRun run();

 private:
  using RankReads = std::vector<std::vector<hm::seq::ReadStore>>;

  /// Time one team.run as a stage (serial span + per-rank deltas). The
  /// span is named "<pipeline stage>:<layer>", e.g. "gap_closing:scaffold.gap_close".
  template <typename Fn>
  void stage(const std::string& name, const std::string& layer, Fn&& fn) {
    const std::string span = name + ":" + layer;
    tracer_.set_current_stage(span);
    const auto before = team_.snapshot_all_global();
    const auto t0 = Clock::now();
    team_.run(fn);
    const auto t1 = Clock::now();
    const auto after = team_.snapshot_all_global();
    StageRecord rec;
    rec.layer = layer;
    rec.wall_s = std::chrono::duration<double>(t1 - t0).count();
    CommStatsSnapshot total;
    for (std::size_t r = 0; r < after.size(); ++r) {
      rec.per_rank.push_back(after[r] - before[r]);
      total += rec.per_rank.back();
    }
    rec.modeled_s = cfg_.machine.phase_seconds(rec.per_rank, team_.topology());
    tracer_.add_stage_span(span, t0, t1, total);
    stages_.push_back(std::move(rec));
  }

  /// One rank's call into a module, as a rank span.
  template <typename Fn>
  auto call(Rank& rank, const std::string& name, Fn&& fn) {
    const auto before = rank.stats().snapshot();
    const auto t0 = Clock::now();
    struct Record {
      Tracer& tracer;
      Rank& rank;
      const std::string& name;
      CommStatsSnapshot before;
      Clock::time_point t0;
      ~Record() {
        tracer.add_rank_span(rank.id(), name, t0, Clock::now(),
                             rank.stats().snapshot() - before);
      }
    } record{tracer_, rank, name, before, t0};
    return fn();
  }

  [[nodiscard]] double layer_wall(const std::string& layer) const {
    double s = 0.0;
    for (const auto& st : stages_)
      if (st.layer == layer) s += st.wall_s;
    return s;
  }
  [[nodiscard]] std::vector<double> layer_per_rank(
      const std::string& layer,
      std::uint64_t CommStatsSnapshot::*field) const {
    std::vector<double> v(static_cast<std::size_t>(kRanks), 0.0);
    for (const auto& st : stages_)
      if (st.layer == layer)
        for (std::size_t r = 0; r < st.per_rank.size(); ++r)
          v[r] += static_cast<double>(st.per_rank[r].*field);
    return v;
  }
  [[nodiscard]] double layer_sum(const std::string& layer,
                                 std::uint64_t CommStatsSnapshot::*field) const {
    double s = 0.0;
    for (double v : layer_per_rank(layer, field)) s += v;
    return s;
  }

  const Input& input_;
  hm::pipeline::PipelineConfig cfg_;
  Tracer& tracer_;
  hm::pgas::ThreadTeam team_;
  std::vector<StageRecord> stages_;
};

TracedRun TracedAssembly::run() {
  namespace pl = hm::pipeline;
  const auto& libraries = input_.libraries;
  const auto p = static_cast<std::size_t>(kRanks);
  const auto t_start = Clock::now();
  TracedRun out;

  // ---- io ----
  std::vector<std::unique_ptr<hm::io::ParallelFastqReader>> readers;
  std::uint64_t fastq_bytes = 0;
  for (const auto& lib : libraries) {
    readers.push_back(
        std::make_unique<hm::io::ParallelFastqReader>(lib.fastq_path));
    fastq_bytes += readers.back()->file_size();
  }
  RankReads rank_reads(p, std::vector<hm::seq::ReadStore>(
                              libraries.size(),
                              hm::seq::ReadStore(cfg_.packed_reads)));
  stage(pl::kStageIo, "io", [&](Rank& rank) {
    for (std::size_t lib = 0; lib < readers.size(); ++lib) {
      call(rank, "io.read_my_records", [&] {
        readers[lib]->read_my_records(
            rank, rank_reads[static_cast<std::size_t>(rank.id())][lib]);
      });
      rank.barrier();
    }
  });
  for (auto& per_rank : rank_reads)
    for (auto& store : per_rank) store.shrink_to_fit();

  // ---- k-mer analysis ----
  hm::kcount::KmerAnalysis kmer_analysis(team_, cfg_.kmer);
  stage(pl::kStageKmerAnalysis, "kcount", [&](Rank& rank) {
    std::vector<hm::seq::ReadSetView> sets;
    for (std::size_t lib = 0; lib < libraries.size(); ++lib)
      if (libraries[lib].for_contigging)
        sets.emplace_back(rank_reads[static_cast<std::size_t>(rank.id())][lib]);
    call(rank, "kcount.run", [&] { kmer_analysis.run(rank, sets); });
  });

  // ---- contig generation + store/depths/bubbles ----
  auto store = std::make_unique<hm::align::ContigStore>(team_);
  std::size_t total_ufx = 0;
  for (std::size_t r = 0; r < p; ++r)
    total_ufx += kmer_analysis.ufx(static_cast<int>(r)).size();

  hm::dbg::ContigGenerator contig_gen(team_, cfg_.contig, total_ufx);
  stage(pl::kStageContigGen, "dbg", [&](Rank& rank) {
    call(rank, "dbg.build_graph", [&] {
      contig_gen.build_graph(rank, kmer_analysis.ufx(rank.id()));
    });
    call(rank, "dbg.traverse", [&] { contig_gen.traverse(rank); });
  });
  std::uint64_t dbg_contigs = 0;
  for (std::size_t r = 0; r < p; ++r)
    dbg_contigs += contig_gen.contigs(static_cast<int>(r)).size();

  hm::scaffold::DepthCalculator depth_calc(team_, cfg_.k, total_ufx,
                                           cfg_.kmer.flush_threshold);
  hm::scaffold::BubbleMerger bubble_merger(
      team_, cfg_.bubbles, std::max<std::size_t>(64, total_ufx / 64));
  std::vector<std::vector<hm::dbg::Contig>> merged_contigs(p);
  stage(pl::kStageScaffoldRest, "scaffold.store_depths_bubbles", [&](Rank& rank) {
    call(rank, "scaffold.contig_store.build", [&] {
      store->build(rank, contig_gen.contigs(rank.id()));
    });
    call(rank, "scaffold.depths", [&] {
      const auto depths =
          depth_calc.run(rank, kmer_analysis.ufx(rank.id()), *store);
      for (const auto& [id, depth] : depths)
        store->set_local_depth(rank, id, depth);
    });
    rank.barrier();
    if (cfg_.merge_bubbles) {
      call(rank, "scaffold.bubbles", [&] {
        merged_contigs[static_cast<std::size_t>(rank.id())] =
            bubble_merger.run(rank, *store);
      });
    }
  });
  if (cfg_.merge_bubbles) {
    auto merged_store = std::make_unique<hm::align::ContigStore>(team_);
    stage(pl::kStageScaffoldRest, "scaffold.store_depths_bubbles",
          [&](Rank& rank) {
            call(rank, "scaffold.contig_store.build", [&] {
              merged_store->build(
                  rank, merged_contigs[static_cast<std::size_t>(rank.id())]);
            });
          });
    store = std::move(merged_store);
  }
  std::uint64_t num_contigs = 0;
  for (std::size_t r = 0; r < p; ++r) {
    Rank owner(team_, static_cast<int>(r));
    store->for_each_local(
        owner, [&](std::uint64_t, const hm::dbg::Contig&) { ++num_contigs; });
  }

  // ---- scaffolding rounds ----
  std::vector<hm::io::FastaRecord> scaffold_records;
  std::uint64_t gaps_total = 0;
  std::uint64_t gaps_closed = 0;
  std::uint64_t reads_aligned = 0;
  for (int round = 0; round < cfg_.scaffolding_rounds; ++round) {
    if (round > 0) {
      auto next_store = std::make_unique<hm::align::ContigStore>(team_);
      stage(pl::kStageScaffoldRest, "scaffold.store_depths_bubbles",
            [&](Rank& rank) {
              std::vector<hm::dbg::Contig> mine;
              for (std::size_t i = static_cast<std::size_t>(rank.id());
                   i < scaffold_records.size(); i += p) {
                hm::dbg::Contig contig;
                contig.id = i;
                contig.seq = scaffold_records[i].seq;
                mine.push_back(std::move(contig));
              }
              call(rank, "scaffold.contig_store.build",
                   [&] { next_store->build(rank, mine); });
            });
      store = std::move(next_store);
    }
    std::uint64_t contig_bases = 0;
    for (std::size_t r = 0; r < p; ++r)
      contig_bases += store->local_bases(static_cast<int>(r));

    std::vector<std::vector<hm::align::ReadAlignment>> alignments(p);
    hm::align::MerAligner aligner(team_, cfg_.aligner,
                                  static_cast<std::size_t>(contig_bases));
    stage(pl::kStageAligner, "align", [&](Rank& rank) {
      call(rank, "align.build_index",
           [&] { aligner.build_index(rank, *store); });
      auto& mine = alignments[static_cast<std::size_t>(rank.id())];
      for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
        auto found = call(rank, "align.align_reads", [&] {
          return aligner.align_reads(
              rank, *store, rank_reads[static_cast<std::size_t>(rank.id())][lib],
              static_cast<int>(lib));
        });
        mine.insert(mine.end(), found.begin(), found.end());
      }
    });
    for (const auto& per_rank : rank_reads)
      for (const auto& lib_store : per_rank) reads_aligned += lib_store.size();

    std::vector<hm::scaffold::InsertSizeEstimate> inserts(libraries.size());
    hm::scaffold::LinkConfig link_cfg = cfg_.links;
    link_cfg.expected_links = std::max<std::size_t>(1024, num_contigs * 4);
    hm::scaffold::LinkGenerator links(team_, link_cfg);
    std::vector<hm::scaffold::ScaffoldRecord> scaffolds;
    stage(pl::kStageScaffoldRest, "scaffold.links_order", [&](Rank& rank) {
      call(rank, "scaffold.links_order", [&] {
        const auto& mine = alignments[static_cast<std::size_t>(rank.id())];
        for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
          const auto est = hm::scaffold::estimate_insert_size(
              rank, mine, static_cast<int>(lib));
          if (rank.is_root()) inserts[lib] = est;
        }
        rank.barrier();
        auto observations = hm::scaffold::locate_splints(rank, mine);
        const auto spans = hm::scaffold::locate_spans(rank, mine, inserts);
        observations.insert(observations.end(), spans.begin(), spans.end());
        links.add_observations(rank, observations);
        const auto ties = links.assess(rank);
        std::vector<hm::scaffold::ContigLen> lens;
        store->for_each_local(
            rank, [&](std::uint64_t id, const hm::dbg::Contig& c) {
              lens.push_back(hm::scaffold::ContigLen{
                  id, static_cast<std::uint32_t>(c.seq.size()),
                  static_cast<float>(c.avg_depth)});
            });
        auto records =
            hm::scaffold::order_and_orient(rank, ties, lens, cfg_.ordering);
        if (rank.is_root()) scaffolds = std::move(records);
        rank.barrier();
      });
    });

    const auto gaps = hm::scaffold::enumerate_gaps(scaffolds);
    hm::scaffold::GapClosingConfig gap_cfg = cfg_.gaps;
    gap_cfg.locality_aware_owners = false;
    hm::scaffold::GapCloser closer(team_, gap_cfg);
    std::vector<std::vector<hm::scaffold::Closure>> closures(p);
    stage(pl::kStageGapClosing, "scaffold.gap_close", [&](Rank& rank) {
      std::vector<hm::seq::ReadSetView> my_reads;
      for (std::size_t lib = 0; lib < libraries.size(); ++lib)
        my_reads.emplace_back(
            rank_reads[static_cast<std::size_t>(rank.id())][lib]);
      closures[static_cast<std::size_t>(rank.id())] =
          call(rank, "scaffold.gap_close", [&] {
            return closer.run(rank, gaps, *store, my_reads,
                              alignments[static_cast<std::size_t>(rank.id())],
                              inserts);
          });
    });

    hm::scaffold::ScaffoldStats closure_stats;
    stage(pl::kStageScaffoldRest, "scaffold.build_sequences", [&](Rank& rank) {
      auto records = call(rank, "scaffold.build_sequences", [&] {
        return hm::scaffold::build_scaffold_sequences(
            rank, scaffolds, *store, gaps,
            closures[static_cast<std::size_t>(rank.id())],
            rank.is_root() ? &closure_stats : nullptr);
      });
      if (rank.is_root()) scaffold_records = std::move(records);
      rank.barrier();
    });
    gaps_total += closure_stats.gaps_total;
    gaps_closed += closure_stats.gaps_closed;
  }
  out.wall_s = seconds_since(t_start);
  out.scaffolds = std::move(scaffold_records);

  // ---- per-layer metrics ----
  using S = CommStatsSnapshot;
  auto& m = out.metrics;
  const double ingest_s = layer_wall("io");
  m["io.ingest_s"] = {ingest_s, "s"};
  m["io.ingest_MBps"] = {static_cast<double>(fastq_bytes) / 1e6 / ingest_s,
                         "MB/s"};

  const double kcount_s = layer_wall("kcount");
  m["kcount.run_s"] = {kcount_s, "s"};
  m["kcount.kmer_instances_per_s"] = {
      static_cast<double>(kmer_analysis.total_kmer_instances()) / kcount_s,
      "1/s"};
  m["kcount.peak_table_entries"] = {
      static_cast<double>(kmer_analysis.peak_table_entries()), "count"};
  m["kcount.heavy_hitters"] = {
      static_cast<double>(kmer_analysis.heavy_hitters().size()), "count"};
  m["kcount.offnode_msgs"] = {layer_sum("kcount", &S::offnode_msgs), "count"};
  m["kcount.recv_ops_imbalance"] = {
      imbalance(layer_per_rank("kcount", &S::recv_ops)), "ratio"};

  m["dbg.build_graph_s"] = {tracer_.call_seconds("dbg.build_graph"), "s"};
  m["dbg.traverse_s"] = {tracer_.call_seconds("dbg.traverse"), "s"};
  m["dbg.offnode_msgs"] = {layer_sum("dbg", &S::offnode_msgs), "count"};
  m["dbg.recv_ops_imbalance"] = {imbalance(layer_per_rank("dbg", &S::recv_ops)),
                                 "ratio"};
  m["dbg.contigs"] = {static_cast<double>(dbg_contigs), "count"};

  const double align_s = tracer_.call_seconds("align.align_reads");
  const double hits = layer_sum("align", &S::read_cache_hits);
  const double misses = layer_sum("align", &S::read_cache_misses);
  m["align.build_index_s"] = {tracer_.call_seconds("align.build_index"), "s"};
  m["align.align_reads_s"] = {align_s, "s"};
  m["align.reads_per_s"] = {static_cast<double>(reads_aligned) / align_s, "1/s"};
  m["align.read_cache_hit_rate"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["align.offnode_msgs"] = {layer_sum("align", &S::offnode_msgs), "count"};

  m["scaffold.contig_store_depths_bubbles_s"] = {
      layer_wall("scaffold.store_depths_bubbles"), "s"};
  m["scaffold.links_order_s"] = {layer_wall("scaffold.links_order"), "s"};
  m["scaffold.gap_close_s"] = {layer_wall("scaffold.gap_close"), "s"};
  m["scaffold.gaps_closed_frac"] = {
      gaps_total > 0 ? static_cast<double>(gaps_closed) /
                           static_cast<double>(gaps_total)
                     : 0.0,
      "ratio"};
  m["scaffold.gap_work_imbalance"] = {
      imbalance(layer_per_rank("scaffold.gap_close", &S::work_units)), "ratio"};

  double retries = 0.0;
  double offnode_bytes = 0.0;
  double modeled_s = 0.0;
  for (const auto& st : stages_) {
    modeled_s += st.modeled_s;
    for (const auto& d : st.per_rank) {
      retries += static_cast<double>(d.transport_retries);
      offnode_bytes += static_cast<double>(d.offnode_bytes);
    }
  }
  m["pgas.transport_retries"] = {retries, "count"};
  m["pgas.offnode_MB"] = {offnode_bytes / 1e6, "MB"};
  std::printf("  traced %s: %zu stages, modeled %.6f s, %llu contigs, "
              "%llu/%llu gaps closed\n",
              input_.label.c_str(), stages_.size(), modeled_s,
              static_cast<unsigned long long>(dbg_contigs),
              static_cast<unsigned long long>(gaps_closed),
              static_cast<unsigned long long>(gaps_total));
  return out;
}

}  // namespace

TracedRun run_traced(const Input& input, Tracer& tracer) {
  TracedAssembly assembly(input, tracer);
  return assembly.run();
}

}  // namespace perfbench
