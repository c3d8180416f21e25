#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>

#include "align/contig_store.hpp"
#include "align/mer_aligner.hpp"
#include "dbg/contig_wire.hpp"
#include "scaffold/bubbles.hpp"
#include "scaffold/depths.hpp"
#include "scaffold/gap_closing.hpp"
#include "scaffold/insert_size.hpp"
#include "scaffold/links.hpp"
#include "scaffold/ordering.hpp"
#include "scaffold/sequence_builder.hpp"
#include "scaffold/splints_spans.hpp"
#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace hipmer::scaffold {
namespace {

using align::ReadAlignment;

ReadAlignment make_alignment(std::uint64_t pair, int mate, std::uint32_t contig,
                             std::uint32_t contig_len, std::int32_t cstart,
                             std::int32_t cend, bool fwd, std::int32_t rstart,
                             std::int32_t rend, std::int32_t read_len = 100,
                             int library = 0) {
  ReadAlignment a;
  a.pair_id = pair;
  a.mate = mate;
  a.library = library;
  a.contig_id = contig;
  a.contig_len = contig_len;
  a.contig_start = cstart;
  a.contig_end = cend;
  a.read_fwd = fwd;
  a.read_start = rstart;
  a.read_end = rend;
  a.read_len = read_len;
  a.score = rend - rstart;
  return a;
}

// ---- insert size (§4.4) ----

TEST(InsertSize, RecoversMeanAndStddev) {
  pgas::ThreadTeam team(pgas::Topology{4, 2});
  std::mt19937_64 rng(3);
  std::normal_distribution<double> dist(400.0, 30.0);
  // Pairs on one big contig: mate0 fwd at s, mate1 rev ending at s+insert.
  std::vector<std::vector<ReadAlignment>> per_rank(4);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 500; ++i) {
      const auto insert = static_cast<std::int32_t>(dist(rng));
      const std::int32_t s = static_cast<std::int32_t>(rng() % 50000);
      const auto pair = static_cast<std::uint64_t>(r * 1000 + i);
      per_rank[static_cast<std::size_t>(r)].push_back(
          make_alignment(pair, 0, 1, 100000, s, s + 100, true, 0, 100));
      per_rank[static_cast<std::size_t>(r)].push_back(
          make_alignment(pair, 1, 1, 100000, s + insert - 100, s + insert,
                         false, 0, 100));
    }
  }
  InsertSizeEstimate est;
  team.run([&](pgas::Rank& rank) {
    const auto e = estimate_insert_size(
        rank, per_rank[static_cast<std::size_t>(rank.id())], 0);
    if (rank.is_root()) est = e;
  });
  EXPECT_EQ(est.samples, 2000u);
  EXPECT_NEAR(est.mean, 400.0, 3.0);
  EXPECT_NEAR(est.stddev, 30.0, 3.0);
}

TEST(InsertSize, IgnoresCrossContigAndSameOrientation) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  std::vector<ReadAlignment> alignments;
  // Cross-contig pair.
  alignments.push_back(make_alignment(1, 0, 1, 1000, 0, 100, true, 0, 100));
  alignments.push_back(make_alignment(1, 1, 2, 1000, 0, 100, false, 0, 100));
  // Same-orientation pair (not FR).
  alignments.push_back(make_alignment(2, 0, 3, 1000, 0, 100, true, 0, 100));
  alignments.push_back(make_alignment(2, 1, 3, 1000, 300, 400, true, 0, 100));
  InsertSizeEstimate est;
  team.run([&](pgas::Rank& rank) {
    const auto e = estimate_insert_size(
        rank, rank.is_root() ? alignments : std::vector<ReadAlignment>{}, 0);
    if (rank.is_root()) est = e;
  });
  EXPECT_EQ(est.samples, 0u);
}

// ---- splints & spans (§4.5) ----

TEST(Splints, DetectsOverlappingContigEnds) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  // Read covers end of contig 5 (bases 0..60 of the read) and start of
  // contig 9 (bases 40..100): contigs overlap by 20.
  std::vector<ReadAlignment> alignments;
  alignments.push_back(make_alignment(1, 0, 5, 500, 440, 500, true, 0, 60));
  alignments.push_back(make_alignment(1, 0, 9, 700, 0, 60, true, 40, 100));
  std::vector<LinkObservation> observations;
  team.run([&](pgas::Rank& rank) {
    observations = locate_splints(rank, alignments);
  });
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_TRUE(observations[0].is_splint);
  EXPECT_EQ(observations[0].a, (ContigEnd{5, 1}));
  EXPECT_EQ(observations[0].b, (ContigEnd{9, 0}));
  EXPECT_FLOAT_EQ(observations[0].gap, -20.0f);
}

TEST(Splints, RespectsOrientationAndEndConditions) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  std::vector<ReadAlignment> alignments;
  // Reverse-strand first alignment exiting through contig start.
  alignments.push_back(make_alignment(2, 1, 3, 400, 0, 50, false, 0, 50));
  alignments.push_back(make_alignment(2, 1, 4, 400, 350, 400, false, 45, 95));
  // Interior alignment (not at an end): no splint.
  alignments.push_back(make_alignment(3, 0, 6, 1000, 400, 460, true, 0, 60));
  alignments.push_back(make_alignment(3, 0, 7, 1000, 0, 50, true, 55, 105));
  std::vector<LinkObservation> observations;
  team.run([&](pgas::Rank& rank) {
    observations = locate_splints(rank, alignments);
  });
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_EQ(observations[0].a, (ContigEnd{3, 0}));
  EXPECT_EQ(observations[0].b, (ContigEnd{4, 1}));
}

TEST(Splints, ReadsOfDifferentLibrariesSharingAPairIdStayApart) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  std::vector<ReadAlignment> alignments;
  // Library 0, pair 1, mate 0: a real splint from contig 5 into contig 9.
  alignments.push_back(make_alignment(1, 0, 5, 500, 440, 500, true, 0, 60, 100, 0));
  alignments.push_back(make_alignment(1, 0, 9, 700, 0, 60, true, 40, 100, 100, 0));
  // Library 1's read with the same pair id and mate sits inside contig 7;
  // merged with library 0's read it would split the real splint.
  alignments.push_back(make_alignment(1, 0, 7, 1000, 400, 460, true, 20, 80, 100, 1));
  // Pair 2, mate 0 in libraries 1 and 2: one read leaves contig 11, the
  // other enters contig 12. Merged, they would invent a splint.
  alignments.push_back(make_alignment(2, 0, 11, 500, 440, 500, true, 0, 60, 100, 1));
  alignments.push_back(make_alignment(2, 0, 12, 700, 0, 60, true, 40, 100, 100, 2));
  std::vector<LinkObservation> observations;
  team.run([&](pgas::Rank& rank) {
    observations = locate_splints(rank, alignments);
  });
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_EQ(observations[0].a, (ContigEnd{5, 1}));
  EXPECT_EQ(observations[0].b, (ContigEnd{9, 0}));
}

TEST(Spans, GapEstimateFromInsertSize) {
  pgas::ThreadTeam team(pgas::Topology{4, 2});
  std::vector<InsertSizeEstimate> inserts(1);
  inserts[0].mean = 400.0;
  inserts[0].stddev = 20.0;
  inserts[0].samples = 100;
  // mate0 fwd on contig 1 (len 1000) starting at 850 -> outward 150 via end1.
  // mate1 rev on contig 2 (len 1200), contig_end 120 -> outward 120 via end0.
  // gap = 400 - 150 - 120 = 130.
  std::vector<ReadAlignment> alignments;
  alignments.push_back(make_alignment(11, 0, 1, 1000, 850, 950, true, 0, 100));
  alignments.push_back(make_alignment(11, 1, 2, 1200, 20, 120, false, 0, 100));
  std::vector<LinkObservation> observations;
  team.run([&](pgas::Rank& rank) {
    auto result = locate_spans(
        rank, rank.is_root() ? alignments : std::vector<ReadAlignment>{},
        inserts);
    // pair 11 % 4 = rank 3 receives it.
    if (!result.empty()) observations = result;
  });
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_FALSE(observations[0].is_splint);
  EXPECT_EQ(observations[0].a, (ContigEnd{1, 1}));
  EXPECT_EQ(observations[0].b, (ContigEnd{2, 0}));
  EXPECT_NEAR(observations[0].gap, 130.0f, 0.01f);
}

TEST(Spans, SkipsBuriedAndAmbiguousMates) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  std::vector<InsertSizeEstimate> inserts(1);
  inserts[0].mean = 300.0;
  inserts[0].stddev = 10.0;
  inserts[0].samples = 100;
  std::vector<ReadAlignment> alignments;
  // Buried mate: outward distance 5000 >> 300 + 3*10.
  alignments.push_back(make_alignment(1, 0, 1, 10000, 5000, 5100, true, 0, 100));
  alignments.push_back(make_alignment(1, 1, 2, 1000, 0, 100, false, 0, 100));
  // Ambiguous mate: two equal-score placements on different contigs.
  alignments.push_back(make_alignment(2, 0, 3, 1000, 900, 1000, true, 0, 100));
  alignments.push_back(make_alignment(2, 1, 4, 1000, 0, 100, false, 0, 100));
  alignments.push_back(make_alignment(2, 1, 5, 1000, 0, 100, false, 0, 100));
  std::atomic<std::size_t> total{0};
  team.run([&](pgas::Rank& rank) {
    const auto result = locate_spans(
        rank, rank.is_root() ? alignments : std::vector<ReadAlignment>{},
        inserts);
    total += result.size();
  });
  EXPECT_EQ(total.load(), 0u);
}

// ---- links (§4.6) ----

TEST(Links, AggregatesAndThresholds) {
  pgas::ThreadTeam team(pgas::Topology{4, 2});
  LinkConfig cfg;
  cfg.min_support = 3;
  LinkGenerator links(team, cfg);
  std::vector<std::vector<Tie>> ties(4);
  team.run([&](pgas::Rank& rank) {
    std::vector<LinkObservation> obs;
    // Every rank contributes one observation of link A (support 4 total)
    // and rank 0 alone observes link B (support 1: below threshold).
    LinkObservation a;
    a.a = ContigEnd{1, 1};
    a.b = ContigEnd{2, 0};
    a.gap = 100.0f + static_cast<float>(rank.id());  // mean = 101.5
    a.is_splint = false;
    obs.push_back(a);
    if (rank.is_root()) {
      LinkObservation b;
      b.a = ContigEnd{3, 0};
      b.b = ContigEnd{4, 0};
      b.gap = 50.0f;
      obs.push_back(b);
    }
    links.add_observations(rank, obs);
    ties[static_cast<std::size_t>(rank.id())] = links.assess(rank);
  });
  std::vector<Tie> all;
  for (const auto& t : ties) all.insert(all.end(), t.begin(), t.end());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].support, 4u);
  EXPECT_NEAR(all[0].gap, 101.5, 0.01);
}

// ---- ordering & orientation (§4.7) ----

TEST(Ordering, ChainsMutualBestTies) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  // Three contigs in a row: 0 -(end1:end0)- 1 -(end1:end0)- 2.
  std::vector<Tie> ties;
  ties.push_back(Tie{ContigEnd{0, 1}, ContigEnd{1, 0}, 10, 50.0});
  ties.push_back(Tie{ContigEnd{1, 1}, ContigEnd{2, 0}, 8, 30.0});
  std::vector<ContigLen> lens = {{0, 5000}, {1, 3000}, {2, 4000}};
  std::vector<ScaffoldRecord> scaffolds;
  team.run([&](pgas::Rank& rank) {
    auto result = order_and_orient(
        rank, rank.is_root() ? ties : std::vector<Tie>{},
        rank.is_root() ? lens : std::vector<ContigLen>{});
    if (rank.is_root()) scaffolds = result;
  });
  ASSERT_EQ(scaffolds.size(), 1u);
  ASSERT_EQ(scaffolds[0].placements.size(), 3u);
  EXPECT_EQ(scaffolds[0].placements[0].contig, 0u);
  EXPECT_FALSE(scaffolds[0].placements[0].reversed);
  EXPECT_EQ(scaffolds[0].placements[1].contig, 1u);
  EXPECT_FALSE(scaffolds[0].placements[1].reversed);
  EXPECT_EQ(scaffolds[0].placements[2].contig, 2u);
  EXPECT_NEAR(scaffolds[0].placements[0].gap_after, 50.0, 1e-9);
  EXPECT_NEAR(scaffolds[0].placements[1].gap_after, 30.0, 1e-9);
}

TEST(Ordering, HandlesReverseOrientation) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  // Contig 1 joins via its end 1 -> must be reversed in the scaffold.
  std::vector<Tie> ties = {Tie{ContigEnd{0, 1}, ContigEnd{1, 1}, 5, 20.0}};
  std::vector<ContigLen> lens = {{0, 5000}, {1, 1000}};
  std::vector<ScaffoldRecord> scaffolds;
  team.run([&](pgas::Rank& rank) {
    scaffolds = order_and_orient(rank, ties, lens);
  });
  ASSERT_EQ(scaffolds.size(), 1u);
  ASSERT_EQ(scaffolds[0].placements.size(), 2u);
  EXPECT_EQ(scaffolds[0].placements[0].contig, 0u);
  EXPECT_FALSE(scaffolds[0].placements[0].reversed);
  EXPECT_EQ(scaffolds[0].placements[1].contig, 1u);
  EXPECT_TRUE(scaffolds[0].placements[1].reversed);
}

TEST(Ordering, NonMutualBestDoesNotChain) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  // End (1,0) prefers contig 2 (higher support), so the 0-1 tie is not
  // mutual-best and must not be followed; 1-2 chains.
  std::vector<Tie> ties = {Tie{ContigEnd{0, 1}, ContigEnd{1, 0}, 3, 10.0},
                           Tie{ContigEnd{1, 0}, ContigEnd{2, 1}, 9, 10.0}};
  std::vector<ContigLen> lens = {{0, 9000}, {1, 800}, {2, 700}};
  std::vector<ScaffoldRecord> scaffolds;
  team.run([&](pgas::Rank& rank) {
    scaffolds = order_and_orient(rank, ties, lens);
  });
  // Scaffolds: {0} alone, {1,2} chained.
  ASSERT_EQ(scaffolds.size(), 2u);
  std::size_t total_placed = 0;
  for (const auto& s : scaffolds) total_placed += s.placements.size();
  EXPECT_EQ(total_placed, 3u);
  EXPECT_EQ(scaffolds[0].placements.size(), 1u);  // seeded by longest (0)
}

// ---- gap enumeration & closure (§4.8) ----

TEST(GapClosing, EnumerateGapsSkipsOverlaps) {
  ScaffoldRecord s;
  s.id = 7;
  s.placements = {Placement{1, false, 120.0}, Placement{2, false, -15.0},
                  Placement{3, false, 60.0}, Placement{4, false, 0.0}};
  const auto gaps = enumerate_gaps({s});
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0].left_contig, 1u);
  EXPECT_EQ(gaps[0].right_contig, 2u);
  EXPECT_FLOAT_EQ(gaps[0].gap_estimate, 120.0f);
  EXPECT_EQ(gaps[1].left_contig, 3u);
  EXPECT_EQ(gaps[1].junction, 2u);
}

class GapClosingFixture : public ::testing::Test {
 protected:
  /// Build a genome, split it into two contigs with a gap, and produce
  /// reads covering the gap region.
  void build(std::size_t gap_len, std::uint64_t seed,
             std::size_t genome_len = 3000) {
    std::mt19937_64 rng(seed);
    genome_ = sim::random_dna(genome_len, rng);
    const std::size_t cut1 = 1400;
    const std::size_t cut2 = cut1 + gap_len;
    left_.id = 0;
    left_.seq = genome_.substr(0, cut1);
    right_.id = 1;
    right_.seq = genome_.substr(cut2);
    gap_fill_ = genome_.substr(cut1, gap_len);
  }

  std::vector<std::string> reads_over_gap(int read_len, int stride) {
    std::vector<std::string> reads;
    for (std::size_t i = 1000; i + static_cast<std::size_t>(read_len) < 2000;
         i += static_cast<std::size_t>(stride))
      reads.push_back(genome_.substr(i, static_cast<std::size_t>(read_len)));
    return reads;
  }

  /// Drive GapCloser::run through its public API: every read is declared
  /// to overhang contig 0's right end so projection routes it to the gap.
  Closure close(const std::vector<std::string>& reads, float gap_estimate) {
    GapSpec gap;
    gap.gap_id = 0;
    gap.left_contig = 0;
    gap.right_contig = 1;
    gap.gap_estimate = gap_estimate;
    seq::ReadStore my_reads;
    std::vector<align::ReadAlignment> my_alignments;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      seq::Read r;
      r.name = "g:" + std::to_string(i) + "/0";
      r.seq = reads[i];
      r.quals.assign(r.seq.size(), 'I');
      my_reads.append(r);
      // Claim the read aligns at contig 0's right end with overhang.
      align::ReadAlignment a;
      a.pair_id = i;
      a.mate = 0;
      a.library = 0;
      a.contig_id = 0;
      a.contig_len = static_cast<std::uint32_t>(left_.seq.size());
      a.contig_start = static_cast<std::int32_t>(left_.seq.size()) - 50;
      a.contig_end = static_cast<std::int32_t>(left_.seq.size());
      a.read_start = 0;
      a.read_end = 50;
      a.read_len = static_cast<std::int32_t>(reads[i].size());
      a.read_fwd = true;
      a.score = 50;
      my_alignments.push_back(a);
    }
    std::vector<InsertSizeEstimate> inserts(1);
    std::vector<Closure> closures;
    pgas::ThreadTeam team2(pgas::Topology{1, 1});
    align::ContigStore store2(team2);
    GapClosingConfig cfg2;
    cfg2.k = 21;
    GapCloser closer2(team2, cfg2);
    team2.run([&](pgas::Rank& rank) {
      store2.build(rank, {left_, right_});
      rank.barrier();
      closures = closer2.run(rank, {gap}, store2, {my_reads}, my_alignments,
                             inserts);
    });
    return closures.empty() ? Closure{} : closures[0];
  }

  std::string genome_;
  dbg::Contig left_;
  dbg::Contig right_;
  std::string gap_fill_;
};

TEST_F(GapClosingFixture, SpanningClosesShortGap) {
  build(40, 901);
  // Reads of 150bp easily span a 40bp gap plus both anchors.
  const auto closure = close(reads_over_gap(150, 10), 40.0f);
  ASSERT_TRUE(closure.closed);
  EXPECT_EQ(closure.method, 'S');
  EXPECT_EQ(closure.fill, gap_fill_);
}

TEST_F(GapClosingFixture, WalkClosesLongGap) {
  build(300, 907);
  // 80bp reads cannot span a 300bp gap (+ anchors): the k-mer walk must
  // assemble across.
  const auto closure = close(reads_over_gap(80, 7), 300.0f);
  ASSERT_TRUE(closure.closed);
  EXPECT_TRUE(closure.method == 'W' || closure.method == 'P');
  EXPECT_EQ(closure.fill, gap_fill_);
}

TEST_F(GapClosingFixture, SpanningReadLongerThan64KbArrivesIntact) {
  build(68000, 913, 71600);
  // One 70,000-base read from inside the left contig to inside the right
  // one: it reaches the gap owner whole, so spanning recovers the fill.
  const auto closure = close({genome_.substr(1000, 70000)}, 68000.0f);
  ASSERT_TRUE(closure.closed);
  EXPECT_EQ(closure.method, 'S');
  EXPECT_EQ(closure.fill, gap_fill_);
}

TEST_F(GapClosingFixture, UnclosableGapReportsOpen) {
  build(300, 911);
  // No reads at all: nothing to close with.
  const auto closure = close({}, 300.0f);
  EXPECT_FALSE(closure.closed);
  EXPECT_EQ(closure.method, '-');
}

// ---- depths (§4.1) ----

TEST(Depths, MatchesKmerCounts) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  const int k = 21;
  std::mt19937_64 rng(921);
  const auto seq0 = sim::random_dna(500, rng);
  dbg::Contig contig;
  contig.id = 0;
  contig.seq = seq0;

  // UFX entries: every k-mer of the contig with count 7.
  std::vector<std::pair<seq::KmerT, kcount::KmerSummary>> ufx;
  std::vector<seq::KmerT> kmers;
  seq::extract_kmers<seq::KmerT::kMaxK>(seq0, k, kmers);
  for (const auto& km : kmers) {
    kcount::KmerSummary s;
    s.depth = 7;
    ufx.emplace_back(km.canonical(), s);
  }

  align::ContigStore store(team);
  DepthCalculator calc(team, k, ufx.size());
  std::vector<std::pair<std::uint64_t, double>> depths;
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? std::vector<dbg::Contig>{contig}
                                     : std::vector<dbg::Contig>{});
    rank.barrier();
    auto result = calc.run(
        rank,
        rank.is_root() ? ufx
                       : std::vector<std::pair<seq::KmerT, kcount::KmerSummary>>{},
        store);
    if (!result.empty()) depths = result;
  });
  ASSERT_EQ(depths.size(), 1u);
  EXPECT_EQ(depths[0].first, 0u);
  EXPECT_NEAR(depths[0].second, 7.0, 1e-9);
}

// ---- sequence builder ----

TEST(SequenceBuilder, MergesOverlapsAndFillsGaps) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  std::mt19937_64 rng(931);
  const auto base = sim::random_dna(600, rng);
  // Contig 0 = base[0..300), contig 1 = base[280..600): 20bp true overlap.
  dbg::Contig c0;
  c0.id = 0;
  c0.seq = base.substr(0, 300);
  dbg::Contig c1;
  c1.id = 1;
  c1.seq = base.substr(280, 320);
  ScaffoldRecord scaffold;
  scaffold.id = 0;
  scaffold.placements = {Placement{0, false, -20.0}, Placement{1, false, 0.0}};

  align::ContigStore store(team);
  std::vector<io::FastaRecord> records;
  ScaffoldStats stats;
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root()
                          ? std::vector<dbg::Contig>{c0, c1}
                          : std::vector<dbg::Contig>{});
    rank.barrier();
    auto result = build_scaffold_sequences(rank, {scaffold}, store, {}, {},
                                           rank.is_root() ? &stats : nullptr);
    if (rank.is_root()) records = result;
  });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, base);  // exact overlap merge, no Ns
  EXPECT_EQ(stats.overlap_merges, 1u);
  EXPECT_EQ(stats.overlap_mismatches, 0u);
}

TEST(SequenceBuilder, UnclosedGapBecomesNs) {
  pgas::ThreadTeam team(pgas::Topology{1, 1});
  std::mt19937_64 rng(937);
  dbg::Contig c0;
  c0.id = 0;
  c0.seq = sim::random_dna(200, rng);
  dbg::Contig c1;
  c1.id = 1;
  c1.seq = sim::random_dna(200, rng);
  ScaffoldRecord scaffold;
  scaffold.id = 0;
  scaffold.placements = {Placement{0, false, 37.0}, Placement{1, true, 0.0}};
  const auto gaps = enumerate_gaps({scaffold});
  ASSERT_EQ(gaps.size(), 1u);

  align::ContigStore store(team);
  std::vector<io::FastaRecord> records;
  team.run([&](pgas::Rank& rank) {
    store.build(rank, {c0, c1});
    rank.barrier();
    records = build_scaffold_sequences(rank, {scaffold}, store, gaps, {});
  });
  ASSERT_EQ(records.size(), 1u);
  const std::string expect =
      c0.seq + std::string(37, 'N') + seq::revcomp(c1.seq);
  EXPECT_EQ(records[0].seq, expect);
}

// ---- bubbles (§4.2) ----

TEST(Bubbles, MergesCleanDiploidBubble) {
  // Hand-built bubble: flank L, two paths U (deep) and V (shallow), flank R.
  // Junction k-mers: jL = last k-mer of L; jR = first k-mer of R.
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  const int k = 21;
  std::mt19937_64 rng(941);
  const auto left = sim::random_dna(300, rng);
  const auto mid_u = sim::random_dna(2 * k, rng);
  auto mid_v = mid_u;
  mid_v[k] = seq::complement_base(mid_v[k]);  // one SNP between paths
  const auto right = sim::random_dna(300, rng);

  const auto jl = seq::KmerT::from_string(left.substr(left.size() - k)).canonical();
  const auto jr = seq::KmerT::from_string(right.substr(0, k)).canonical();

  auto make = [&](std::uint64_t id, std::string s, double depth,
                  char lcode, char rcode, bool lj, bool rj) {
    dbg::Contig c;
    c.id = id;
    c.seq = std::move(s);
    c.avg_depth = depth;
    c.left.code = lcode;
    c.right.code = rcode;
    c.left.has_junction = lj;
    c.right.has_junction = rj;
    if (lj) c.left.junction = (id == 0) ? jl : jl;   // set precisely below
    if (rj) c.right.junction = jr;
    return c;
  };
  // L: right end F at jL. U, V: left end N at jL, right end N at jR.
  // R: left end F at jR.
  auto L = make(0, left, 20, 'X', 'F', false, false);
  L.right.junction = jl;
  L.right.has_junction = true;
  // Traversal convention: a path contig stops *before* the junction k-mer,
  // so it overlaps each flank by exactly k-1 bases.
  const auto kk = static_cast<std::size_t>(k);
  auto U = make(1,
                left.substr(left.size() - (kk - 1)) + mid_u +
                    right.substr(0, kk - 1),
                12, 'N', 'N', true, true);
  U.left.junction = jl;
  U.right.junction = jr;
  auto V = make(2,
                left.substr(left.size() - (kk - 1)) + mid_v +
                    right.substr(0, kk - 1),
                8, 'N', 'N', true, true);
  V.left.junction = jl;
  V.right.junction = jr;
  auto R = make(3, right, 20, 'F', 'X', false, false);
  R.left.junction = jr;
  R.left.has_junction = true;

  align::ContigStore store(team);
  BubbleConfig cfg;
  cfg.k = k;
  BubbleMerger merger(team, cfg, 16);
  std::vector<std::vector<dbg::Contig>> merged(2);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root()
                          ? std::vector<dbg::Contig>{L, U, V, R}
                          : std::vector<dbg::Contig>{});
    rank.barrier();
    merged[static_cast<std::size_t>(rank.id())] = merger.run(rank, store);
  });

  std::vector<dbg::Contig> all;
  for (const auto& m : merged) all.insert(all.end(), m.begin(), m.end());
  // L + U + R merged into one contig; V dropped.
  ASSERT_EQ(all.size(), 1u);
  const std::string expect = left + mid_u + right;
  const auto got = all[0].seq;
  EXPECT_TRUE(got == expect || got == seq::revcomp(expect));
  EXPECT_EQ(merger.bubbles_merged(), 2u);  // two junctions resolved
}

TEST(Bubbles, PassThroughWithoutJunctions) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  std::mt19937_64 rng(947);
  std::vector<dbg::Contig> contigs;
  for (int i = 0; i < 6; ++i) {
    dbg::Contig c;
    c.id = static_cast<std::uint64_t>(i);
    c.seq = sim::random_dna(200 + static_cast<std::uint64_t>(i), rng);
    contigs.push_back(c);
  }
  align::ContigStore store(team);
  BubbleConfig cfg;
  cfg.k = 21;
  BubbleMerger merger(team, cfg, 16);
  std::vector<std::vector<dbg::Contig>> merged(2);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? contigs : std::vector<dbg::Contig>{});
    rank.barrier();
    merged[static_cast<std::size_t>(rank.id())] = merger.run(rank, store);
  });
  // The merger emits canonical orientation; compare canonical forms.
  auto canonical = [](const std::string& s) {
    const auto rc = seq::revcomp(s);
    return std::min(s, rc);
  };
  std::vector<std::string> seqs;
  for (const auto& m : merged)
    for (const auto& c : m) seqs.push_back(canonical(c.seq));
  ASSERT_EQ(seqs.size(), 6u);
  std::vector<std::string> expect;
  for (const auto& c : contigs) expect.push_back(canonical(c.seq));
  std::sort(seqs.begin(), seqs.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(seqs, expect);
}

// ---- bubble chain components ----

constexpr int kBubbleK = 21;

dbg::TermInfo term_at(char code, const std::string& kmer) {
  dbg::TermInfo term;
  term.code = code;
  if (!kmer.empty()) {
    term.junction = seq::KmerT::from_string(kmer).canonical();
    term.has_junction = true;
  }
  return term;
}

dbg::Contig contig_of(std::uint64_t id, std::string s, double depth,
                      dbg::TermInfo left, dbg::TermInfo right) {
  dbg::Contig c;
  c.id = id;
  c.seq = std::move(s);
  c.avg_depth = depth;
  c.left = std::move(left);
  c.right = std::move(right);
  return c;
}

std::string canonical_seq(const std::string& s) {
  return std::min(s, seq::revcomp(s));
}

/// `bubbles` consecutive diploid bubbles between fork-ended flanks, as the
/// de Bruijn traversal leaves them: each path overlaps its flanks by k-1
/// and records the flanks' fork k-mers as 'N' junctions; the deeper path
/// (U) wins, the other (V, one SNP away) dies. With `ring`, the last bubble
/// leads back into the first flank. Appends the contigs (ids from
/// `contigs.size()`) and returns the merged sequence, canonical.
std::string add_bubble_run(std::vector<dbg::Contig>& contigs, int bubbles,
                           bool ring, std::mt19937_64& rng) {
  const auto k = static_cast<std::size_t>(kBubbleK);
  const int nflanks = ring ? bubbles : bubbles + 1;
  std::vector<std::string> flanks;
  for (int i = 0; i < nflanks; ++i)
    flanks.push_back(
        sim::random_dna(150 + 10 * static_cast<std::size_t>(i), rng));
  auto first_kmer = [&](int f) {
    return flanks[static_cast<std::size_t>(f)].substr(0, k);
  };
  auto last_kmer = [&](int f) {
    const auto& s = flanks[static_cast<std::size_t>(f)];
    return s.substr(s.size() - k);
  };
  for (int i = 0; i < nflanks; ++i) {
    const bool open_left = !ring && i == 0;
    const bool open_right = !ring && i == nflanks - 1;
    contigs.push_back(contig_of(
        contigs.size(), flanks[static_cast<std::size_t>(i)], 20,
        open_left ? term_at('X', "") : term_at('F', first_kmer(i)),
        open_right ? term_at('X', "") : term_at('F', last_kmer(i))));
  }
  std::string merged = flanks[0];
  for (int b = 0; b < bubbles; ++b) {
    const int next = (b + 1) % nflanks;
    const auto mid = sim::random_dna(2 * k, rng);
    auto snp = mid;
    snp[k] = seq::complement_base(snp[k]);
    const auto head = last_kmer(b).substr(1);
    const auto tail = first_kmer(next).substr(0, k - 1);
    contigs.push_back(contig_of(contigs.size(), head + mid + tail, 12,
                                term_at('N', last_kmer(b)),
                                term_at('N', first_kmer(next))));
    contigs.push_back(contig_of(contigs.size(), head + snp + tail, 8,
                                term_at('N', last_kmer(b)),
                                term_at('N', first_kmer(next))));
    merged += mid;
    merged += ring && next == 0 ? tail
                                : flanks[static_cast<std::size_t>(next)];
  }
  return canonical_seq(merged);
}

struct MergeRun {
  std::vector<dbg::Contig> merged;  // by id
  std::vector<pgas::CommStatsSnapshot> counters;  // per rank, run() only
  std::uint64_t bubbles = 0;
};

MergeRun merge_bubbles(const std::vector<dbg::Contig>& contigs, int nranks,
                       int per_node = 2) {
  pgas::ThreadTeam team(pgas::Topology{nranks, per_node});
  align::ContigStore store(team);
  BubbleConfig cfg;
  cfg.k = kBubbleK;
  BubbleMerger merger(team, cfg, contigs.size());
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? contigs : std::vector<dbg::Contig>{});
  });
  std::vector<std::vector<dbg::Contig>> merged(
      static_cast<std::size_t>(nranks));
  const auto before = team.snapshot_all();
  team.run([&](pgas::Rank& rank) {
    merged[static_cast<std::size_t>(rank.id())] = merger.run(rank, store);
  });
  const auto after = team.snapshot_all();
  MergeRun run;
  for (std::size_t r = 0; r < after.size(); ++r)
    run.counters.push_back(after[r] - before[r]);
  for (const auto& m : merged)
    run.merged.insert(run.merged.end(), m.begin(), m.end());
  std::sort(run.merged.begin(), run.merged.end(),
            [](const dbg::Contig& a, const dbg::Contig& b) {
              return a.id < b.id;
            });
  run.bubbles = merger.bubbles_merged();
  return run;
}

std::vector<std::byte> bytes_of(const std::vector<dbg::Contig>& contigs) {
  std::vector<std::byte> bytes;
  for (const auto& c : contigs) dbg::serialize_contig(bytes, c);
  return bytes;
}

/// Merge at 1, 2, 4 and 7 ranks; every rank count must give byte-identical
/// records. Returns the canonical merged sequences.
std::vector<std::string> merge_everywhere(
    const std::vector<dbg::Contig>& contigs) {
  const auto reference = merge_bubbles(contigs, 1);
  for (const int nranks : {2, 4, 7}) {
    EXPECT_EQ(bytes_of(merge_bubbles(contigs, nranks).merged),
              bytes_of(reference.merged))
        << "nranks=" << nranks;
  }
  std::vector<std::string> seqs;
  for (const auto& c : reference.merged) seqs.push_back(c.seq);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

TEST(Bubbles, ConsecutiveBubblesMergeIntoOnePath) {
  std::mt19937_64 rng(953);
  std::vector<dbg::Contig> contigs;
  const auto expect = add_bubble_run(contigs, 3, /*ring=*/false, rng);
  ASSERT_EQ(contigs.size(), 10u);
  EXPECT_EQ(merge_everywhere(contigs), std::vector<std::string>{expect});
}

TEST(Bubbles, RingOfBubblesMergesOnceFromItsSmallestId) {
  std::mt19937_64 rng(967);
  std::vector<dbg::Contig> contigs;
  const auto expect = add_bubble_run(contigs, 3, /*ring=*/true, rng);
  ASSERT_EQ(contigs.size(), 9u);
  EXPECT_EQ(merge_everywhere(contigs), std::vector<std::string>{expect});
}

TEST(Bubbles, ComponentOfDeadContigsIsDropped) {
  // A loses bubble g1 and B loses g3, but B beats C in g2, whose flank is
  // A: the merge edge A-B joins two dead contigs, and that component must
  // vanish along with C. P-W1 and W3-Q merge as usual.
  const auto k = static_cast<std::size_t>(kBubbleK);
  std::mt19937_64 rng(971);
  const auto P = sim::random_dna(200, rng);
  const auto Q = sim::random_dna(210, rng);
  const auto j1 = P.substr(P.size() - k);
  const auto j2 = sim::random_dna(k, rng);
  const auto j3 = Q.substr(0, k);
  const auto W1 = P.substr(P.size() - (k - 1)) + sim::random_dna(150, rng);
  const auto W3 = sim::random_dna(150, rng) + Q.substr(0, k - 1);
  const auto A = sim::random_dna(160, rng);
  const auto B = sim::random_dna(155, rng);
  const auto C = sim::random_dna(150, rng);
  const std::vector<dbg::Contig> contigs{
      contig_of(0, P, 20, term_at('X', ""), term_at('F', j1)),
      contig_of(1, W1, 12, term_at('N', j1), term_at('X', "")),
      contig_of(2, A, 8, term_at('N', j1), term_at('F', j2)),
      contig_of(3, B, 8, term_at('N', j2), term_at('N', j3)),
      contig_of(4, C, 5, term_at('N', j2), term_at('X', "")),
      contig_of(5, W3, 12, term_at('X', ""), term_at('N', j3)),
      contig_of(6, Q, 20, term_at('F', j3), term_at('X', "")),
  };
  std::vector<std::string> expect{canonical_seq(P + W1.substr(k - 1)),
                                   canonical_seq(W3 + Q.substr(k - 1))};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(merge_everywhere(contigs), expect);
  EXPECT_EQ(merge_bubbles(contigs, 2).bubbles, 3u);
}

TEST(Bubbles, CountersRepeatExactly) {
  // Chain components come from the replicated edge list, so every rank's
  // counters and the merged records repeat exactly at 16 ranks.
  std::mt19937_64 rng(977);
  std::vector<dbg::Contig> contigs;
  for (int i = 0; i < 30; ++i)
    add_bubble_run(contigs, 1 + i % 4, /*ring=*/i % 5 == 4, rng);
  const auto first = merge_bubbles(contigs, 16, 4);
  ASSERT_GT(first.bubbles, 0u);
  for (int repeat = 1; repeat < 10; ++repeat) {
    const auto run = merge_bubbles(contigs, 16, 4);
    EXPECT_EQ(bytes_of(run.merged), bytes_of(first.merged))
        << "repeat " << repeat;
    for (std::size_t r = 0; r < run.counters.size(); ++r)
      EXPECT_EQ(run.counters[r].to_string(), first.counters[r].to_string())
          << "repeat " << repeat << " rank " << r;
  }
}

}  // namespace
}  // namespace hipmer::scaffold
