#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string_view>

#include "align/contig_store.hpp"
#include "align/mer_aligner.hpp"
#include "align/smith_waterman.hpp"
#include "seq/dna.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace hipmer::align {
namespace {

// ---- Smith-Waterman / diagonal extension ----

/// Reference: full (unbanded) Smith-Waterman score by DP, O(nm).
std::int32_t naive_sw_score(std::string_view a, std::string_view b,
                            const Scoring& sc = {}) {
  std::vector<std::vector<std::int32_t>> H(a.size() + 1,
                                           std::vector<std::int32_t>(b.size() + 1, 0));
  std::int32_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::int32_t sub =
          a[i - 1] == b[j - 1] ? sc.match : sc.mismatch;
      H[i][j] = std::max({0, H[i - 1][j - 1] + sub, H[i - 1][j] + sc.gap,
                          H[i][j - 1] + sc.gap});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

TEST(DiagonalExtend, ExactMatchScoresFullLength) {
  const std::string s = "ACGTACGTTGCA";
  const auto aln = diagonal_extend(s, "TTT" + s + "GGG", 3);
  EXPECT_EQ(aln.score, static_cast<std::int32_t>(s.size()));
  EXPECT_EQ(aln.a_start, 0);
  EXPECT_EQ(aln.a_end, static_cast<std::int32_t>(s.size()));
  EXPECT_EQ(aln.b_start, 3);
}

TEST(DiagonalExtend, MismatchesTrimEnds) {
  // Query differs at both ends; best segment is the middle.
  const std::string target = "AAAACGTACGTACGTAAAA";
  std::string query = target;
  query[0] = 'T';
  query[18] = 'C';
  const auto aln = diagonal_extend(query, target, 0);
  EXPECT_EQ(aln.a_start, 1);
  EXPECT_EQ(aln.a_end, 18);
  EXPECT_EQ(aln.score, 17);
}

TEST(DiagonalExtend, NoAlignmentOnDisjointStrings) {
  const auto aln = diagonal_extend("AAAA", "TTTT", 0);
  EXPECT_TRUE(aln.empty());
}

TEST(BandedSW, MatchesNaiveOnSubstitutions) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const auto target = sim::random_dna(120, rng);
    std::string query = target.substr(10, 80);
    // Sprinkle substitutions.
    for (int e = 0; e < 4; ++e) {
      const auto pos = rng() % query.size();
      query[pos] = seq::complement_base(query[pos]);
    }
    const auto banded = banded_smith_waterman(query, target, 10, 4);
    EXPECT_EQ(banded.score, naive_sw_score(query, target)) << trial;
  }
}

TEST(BandedSW, HandlesSmallIndels) {
  std::mt19937_64 rng(11);
  const auto target = sim::random_dna(100, rng);
  // Query = target[10..70) with a 2-base deletion in the middle.
  std::string query = target.substr(10, 30) + target.substr(42, 28);
  const auto aln = banded_smith_waterman(query, target, 10, 4);
  // Full SW would score 58 matches + one 2-gap = 58 - 4; banded must find it.
  EXPECT_GE(aln.score, 50);
  EXPECT_EQ(aln.score, naive_sw_score(query, target));
}

TEST(BandedSW, RecoversCoordinates) {
  const std::string target = "GGGGGACGTACGTACGTCCCCC";
  const std::string query = "ACGTACGTACGT";
  const auto aln = banded_smith_waterman(query, target, 5, 3);
  EXPECT_EQ(aln.score, 12);
  EXPECT_EQ(aln.a_start, 0);
  EXPECT_EQ(aln.a_end, 12);
  EXPECT_EQ(aln.b_start, 5);
  EXPECT_EQ(aln.b_end, 17);
}

// ---- ContigStore ----

std::vector<dbg::Contig> make_contigs(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<dbg::Contig> contigs;
  for (int i = 0; i < n; ++i) {
    dbg::Contig c;
    c.id = static_cast<std::uint64_t>(i);
    c.seq = sim::random_dna(100 + static_cast<std::uint64_t>(rng() % 400), rng);
    c.avg_depth = 10.0 + static_cast<double>(i);
    c.left.code = 'F';
    c.right.code = 'X';
    contigs.push_back(std::move(c));
  }
  return contigs;
}

TEST(ContigStore, RedistributesAndFetches) {
  const int p = 4;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  const auto contigs = make_contigs(37, 3);
  ContigStore store(team);
  team.run([&](pgas::Rank& rank) {
    // Initially contigs live wherever traversal produced them: round-robin
    // by a different key than the store's id % P.
    std::vector<dbg::Contig> mine;
    for (std::size_t i = 0; i < contigs.size(); ++i)
      if (static_cast<int>(i / 10) % p == rank.id()) mine.push_back(contigs[i]);
    store.build(rank, mine);
    rank.barrier();
    // Every rank can read every contig, whole or windowed.
    for (const auto& c : contigs) {
      const dbg::Contig& got = store.read(rank, c.id);
      EXPECT_EQ(got.seq, c.seq);
      EXPECT_EQ(std::string_view(got.seq).substr(10, 20), c.seq.substr(10, 20));
      EXPECT_EQ(got.seq.size(), c.seq.size());
      EXPECT_FLOAT_EQ(static_cast<float>(got.avg_depth),
                      static_cast<float>(c.avg_depth));
      EXPECT_EQ(got.left.code, 'F');
    }
  });
  EXPECT_EQ(store.num_contigs(), 37u);
}

TEST(ContigStore, OwnershipIsById) {
  const int p = 4;
  pgas::ThreadTeam team(pgas::Topology{p, 2});
  const auto contigs = make_contigs(20, 5);
  ContigStore store(team);
  team.run([&](pgas::Rank& rank) {
    std::vector<dbg::Contig> mine;
    if (rank.is_root()) mine = contigs;  // all start on rank 0
    store.build(rank, mine);
    rank.barrier();
    std::size_t local = 0;
    store.for_each_local(rank, [&](std::uint64_t id, const dbg::Contig&) {
      EXPECT_EQ(store.owner_of(id), rank.id());
      ++local;
    });
    EXPECT_EQ(local, 5u);  // 20 contigs over 4 ranks
  });
}

TEST(ContigStore, CacheReducesRemoteBytes) {
  const int p = 2;
  pgas::ThreadTeam team(pgas::Topology{p, 1});
  const auto contigs = make_contigs(65, 7);
  ContigStore store(team);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? contigs : std::vector<dbg::Contig>{});
  });
  // Contigs 0 and 64 are owned by rank 0, so both are remote from rank 1.
  auto rank1_msgs = [&](const std::vector<std::uint64_t>& ids) {
    team.reset_stats();
    team.run([&](pgas::Rank& rank) {
      if (rank.id() != 1) return;
      for (int round = 0; round < 50; ++round)
        for (const auto id : ids)
          EXPECT_EQ(store.read(rank, id).seq.substr(0, 7).size(), 7u);
    });
    return team.snapshot_all()[1].total_msgs();
  };
  // Repeats of one remote contig are served from rank 1's cache.
  EXPECT_EQ(rank1_msgs({0}), 1u);
  // 0 and 64 share a slot of the 64-slot direct-mapped cache, so
  // alternating them (64 first: 0 is still cached) misses every time.
  EXPECT_EQ(rank1_msgs({64, 0}), 100u);
}

TEST(ContigStore, RemoteRecordKeepsDepthTermsAndJunctions) {
  pgas::ThreadTeam team(pgas::Topology{2, 1});
  std::mt19937_64 rng(13);
  dbg::Contig c;
  c.id = 0;
  c.seq = sim::random_dna(80, rng);
  c.avg_depth = 12.5;
  c.left.code = 'F';
  c.left.has_junction = true;
  c.left.junction = seq::KmerT::from_string(c.seq.substr(0, 21)).canonical();
  c.right.code = 'N';
  c.right.has_junction = true;
  c.right.junction = seq::KmerT::from_string(c.seq.substr(59, 21)).canonical();
  ContigStore store(team);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? std::vector<dbg::Contig>{c}
                                     : std::vector<dbg::Contig>{});
    if (rank.id() != 1) return;  // contig 0 is remote from rank 1
    const dbg::Contig& got = store.read(rank, 0);
    EXPECT_EQ(got.id, 0u);
    EXPECT_EQ(got.seq, c.seq);
    EXPECT_EQ(got.avg_depth, 12.5);
    EXPECT_EQ(got.left.code, 'F');
    EXPECT_EQ(got.right.code, 'N');
    EXPECT_TRUE(got.left.has_junction);
    EXPECT_TRUE(got.right.has_junction);
    EXPECT_EQ(got.left.junction, c.left.junction);
    EXPECT_EQ(got.right.junction, c.right.junction);
  });
}

TEST(ContigStore, SlotSharingIdsReadBackToBack) {
  pgas::ThreadTeam team(pgas::Topology{2, 1});
  const auto contigs = make_contigs(65, 17);
  ContigStore store(team);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? contigs : std::vector<dbg::Contig>{});
    if (rank.id() != 1) return;
    // 0 and 64 are remote from rank 1 and share one slot of its cache:
    // each read evicts the other, and each must still return its own
    // record.
    for (int round = 0; round < 3; ++round) {
      for (const std::uint64_t id : {0u, 64u}) {
        const dbg::Contig& got = store.read(rank, id);
        EXPECT_EQ(got.id, id);
        EXPECT_EQ(got.seq, contigs[id].seq);
        EXPECT_EQ(got.avg_depth, contigs[id].avg_depth);
      }
    }
  });
}

// ---- MerAligner ----

struct AlignFixture {
  sim::Genome genome;
  std::vector<dbg::Contig> contigs;
  std::vector<std::uint64_t> contig_offsets;  // origin of each contig
};

/// Build "contigs" directly from genome slices so alignment truth is known.
AlignFixture make_fixture(std::uint64_t genome_len, int num_contigs,
                          std::uint64_t seed) {
  AlignFixture fx;
  sim::GenomeConfig gc;
  gc.length = genome_len;
  gc.seed = seed;
  fx.genome = sim::simulate_genome(gc);
  const std::uint64_t piece = genome_len / static_cast<std::uint64_t>(num_contigs);
  for (int i = 0; i < num_contigs; ++i) {
    dbg::Contig c;
    c.id = static_cast<std::uint64_t>(i);
    const std::uint64_t start = static_cast<std::uint64_t>(i) * piece;
    c.seq = fx.genome.primary.substr(start, piece);
    fx.contigs.push_back(std::move(c));
    fx.contig_offsets.push_back(start);
  }
  return fx;
}

TEST(MerAligner, AlignsCleanReadsToTheRightPlace) {
  const int p = 4;
  const auto fx = make_fixture(40000, 8, 21);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 2.0;
  lc.error_rate = 0.0;
  lc.seed = 22;
  const auto reads = sim::simulate_library(fx.genome, lc);

  pgas::ThreadTeam team(pgas::Topology{p, 2});
  ContigStore store(team);
  AlignerConfig ac;
  ac.seed_k = 31;
  MerAligner aligner(team, ac, 40000);
  std::vector<std::vector<ReadAlignment>> results(p);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? fx.contigs : std::vector<dbg::Contig>{});
    aligner.build_index(rank, store);
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(p))
      mine.append(reads[i]);
    results[static_cast<std::size_t>(rank.id())] =
        aligner.align_reads(rank, store, mine, 0);
  });

  std::size_t aligned = 0;
  std::size_t full_length = 0;
  for (const auto& per_rank : results) {
    for (const auto& a : per_rank) {
      ++aligned;
      // Verify the alignment by extracting the claimed contig segment and
      // comparing against the claimed read segment.
      const auto& contig_seq = fx.contigs[a.contig_id].seq;
      ASSERT_LE(static_cast<std::size_t>(a.contig_end), contig_seq.size());
      const auto segment = contig_seq.substr(
          static_cast<std::size_t>(a.contig_start),
          static_cast<std::size_t>(a.contig_end - a.contig_start));
      // Reconstruct the read segment (reads not stored here; use genome).
      // Instead verify score consistency: perfect reads must align with
      // score == aligned length.
      EXPECT_EQ(a.score, a.aligned_len());
      EXPECT_EQ(segment.size(), static_cast<std::size_t>(a.aligned_len()));
      if (a.aligned_len() == a.read_len) ++full_length;
    }
  }
  // Nearly every read aligns; most align full-length (reads crossing contig
  // boundaries align partially to two contigs).
  EXPECT_GT(aligned, reads.size() * 95 / 100);
  EXPECT_GT(full_length, aligned * 7 / 10);
}

TEST(MerAligner, ReverseStrandReadsAlignCorrectly) {
  const auto fx = make_fixture(10000, 2, 31);
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  ContigStore store(team);
  AlignerConfig ac;
  ac.seed_k = 21;
  MerAligner aligner(team, ac, 10000);

  // Hand-build reads: forward and reverse slices of contig 0.
  seq::ReadStore reads;
  const auto& contig_seq = fx.contigs[0].seq;
  seq::Read fwd;
  fwd.name = "t:0/0";
  fwd.seq = contig_seq.substr(100, 80);
  fwd.quals.assign(80, 'I');
  seq::Read rev;
  rev.name = "t:1/0";
  rev.seq = seq::revcomp(contig_seq.substr(300, 80));
  rev.quals.assign(80, 'I');
  reads.append(fwd);
  reads.append(rev);

  std::vector<ReadAlignment> all;
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? fx.contigs : std::vector<dbg::Contig>{});
    aligner.build_index(rank, store);
    auto mine = rank.is_root() ? reads : seq::ReadStore{};
    auto result = aligner.align_reads(rank, store, mine, 0);
    if (rank.is_root()) all = result;
  });

  ASSERT_EQ(all.size(), 2u);
  std::map<std::uint64_t, ReadAlignment> by_pair;
  for (const auto& a : all) by_pair[a.pair_id] = a;
  EXPECT_TRUE(by_pair[0].read_fwd);
  EXPECT_EQ(by_pair[0].contig_start, 100);
  EXPECT_EQ(by_pair[0].contig_end, 180);
  EXPECT_FALSE(by_pair[1].read_fwd);
  EXPECT_EQ(by_pair[1].contig_start, 300);
  EXPECT_EQ(by_pair[1].contig_end, 380);
  EXPECT_EQ(by_pair[1].score, 80);
}

// Each candidate reads its contig once, through the cache: many reads
// hitting one remote contig cost one message for it, beyond the seed
// lookups, however many candidates they make.
TEST(MerAligner, ManyReadsOfOneRemoteContigCostOneMessage) {
  std::mt19937_64 rng(91);
  const std::string genome = sim::random_dna(2000, rng);
  seq::ReadStore reads;
  for (int i = 0; i < 40; ++i) {
    seq::Read r;
    r.name = "t:" + std::to_string(i) + "/0";
    r.seq = genome.substr(static_cast<std::size_t>(40 * i), 100);
    r.quals.assign(r.seq.size(), 'I');
    reads.append(r);
  }
  // Messages rank 1 sends aligning `reads` against `genome` stored as
  // contig `id`; the seed lookups do not depend on the id.
  auto rank1_msgs = [&](std::uint64_t id) {
    pgas::ThreadTeam team(pgas::Topology{2, 1});
    ContigStore store(team);
    AlignerConfig ac;
    ac.seed_k = 21;
    MerAligner aligner(team, ac, genome.size());
    dbg::Contig c;
    c.id = id;
    c.seq = genome;
    team.run([&](pgas::Rank& rank) {
      store.build(rank, rank.is_root() ? std::vector<dbg::Contig>{c}
                                       : std::vector<dbg::Contig>{});
      aligner.build_index(rank, store);
    });
    team.reset_stats();
    std::size_t aligned = 0;
    team.run([&](pgas::Rank& rank) {
      const auto found = aligner.align_reads(
          rank, store, rank.id() == 1 ? reads : seq::ReadStore{}, 0);
      if (rank.id() == 1) aligned = found.size();
    });
    EXPECT_EQ(aligned, reads.size());
    return team.snapshot_all()[1].total_msgs();
  };
  // Contig 0 lives on rank 0, remote from the reads; contig 1 on rank 1.
  EXPECT_EQ(rank1_msgs(0), rank1_msgs(1) + 1);
}

TEST(MerAligner, ToleratesSequencingErrors) {
  const auto fx = make_fixture(20000, 4, 41);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 2.0;
  lc.error_rate = 0.01;  // ~1 error per read
  lc.seed = 42;
  const auto reads = sim::simulate_library(fx.genome, lc);

  pgas::ThreadTeam team(pgas::Topology{4, 2});
  ContigStore store(team);
  AlignerConfig ac;
  ac.seed_k = 21;
  ac.seed_stride = 8;
  MerAligner aligner(team, ac, 20000);
  std::vector<std::size_t> aligned_per_rank(4, 0);
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? fx.contigs : std::vector<dbg::Contig>{});
    aligner.build_index(rank, store);
    seq::ReadStore mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += 4)
      mine.append(reads[i]);
    std::map<std::uint64_t, bool> seen;
    for (const auto& a : aligner.align_reads(rank, store, mine, 0))
      seen[a.pair_id * 2 + static_cast<std::uint64_t>(a.mate)] = true;
    aligned_per_rank[static_cast<std::size_t>(rank.id())] = seen.size();
  });
  std::size_t aligned = 0;
  for (auto n : aligned_per_rank) aligned += n;
  EXPECT_GT(aligned, reads.size() * 90 / 100);
}

TEST(MerAligner, RepetitiveSeedsAreSkippedNotWrong) {
  // A genome that is one repeated unit: seed k-mers hit many places and
  // overflow; the aligner must not emit arbitrary wrong placements (it may
  // emit nothing).
  std::mt19937_64 rng(51);
  const auto unit = sim::random_dna(200, rng);
  std::string genome_seq;
  for (int i = 0; i < 20; ++i) genome_seq += unit;
  dbg::Contig c;
  c.id = 0;
  c.seq = genome_seq;

  pgas::ThreadTeam team(pgas::Topology{2, 2});
  ContigStore store(team);
  AlignerConfig ac;
  ac.seed_k = 21;
  MerAligner aligner(team, ac, 5000);
  seq::ReadStore reads;
  seq::Read r;
  r.name = "t:0/0";
  r.seq = unit.substr(50, 100);
  r.quals.assign(100, 'I');
  reads.append(r);
  std::vector<ReadAlignment> all;
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? std::vector<dbg::Contig>{c}
                                     : std::vector<dbg::Contig>{});
    aligner.build_index(rank, store);
    auto result = aligner.align_reads(
        rank, store, rank.is_root() ? reads : seq::ReadStore{}, 0);
    if (rank.is_root()) all = result;
  });
  // Any reported alignment must be a perfect-score placement.
  for (const auto& a : all) EXPECT_EQ(a.score, a.aligned_len());
}

}  // namespace
}  // namespace hipmer::align
