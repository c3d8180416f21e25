// SAM emission and UFX checkpoint round-trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "align/sam.hpp"
#include "kcount/kmer_analysis.hpp"
#include "kcount/ufx_io.hpp"
#include "seq/dna.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace hipmer {
namespace {

namespace fs = std::filesystem;

TEST(Sam, LineFormatForwardAndReverse) {
  seq::Read read;
  read.name = "lib:7/0";
  read.seq = "ACGTACGTAC";
  read.quals = "IIIIIIIIII";

  align::ReadAlignment a;
  a.pair_id = 7;
  a.mate = 0;
  a.contig_id = 3;
  a.contig_len = 500;
  a.contig_start = 99;
  a.contig_end = 107;
  a.read_start = 1;
  a.read_end = 9;
  a.read_len = 10;
  a.read_fwd = true;
  a.score = 8;

  const auto fwd = align::sam_line(a, read);
  std::istringstream is(fwd);
  std::string qname, rname, cigar, rnext, seqf;
  int flag = 0, pos = 0, mapq = 0, pnext = 0, tlen = 0;
  is >> qname >> flag >> rname >> pos >> mapq >> cigar >> rnext >> pnext >>
      tlen >> seqf;
  EXPECT_EQ(qname, "lib:7/0");
  EXPECT_EQ(flag, 0x1 | 0x40);
  EXPECT_EQ(rname, "contig_3");
  EXPECT_EQ(pos, 100);  // 1-based
  EXPECT_EQ(cigar, "1S8M1S");
  EXPECT_EQ(seqf, read.seq);

  a.read_fwd = false;
  a.mate = 1;
  const auto rev = align::sam_line(a, read);
  std::istringstream is2(rev);
  is2 >> qname >> flag >> rname >> pos >> mapq >> cigar >> rnext >> pnext >>
      tlen >> seqf;
  EXPECT_EQ(flag, 0x1 | 0x80 | 0x10);
  EXPECT_EQ(seqf, seq::revcomp(read.seq));
}

TEST(Sam, WriteFileWithHeader) {
  pgas::ThreadTeam team(pgas::Topology{2, 2});
  align::ContigStore store(team);
  std::mt19937_64 rng(77);
  dbg::Contig c;
  c.id = 0;
  c.seq = sim::random_dna(300, rng);

  seq::Read read;
  read.name = "lib:0/0";
  read.seq = c.seq.substr(50, 80);
  read.quals.assign(80, 'I');
  align::ReadAlignment a;
  a.pair_id = 0;
  a.mate = 0;
  a.contig_id = 0;
  a.contig_len = 300;
  a.contig_start = 50;
  a.contig_end = 130;
  a.read_start = 0;
  a.read_end = 80;
  a.read_len = 80;
  a.read_fwd = true;
  a.score = 80;

  const auto dir = fs::temp_directory_path() /
                   ("hipmer_sam_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  const auto path = (dir / "out.sam").string();
  team.run([&](pgas::Rank& rank) {
    store.build(rank, rank.is_root() ? std::vector<dbg::Contig>{c}
                                     : std::vector<dbg::Contig>{});
    rank.barrier();
    if (rank.is_root()) {
      EXPECT_TRUE(align::write_sam(rank, store, {a}, {read}, path));
    }
  });
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("@SQ\tSN:contig_0\tLN:300"), std::string::npos);
  EXPECT_NE(text.find("80M"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Ufx, ShardRoundTripAcrossTeamSizes) {
  // Produce a real UFX set, write with 4 ranks, reload with 3.
  sim::GenomeConfig gc;
  gc.length = 20'000;
  gc.seed = 88;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 80;
  lc.coverage = 10.0;
  lc.error_rate = 0.0;
  lc.seed = 89;
  const auto reads = sim::simulate_library(genome, lc);

  const auto dir = fs::temp_directory_path() /
                   ("hipmer_ufx_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  const auto path = (dir / "spectrum.ufx").string();

  std::map<std::string, std::pair<std::uint32_t, std::string>> written;
  {
    pgas::ThreadTeam team(pgas::Topology{4, 2});
    kcount::KmerAnalysisConfig cfg;
    cfg.k = 21;
    kcount::KmerAnalysis ka(team, cfg);
    team.run([&](pgas::Rank& rank) {
      seq::ReadStore mine;
      for (std::size_t i = static_cast<std::size_t>(rank.id());
           i < reads.size(); i += 4)
        mine.append(reads[i]);
      ka.run(rank, {mine});
      EXPECT_TRUE(kcount::write_ufx_shard(rank, path, ka.ufx(rank.id())));
    });
    for (int r = 0; r < 4; ++r)
      for (const auto& [km, s] : ka.ufx(r))
        written[km.to_string()] = {s.depth,
                                   std::string{s.left_ext, s.right_ext}};
  }
  ASSERT_GT(written.size(), 10'000u);

  std::map<std::string, std::pair<std::uint32_t, std::string>> loaded;
  {
    pgas::ThreadTeam team(pgas::Topology{3, 2});
    std::mutex mu;
    team.run([&](pgas::Rank& rank) {
      const auto mine = kcount::read_ufx_shards(rank, path, 4);
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [km, s] : mine)
        loaded[km.to_string()] = {s.depth,
                                  std::string{s.left_ext, s.right_ext}};
    });
  }
  EXPECT_EQ(loaded, written);
  fs::remove_all(dir);
}

TEST(Ufx, RejectsMalformedLines) {
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_ufxbad_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  const auto path = (dir / "bad.ufx").string();
  std::ofstream out(path + ".0");
  out << "ACGTACGT\t5\tAC\n";
  out << "not a ufx line\n";
  out.close();
  EXPECT_THROW(kcount::read_ufx_shard(path, 0), std::runtime_error);
  EXPECT_THROW(kcount::read_ufx_shard(path, 1), std::runtime_error);  // absent
  fs::remove_all(dir);
}

TEST(Ufx, TruncationAtEveryOffsetNeverYieldsGarbage) {
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_ufxtrunc_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  const auto path = (dir / "trunc.ufx").string();

  std::vector<kcount::UfxRecord> records;
  for (int i = 0; i < 6; ++i) {
    kcount::KmerSummary s;
    s.depth = static_cast<std::uint32_t>(100 + 37 * i);  // multi-digit counts
    s.left_ext = "ACGTFA"[i];
    s.right_ext = "TGCAXT"[i];
    std::string km;
    for (int j = 0; j < 21; ++j) km += "ACGT"[(i + j) % 4];
    records.emplace_back(seq::KmerT::from_string(km), s);
  }
  {
    pgas::ThreadTeam team(pgas::Topology{1, 1});
    team.run([&](pgas::Rank& rank) {
      ASSERT_TRUE(kcount::write_ufx_shard(rank, path, records));
    });
  }
  // Atomic rename left no temp file behind.
  EXPECT_FALSE(fs::exists(path + ".0.tmp"));

  std::ifstream in(path + ".0", std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(full.empty());

  // A shard cut at any byte offset must load as a strict prefix of the
  // written records or throw — never misparse into different records.
  for (std::size_t len = 0; len <= full.size(); ++len) {
    std::ofstream out(path + ".0", std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    std::vector<kcount::UfxRecord> loaded;
    try {
      loaded = kcount::read_ufx_shard(path, 0);
    } catch (const std::runtime_error&) {
      continue;  // detected — fine
    }
    ASSERT_LE(loaded.size(), records.size()) << "len " << len;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_EQ(loaded[i].first, records[i].first) << "len " << len;
      EXPECT_EQ(loaded[i].second.depth, records[i].second.depth)
          << "len " << len;
      EXPECT_EQ(loaded[i].second.left_ext, records[i].second.left_ext);
      EXPECT_EQ(loaded[i].second.right_ext, records[i].second.right_ext);
    }
  }
  fs::remove_all(dir);
}

TEST(Ufx, ReadChargesActualFileBytes) {
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_ufxio_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  const auto path = (dir / "io.ufx").string();

  std::vector<kcount::UfxRecord> records;
  kcount::KmerSummary s;
  s.depth = 12345;  // 5 digits: record bytes != k + 8
  s.left_ext = 'A';
  s.right_ext = 'T';
  records.emplace_back(seq::KmerT::from_string(std::string(21, 'A')), s);

  pgas::ThreadTeam team(pgas::Topology{2, 1});
  team.run([&](pgas::Rank& rank) {
    ASSERT_TRUE(kcount::write_ufx_shard(rank, path, records));
    rank.barrier();
    const auto mine = kcount::read_ufx_shards(rank, path, 2);
    EXPECT_EQ(mine.size(), 1u);
  });
  const auto file_bytes = fs::file_size(path + ".0") + fs::file_size(path + ".1");
  const auto stats = team.snapshot_all();
  std::uint64_t read_bytes = 0, write_bytes = 0;
  for (const auto& st : stats) {
    read_bytes += st.io_read_bytes;
    write_bytes += st.io_write_bytes;
  }
  // Symmetric accounting: reads charge exactly what the writers wrote —
  // the real on-disk size, not a per-record estimate.
  EXPECT_EQ(read_bytes, file_bytes);
  EXPECT_EQ(write_bytes, file_bytes);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hipmer
