#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/parallel_fastq.hpp"
#include "io/wire.hpp"
#include "pgas/thread_team.hpp"
#include "seq/read_name.hpp"
#include "sim/genome_sim.hpp"

namespace hipmer::io {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("hipmer_test_" + std::to_string(std::random_device{}()));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

std::vector<seq::Read> make_reads(int count, int min_len, int max_len,
                                  bool variable_names, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> len_dist(min_len, max_len);
  std::vector<seq::Read> reads;
  for (int i = 0; i < count; ++i) {
    seq::Read r;
    r.name = variable_names
                 ? "lib:" + std::to_string(i) + "/0 extra metadata " +
                       std::string(static_cast<std::size_t>(rng() % 40), 'x')
                 : "r" + std::to_string(i);
    const int len = len_dist(rng);
    r.seq = sim::random_dna(static_cast<std::uint64_t>(len), rng);
    r.quals.assign(static_cast<std::size_t>(len), 'I');
    // Adversarial: some quality strings begin with '@' or '+', the
    // characters the record-boundary detector must not be fooled by.
    if (i % 3 == 0) r.quals[0] = '@';
    if (i % 5 == 0) r.quals[0] = '+';
    reads.push_back(std::move(r));
  }
  return reads;
}

TEST(Fastq, WriteReadRoundTrip) {
  TempDir dir;
  const auto reads = make_reads(100, 50, 150, true, 1);
  const auto path = dir.file("a.fastq");
  ASSERT_TRUE(write_fastq(path, reads));
  const auto back = read_fastq(path);
  ASSERT_EQ(back.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(back[i].name, reads[i].name);
    EXPECT_EQ(back[i].seq, reads[i].seq);
    EXPECT_EQ(back[i].quals, reads[i].quals);
  }
}

TEST(Fastq, ParseRejectsMalformed) {
  EXPECT_THROW(parse_fastq("not a fastq\n"), std::runtime_error);
  EXPECT_THROW(parse_fastq("@r1\nACGT\n"), std::runtime_error);  // truncated
  EXPECT_THROW(parse_fastq("@r1\nACGT\nX\nIIII\n"), std::runtime_error);  // bad +
  EXPECT_THROW(parse_fastq("@r1\nACGT\n+\nIII\n"), std::runtime_error);  // len mismatch
  EXPECT_TRUE(parse_fastq("").empty());
}

TEST(Fasta, WriteReadRoundTripWithWrapping) {
  TempDir dir;
  std::mt19937_64 rng(3);
  std::vector<FastaRecord> records;
  for (int i = 0; i < 10; ++i)
    records.push_back(
        {"seq" + std::to_string(i), sim::random_dna(37 + static_cast<std::uint64_t>(i) * 91, rng)});
  const auto path = dir.file("a.fasta");
  ASSERT_TRUE(write_fasta(path, records, 60));
  const auto back = read_fasta(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].name, records[i].name);
    EXPECT_EQ(back[i].seq, records[i].seq);
  }
}

class ParallelFastqParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelFastqParam, UnionOverRanksIsExactlyTheFile) {
  const auto [nranks, num_reads] = GetParam();
  TempDir dir;
  // Variable-length reads and names; adversarial quality first-chars.
  const auto reads = make_reads(num_reads, 30, 180, true, 7);
  const auto path = dir.file("p.fastq");
  ASSERT_TRUE(write_fastq(path, reads));

  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  // Small block size to force multi-block assembly paths.
  ParallelFastqReader reader(path, /*block_size=*/1024);
  std::vector<seq::ReadStore> by_rank(static_cast<std::size_t>(nranks));
  team.run([&](pgas::Rank& rank) {
    reader.read_my_records(rank, by_rank[static_cast<std::size_t>(rank.id())]);
  });

  // Concatenation in rank order must equal the file exactly: no loss, no
  // duplication, order preserved.
  std::vector<seq::Read> combined;
  for (const auto& part : by_rank) {
    const auto records = part.to_reads();
    combined.insert(combined.end(), records.begin(), records.end());
  }
  ASSERT_EQ(combined.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(combined[i].name, reads[i].name) << i;
    EXPECT_EQ(combined[i].seq, reads[i].seq) << i;
    EXPECT_EQ(combined[i].quals, reads[i].quals) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSizes, ParallelFastqParam,
    ::testing::Values(std::make_tuple(1, 50), std::make_tuple(2, 50),
                      std::make_tuple(3, 101), std::make_tuple(4, 400),
                      std::make_tuple(7, 1000), std::make_tuple(16, 37),
                      std::make_tuple(8, 8), std::make_tuple(8, 3)));

TEST(ParallelFastq, MatesOfAPairShareARank) {
  TempDir dir;
  // Interleaved pairs named "<lib>:<pair>/<mate>" with variable lengths, so
  // nominal split points land anywhere, between mates included.
  auto reads = make_reads(2 * 301, 30, 180, false, 17);
  for (std::size_t i = 0; i < reads.size(); ++i)
    reads[i].name = "pe:" + std::to_string(i / 2) + "/" + std::to_string(i % 2);
  const auto path = dir.file("pairs.fastq");
  ASSERT_TRUE(write_fastq(path, reads));
  for (const int nranks : {2, 3, 4, 7, 16}) {
    pgas::ThreadTeam team(pgas::Topology{nranks, 2});
    ParallelFastqReader reader(path, /*block_size=*/1024);
    std::vector<seq::ReadStore> by_rank(static_cast<std::size_t>(nranks));
    team.run([&](pgas::Rank& rank) {
      reader.read_my_records(rank, by_rank[static_cast<std::size_t>(rank.id())]);
    });
    std::size_t total = 0;
    for (const auto& part : by_rank) {
      ASSERT_EQ(part.size() % 2, 0u) << nranks << " ranks";
      for (std::size_t i = 0; i < part.size(); i += 2) {
        std::uint64_t pair0 = 0, pair1 = 0;
        int mate0 = -1, mate1 = -1;
        ASSERT_TRUE(seq::parse_read_name(part.name(i), pair0, mate0));
        ASSERT_TRUE(seq::parse_read_name(part.name(i + 1), pair1, mate1));
        EXPECT_EQ(pair0, pair1);
        EXPECT_EQ(mate0, 0);
        EXPECT_EQ(mate1, 1);
      }
      total += part.size();
    }
    EXPECT_EQ(total, reads.size());
  }
}

TEST(ParallelFastq, ChargesIoBytes) {
  TempDir dir;
  const auto reads = make_reads(200, 80, 120, false, 11);
  const auto path = dir.file("io.fastq");
  ASSERT_TRUE(write_fastq(path, reads));
  pgas::ThreadTeam team(pgas::Topology{4, 2});
  ParallelFastqReader reader(path);
  std::vector<seq::ReadStore> by_rank(4);
  team.run([&](pgas::Rank& rank) {
    reader.read_my_records(rank, by_rank[static_cast<std::size_t>(rank.id())]);
  });
  const auto stats = team.snapshot_all();
  std::uint64_t total_io = 0;
  for (const auto& s : stats) total_io += s.io_read_bytes;
  EXPECT_EQ(total_io, reader.file_size());
}

TEST(ParallelFastq, SamplingEstimatesRecordLength) {
  TempDir dir;
  const auto reads = make_reads(500, 100, 100, false, 13);
  const auto path = dir.file("s.fastq");
  ASSERT_TRUE(write_fastq(path, reads));
  ParallelFastqReader reader(path);
  const double avg = reader.sample_record_length(0, 256);
  // Fixed-length 100bp reads with short names: record is ~210 bytes.
  EXPECT_GT(avg, 150.0);
  EXPECT_LT(avg, 260.0);
}

TEST(ParallelFastq, BoundaryDetectionIgnoresAtSignQuality) {
  TempDir dir;
  // Every quality line starts with '@' — the classic trap.
  std::vector<seq::Read> reads;
  for (int i = 0; i < 50; ++i) {
    seq::Read r;
    r.name = "t" + std::to_string(i);
    r.seq = "ACGTACGTACGT";
    r.quals = "@IIIIIIIIIII";
    reads.push_back(std::move(r));
  }
  const auto path = dir.file("trap.fastq");
  ASSERT_TRUE(write_fastq(path, reads));
  ParallelFastqReader reader(path);
  // Probe a few interior offsets: every reported boundary must be a true
  // record start (byte after a newline, '@' + name we wrote).
  const auto full = read_fastq(path);
  ASSERT_EQ(full.size(), 50u);
  for (std::uint64_t off : {10u, 33u, 77u, 150u, 500u}) {
    const std::uint64_t b = reader.next_record_boundary(off);
    ASSERT_LT(b, reader.file_size());
    // Check alignment by reading from the boundary with the serial parser.
    pgas::ThreadTeam team(pgas::Topology{1, 1});
    // (Use the low-level check: the byte at b must begin "@t".)
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(b));
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line.rfind("@t", 0), 0u) << "offset " << off << " boundary " << b;
  }
}

// ---- wire framing ----

TEST(Wire, PodAndBytesRoundTrip) {
  std::vector<std::byte> buf;
  wire::Writer w(buf);
  w.put_u32(0xdeadbeef);
  w.put_u64(1ull << 40);
  struct Pod {
    double d;
    std::int16_t s;
  } pod{3.25, -7};
  w.put_pod(pod);
  w.put_bytes("hello");
  w.put_bytes("");  // zero-length field is legal

  wire::Reader r(buf);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 1ull << 40);
  const auto back = r.get_pod<Pod>();
  EXPECT_EQ(back.d, 3.25);
  EXPECT_EQ(back.s, -7);
  EXPECT_EQ(r.get_bytes(), "hello");
  EXPECT_EQ(r.get_bytes(), "");
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.truncated());
}

TEST(Wire, PayloadsMayContainAnyByte) {
  // The newline-framed serializers this layer replaced could not carry
  // newlines (or NULs) inside a field; length prefixes can.
  std::vector<std::byte> buf;
  wire::Writer w(buf);
  const std::string nasty("line1\nline2\0@+\n", 15);
  w.put_bytes(nasty);
  w.put_bytes("\n\n\n");
  wire::Reader r(buf);
  EXPECT_EQ(r.get_bytes(), nasty);
  EXPECT_EQ(r.get_bytes(), "\n\n\n");
  EXPECT_TRUE(r.done());
}

TEST(Wire, ReadRecordsConcatenateAndRoundTrip) {
  // Streams from different senders concatenate without sentinels — the
  // alltoallv receive path parses sender boundaries implicitly.
  std::vector<std::byte> buf;
  wire::Writer w(buf);
  const auto reads = make_reads(17, 20, 80, true, 424242);
  for (const auto& read : reads) wire::put_read(w, read);

  std::vector<seq::Read> out;
  ASSERT_TRUE(wire::get_reads(buf, out));
  ASSERT_EQ(out.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(out[i].name, reads[i].name);
    EXPECT_EQ(out[i].seq, reads[i].seq);
    EXPECT_EQ(out[i].quals, reads[i].quals);
  }
}

TEST(Wire, TruncatedStreamIsDetectedNotMisparsed) {
  std::vector<std::byte> buf;
  wire::Writer w(buf);
  seq::Read read;
  read.name = "r1";
  read.seq = "ACGTACGT";
  read.quals = "IIIIIIII";
  wire::put_read(w, read);
  wire::put_read(w, read);

  // Chop the buffer at every possible point: the first record either
  // parses whole or the truncation flag trips — never a corrupt record.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::byte> partial(buf.begin(),
                                   buf.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<seq::Read> out;
    const bool ok = wire::get_reads(partial, out);
    if (ok) {
      for (const auto& r : out) {
        EXPECT_EQ(r.name, read.name);
        EXPECT_EQ(r.seq, read.seq);
        EXPECT_EQ(r.quals, read.quals);
      }
    } else {
      EXPECT_LT(out.size(), 2u);
    }
  }
  std::vector<seq::Read> out;
  EXPECT_TRUE(wire::get_reads(buf, out));
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace hipmer::io
