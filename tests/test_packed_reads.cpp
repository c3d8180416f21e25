// PackedReads property tests: 2-bit pack → decode is byte-exact on
// arbitrary inputs (N bases, lowercase, boundary lengths), qual RLE is the
// identity, the packed-word k-mer scanner matches the string scanner, the
// ReadStore accessors agree across representations, the checkpoint codecs
// round-trip, and the packed arena actually delivers the memory reduction
// the bench reports.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "ckpt/artifacts.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/packed_reads.hpp"
#include "seq/read_store.hpp"

namespace hipmer::seq {
namespace {

std::string random_seq(std::mt19937& rng, std::size_t len, double n_rate,
                       double lower_rate) {
  static const char* kBases = "ACGT";
  static const char* kLower = "acgt";
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> base(0, 3);
  std::string s(len, 'A');
  for (auto& c : s) {
    const double u = coin(rng);
    if (u < n_rate)
      c = 'N';
    else if (u < n_rate + lower_rate)
      c = kLower[base(rng)];
    else
      c = kBases[base(rng)];
  }
  return s;
}

std::string random_quals(std::mt19937& rng, std::size_t len) {
  // phred_to_char clamps to '!'..']'; runs of identical scores are the
  // common case RLE exploits, so bias toward runs.
  std::uniform_int_distribution<int> q('!', ']');
  std::uniform_int_distribution<int> run_len(1, 12);
  std::string s;
  while (s.size() < len) {
    const char c = static_cast<char>(q(rng));
    const int n = run_len(rng);
    for (int i = 0; i < n && s.size() < len; ++i) s.push_back(c);
  }
  return s;
}

TEST(PackedReads, RoundTripBoundaryLengths) {
  // Word boundaries (32 bases per u64) and degenerate sizes.
  std::mt19937 rng(99);
  PackedReads arena;
  std::vector<std::string> seqs;
  std::vector<std::string> quals;
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{31},
        std::size_t{32}, std::size_t{33}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{100}, std::size_t{1000}}) {
    seqs.push_back(random_seq(rng, len, 0.05, 0.05));
    quals.push_back(random_quals(rng, len));
    arena.append("r" + std::to_string(len), seqs.back(), quals.back());
  }
  ASSERT_EQ(arena.size(), seqs.size());
  std::string s, q;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    arena.decode_seq(i, s);
    arena.decode_quals(i, q);
    EXPECT_EQ(s, seqs[i]) << "read " << i;
    EXPECT_EQ(q, quals[i]) << "read " << i;
    EXPECT_EQ(arena.length(i), seqs[i].size());
  }
}

TEST(PackedReads, RoundTripRandomReads) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> len(1, 300);
  PackedReads arena;
  std::vector<std::string> seqs;
  std::vector<std::string> quals;
  for (int i = 0; i < 500; ++i) {
    // Sweep exception densities: pure ACGT, sprinkled Ns, N-heavy,
    // lowercase soft-masking.
    const double n_rate = (i % 4 == 0) ? 0.0 : (i % 4 == 1 ? 0.02 : 0.3);
    const double lower_rate = (i % 4 == 3) ? 0.2 : 0.0;
    seqs.push_back(random_seq(rng, len(rng), n_rate, lower_rate));
    quals.push_back(random_quals(rng, seqs.back().size()));
    arena.append("read/" + std::to_string(i), seqs.back(), quals.back());
  }
  std::string s, q;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    arena.decode_seq(i, s);
    arena.decode_quals(i, q);
    ASSERT_EQ(s, seqs[i]) << "read " << i;
    ASSERT_EQ(q, quals[i]) << "read " << i;
    EXPECT_EQ(arena.name(i), "read/" + std::to_string(i));
  }
}

void expect_qual_round_trip(std::string_view quals) {
  std::vector<std::uint8_t> enc;
  encode_quals(quals, enc);
  std::string back;
  decode_quals(enc.data(), enc.size(), quals.size(), back);
  ASSERT_EQ(back, quals);
}

TEST(PackedReads, QualCodecIdentity) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const auto quals = random_quals(
        rng, std::uniform_int_distribution<std::size_t>(0, 600)(rng));
    expect_qual_round_trip(quals);
  }
  // A run longer than 255 must split across RLE pairs, and a constant
  // string must compress.
  const std::string long_run(1000, 'I');
  expect_qual_round_trip(long_run);
  std::vector<std::uint8_t> enc;
  encode_quals(long_run, enc);
  EXPECT_EQ(enc[0], kQualModeRle);
  EXPECT_LT(enc.size(), long_run.size() / 2);

  // i.i.d. qualities in a narrow band — the simulator's model — would
  // EXPAND under RLE; the codec must fall back to 4-bit band packing and
  // still round-trip exactly.
  std::uniform_int_distribution<int> good_qual(30, 41);
  std::string iid(400, '!');
  for (auto& c : iid) c = phred_to_char(good_qual(rng));
  expect_qual_round_trip(iid);
  enc.clear();
  encode_quals(iid, enc);
  EXPECT_EQ(enc[0], kQualModeBand);
  EXPECT_LE(enc.size(), 2 + iid.size() / 2);

  // A full-range high-entropy string fits neither mode: verbatim keeps the
  // worst case bounded at n+1 and still byte-exact.
  std::string wide(301, '!');
  std::uniform_int_distribution<int> any('!', ']');
  for (auto& c : wide) c = static_cast<char>(any(rng));
  expect_qual_round_trip(wide);
  enc.clear();
  encode_quals(wide, enc);
  EXPECT_LE(enc.size(), wide.size() + 1);

  // Degenerate inputs.
  expect_qual_round_trip("");
  expect_qual_round_trip("I");
  expect_qual_round_trip("!]");
}

// Illumina-like profile: high-entropy scores in a ~12-value band plus a
// few '#' floor scores at N positions. The floor chars push max-min past
// 15 (no plain band) and the entropy defeats RLE, so before the outlier
// mode existed these reads paid full verbatim price.
std::string illumina_quals(std::mt19937& rng, std::size_t len,
                           double floor_rate) {
  std::uniform_int_distribution<int> good(30, 41);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::string s(len, '!');
  for (auto& c : s)
    c = coin(rng) < floor_rate ? '#' : phred_to_char(good(rng));
  return s;
}

TEST(PackedReads, QualCodecBandOutlier) {
  std::mt19937 rng(17);
  auto q = illumina_quals(rng, 400, 0.02);
  q[37] = '#';  // guarantee at least one outlier regardless of seed
  expect_qual_round_trip(q);

  std::vector<std::uint8_t> enc;
  encode_quals(q, enc);
  ASSERT_EQ(enc[0], kQualModeBandOutlier);
  // Size is exact: mode + base + u16 count + 3 bytes per outlier + packed
  // nibbles. Every '#' sits outside the chosen window here.
  const auto k = static_cast<std::size_t>(std::count(q.begin(), q.end(), '#'));
  EXPECT_EQ(enc.size(), 4 + 3 * k + (q.size() + 1) / 2);
  EXPECT_LT(enc.size(), q.size());  // strictly beats the old verbatim path

  // Sweep outlier densities, both tails, and boundary lengths.
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> good(30, 41);
  std::uniform_int_distribution<std::size_t> len(0, 700);
  for (int trial = 0; trial < 300; ++trial) {
    const double rate = static_cast<double>(trial % 6) * 0.02;
    std::string s(len(rng), '!');
    for (auto& c : s)
      c = coin(rng) < rate ? (coin(rng) < 0.5 ? '#' : ']')
                           : phred_to_char(good(rng));
    expect_qual_round_trip(s);
  }
}

TEST(PackedReads, QualCodecOutlierEligibility) {
  std::mt19937 rng(19);
  // Within a 16-value range the plain band always costs 2 bytes less than
  // the outlier header, so narrow-band inputs keep their historical
  // encoding byte for byte.
  const auto narrow = illumina_quals(rng, 256, 0.0);
  std::vector<std::uint8_t> enc;
  encode_quals(narrow, enc);
  EXPECT_EQ(enc[0], kQualModeBand);

  // Reads of 64Ki and beyond cannot address outlier positions in u16: the
  // codec must fall back to the original modes and still round-trip.
  auto huge = illumina_quals(rng, 0x10000 + 3, 0.0);
  huge[100] = '#';  // would make the outlier mode win if it were eligible
  enc.clear();
  encode_quals(huge, enc);
  EXPECT_EQ(enc[0], kQualModeVerbatim);
  expect_qual_round_trip(huge);
}

TEST(PackedReads, QualCodecDecodeIsRobustToCorruption) {
  std::mt19937 rng(23);
  auto q = illumina_quals(rng, 200, 0.03);
  q[0] = '#';
  std::vector<std::uint8_t> enc;
  encode_quals(q, enc);
  ASSERT_EQ(enc[0], kQualModeBandOutlier);

  // Every truncation decodes without walking off the buffer and never
  // fabricates more than n characters.
  std::string out;
  for (std::size_t cut = 0; cut <= enc.size(); ++cut) {
    decode_quals(enc.data(), cut, q.size(), out);
    EXPECT_LE(out.size(), q.size()) << "cut " << cut;
  }
  // An outlier count pointing past the payload is rejected outright.
  auto bad = enc;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  decode_quals(bad.data(), bad.size(), q.size(), out);
  EXPECT_TRUE(out.empty());
}

TEST(PackedReads, CodeMatchesBaseToCode) {
  std::mt19937 rng(21);
  PackedReads arena;
  const auto s = random_seq(rng, 200, 0.1, 0.1);
  arena.append("r", s, std::string(s.size(), 'I'));
  const auto view = arena.view(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(view.code(static_cast<std::uint32_t>(i)), base_to_code(s[i]))
        << "pos " << i;
    EXPECT_EQ(view.base(static_cast<std::uint32_t>(i)), s[i]) << "pos " << i;
  }
}

TEST(PackedReads, ScannerMatchesStringScanner) {
  std::mt19937 rng(31);
  PackedReads arena;
  std::vector<std::string> seqs;
  for (int i = 0; i < 50; ++i) {
    seqs.push_back(random_seq(rng, 150, i % 3 == 0 ? 0.05 : 0.0, 0.0));
    arena.append("r", seqs.back(), std::string(seqs.back().size(), 'I'));
  }
  for (const int k : {15, 31}) {
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      KmerScanner<KmerT::kMaxK> packed(arena.view(i), k);
      KmerScanner<KmerT::kMaxK> plain(std::string_view(seqs[i]), k);
      while (!plain.done() && !packed.done()) {
        EXPECT_EQ(packed.position(), plain.position());
        EXPECT_EQ(packed.is_flipped(), plain.is_flipped());
        EXPECT_EQ(packed.canonical(), plain.canonical());
        packed.next();
        plain.next();
      }
      EXPECT_EQ(packed.done(), plain.done()) << "read " << i << " k " << k;
    }
  }
}

TEST(ReadStore, RepresentationsAgree) {
  std::mt19937 rng(41);
  ReadStore packed(true);
  ReadStore plain(false);
  std::vector<Read> originals;
  for (int i = 0; i < 100; ++i) {
    Read r;
    r.name = "lib0:" + std::to_string(i / 2) + "/" + std::to_string(i % 2);
    r.seq = random_seq(rng, 120, 0.02, 0.0);
    r.quals = random_quals(rng, r.seq.size());
    packed.append(r);
    plain.append(r);
    originals.push_back(std::move(r));
  }
  ASSERT_EQ(packed.size(), plain.size());
  std::string s1, s2, q1, q2;
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(packed.name(i), plain.name(i));
    EXPECT_EQ(packed.length(i), plain.length(i));
    EXPECT_EQ(packed.seq(i, s1), plain.seq(i, s2));
    EXPECT_EQ(packed.quals(i, q1), plain.quals(i, q2));
    for (std::uint32_t pos = 0; pos < packed.length(i); pos += 7)
      EXPECT_EQ(packed.code(i, pos), plain.code(i, pos));
  }
  // Materialization returns the original records either way.
  EXPECT_EQ(packed.to_reads(), originals);
  EXPECT_EQ(plain.to_reads(), originals);
}

TEST(ReadStore, CheckpointCodecsRoundTrip) {
  std::mt19937 rng(51);
  std::vector<seq::ReadStore> packed_libs;
  std::vector<seq::ReadStore> plain_libs;
  std::vector<std::vector<Read>> originals(2);
  for (int lib = 0; lib < 2; ++lib) {
    packed_libs.emplace_back(true);
    plain_libs.emplace_back(false);
    for (int i = 0; i < 40; ++i) {
      Read r;
      r.name = "lib" + std::to_string(lib) + ":" + std::to_string(i / 2) + "/" +
               std::to_string(i % 2);
      r.seq = random_seq(rng, 100, 0.03, 0.0);
      r.quals = random_quals(rng, r.seq.size());
      packed_libs[static_cast<std::size_t>(lib)].append(r);
      plain_libs[static_cast<std::size_t>(lib)].append(r);
      originals[static_cast<std::size_t>(lib)].push_back(std::move(r));
    }
  }

  // The shard format follows the stores: packed stores write "RDP1",
  // plain stores write "RDS1", and both decode to the exact records.
  const auto leading_magic = [](const std::vector<std::byte>& bytes) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    return magic;
  };
  const auto packed_bytes = ckpt::encode_reads_shard(packed_libs);
  const auto plain_bytes = ckpt::encode_reads_shard(plain_libs);
  ASSERT_GE(packed_bytes.size(), 4u);
  ASSERT_GE(plain_bytes.size(), 4u);
  EXPECT_EQ(leading_magic(packed_bytes), ckpt::kPackedReadsMagic);
  EXPECT_EQ(leading_magic(plain_bytes), ckpt::kReadsMagic);
  const auto decoded = ckpt::decode_reads_shard(packed_bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, originals);
  const auto plain_decoded = ckpt::decode_reads_shard(plain_bytes);
  ASSERT_TRUE(plain_decoded.has_value());
  EXPECT_EQ(*plain_decoded, originals);

  // And the packed shard is meaningfully smaller.
  EXPECT_LT(packed_bytes.size(), plain_bytes.size() / 2);

  // A shard mixing representations falls back to the string format.
  const std::vector<seq::ReadStore> mixed{packed_libs[0], plain_libs[1]};
  EXPECT_EQ(ckpt::encode_reads_shard(mixed), plain_bytes);
}

// Binned-and-bursty qualities, the model modern basecallers emit (a few
// quantized score levels with long runs).
std::string binned_quals(std::mt19937& rng, std::size_t len) {
  static const char kBins[] = {'#', '-', '8', 'F'};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> bin(0, 3);
  std::string s(len, 'F');
  char cur = kBins[bin(rng)];
  for (auto& c : s) {
    if (coin(rng) < 0.1) cur = kBins[bin(rng)];
    c = cur;
  }
  return s;
}

TEST(ReadStore, PackedMemoryIsAtLeastThreeTimesSmaller) {
  std::mt19937 rng(61);
  ReadStore packed(true);
  ReadStore plain(false);
  for (int i = 0; i < 20000; ++i) {
    Read r;
    r.name = "lib0:" + std::to_string(i / 2) + "/" + std::to_string(i % 2);
    r.seq = random_seq(rng, 150, 0.005, 0.0);
    r.quals = binned_quals(rng, 150);
    packed.append(r);
    plain.append(std::move(r));
  }
  // The pipeline compacts packed arenas after ingest; the plain store is
  // measured as built, which is exactly what the seed pipeline held.
  packed.shrink_to_fit();
  const double ratio = static_cast<double>(plain.memory_bytes()) /
                       static_cast<double>(packed.memory_bytes());
  EXPECT_GE(ratio, 3.0) << "plain=" << plain.memory_bytes()
                        << " packed=" << packed.memory_bytes();
}

}  // namespace
}  // namespace hipmer::seq
