#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "wire_schema_adapters.hpp"

/// Generated corruption coverage for every schema in
/// tools/wirecheck/schemas.json (the golden manifest wirecheck gates).
///
/// The build generates wire_sweep_manifest.inc from the manifest; the
/// adapters in wire_schema_adapters.hpp supply a pristine sample and a
/// decode-to-fingerprint function per schema. The sweeps then corrupt every
/// byte (two masks) and truncate at every boundary:
///   - kReject (schema carries its own CRC): decode must fail outright;
///   - kDetect (integrity delegated to an outer envelope): decode must fail
///     OR the decoded message's fingerprint must change. A corruption that
///     decodes back to the original message means that wire byte is dead —
///     the class of defect that let the old whole-struct alignment codec
///     ship 7 invisible padding bytes per record.
namespace hipmer::testing {
namespace {

enum class SweepMode { kReject, kDetect };

struct ManifestRow {
  const char* schema;
  SweepMode mode;
};

constexpr ManifestRow kManifest[] = {
#include "wire_sweep_manifest.inc"
};

std::map<std::string, const WireSweepCase*> case_index(
    const std::vector<WireSweepCase>& cases) {
  std::map<std::string, const WireSweepCase*> index;
  for (const auto& c : cases) index[c.schema] = &c;
  return index;
}

/// True when the corrupted buffer is properly handled: rejected, or decoded
/// to a visibly different message.
bool handled(const WireSweepCase& c, SweepMode mode, const Bytes& corrupted,
             const Fingerprint& pristine_fp) {
  const Fingerprint fp = c.decode(corrupted);
  if (!fp) return true;
  if (mode == SweepMode::kReject) return false;  // CRC must catch everything
  return *fp != *pristine_fp;
}

class WireSchemaSweep : public ::testing::Test {
 protected:
  static const std::vector<WireSweepCase>& cases() {
    static const std::vector<WireSweepCase> all = wire_sweep_cases();
    return all;
  }
};

/// The generated manifest and the hand-written adapters must cover each
/// other exactly: annotating a new schema without growing an adapter (or
/// leaving a stale adapter behind) is a test failure, not silent drift.
TEST_F(WireSchemaSweep, ManifestCoversAdaptersExactly) {
  std::set<std::string> manifest_names;
  for (const auto& row : kManifest) manifest_names.insert(row.schema);
  std::set<std::string> adapter_names;
  for (const auto& c : cases()) {
    EXPECT_TRUE(adapter_names.insert(c.schema).second)
        << "duplicate adapter for schema '" << c.schema << "'";
  }
  for (const auto& name : manifest_names) {
    EXPECT_TRUE(adapter_names.count(name))
        << "schema '" << name << "' is in tools/wirecheck/schemas.json but "
        << "has no adapter in tests/wire_schema_adapters.hpp";
  }
  for (const auto& name : adapter_names) {
    EXPECT_TRUE(manifest_names.count(name))
        << "adapter '" << name << "' has no schema in the generated manifest "
        << "(stale adapter, or schemas.json not regenerated)";
  }
}

TEST_F(WireSchemaSweep, PristineSamplesDecode) {
  for (const auto& c : cases()) {
    ASSERT_FALSE(c.bytes.empty()) << c.schema << ": empty sample";
    const Fingerprint fp = c.decode(c.bytes);
    ASSERT_TRUE(fp.has_value()) << c.schema << ": pristine sample rejected";
    // The fingerprint must be reproducible, or the sweeps below would
    // compare corrupted decodes against a moving target.
    const Fingerprint fp2 = c.decode(c.bytes);
    ASSERT_TRUE(fp2.has_value()) << c.schema;
    EXPECT_EQ(*fp, *fp2) << c.schema << ": fingerprint not deterministic";
  }
}

TEST_F(WireSchemaSweep, EverySingleByteFlipIsHandled) {
  const auto index = case_index(cases());
  for (const auto& row : kManifest) {
    const auto it = index.find(row.schema);
    ASSERT_NE(it, index.end()) << row.schema;
    const WireSweepCase& c = *it->second;
    const Fingerprint pristine_fp = c.decode(c.bytes);
    ASSERT_TRUE(pristine_fp.has_value()) << c.schema;
    for (std::size_t i = 0; i < c.bytes.size(); ++i) {
      for (const unsigned mask : {0x01U, 0xFFU}) {
        Bytes corrupted = c.bytes;
        corrupted[i] ^= static_cast<std::byte>(mask);
        EXPECT_TRUE(handled(c, row.mode, corrupted, pristine_fp))
            << c.schema << ": flip of byte " << i << " (mask 0x" << std::hex
            << mask << ") decoded back to the original message — dead wire "
            << "byte or missing validation";
      }
    }
  }
}

TEST_F(WireSchemaSweep, EveryTruncationPointIsHandled) {
  const auto index = case_index(cases());
  for (const auto& row : kManifest) {
    const auto it = index.find(row.schema);
    ASSERT_NE(it, index.end()) << row.schema;
    const WireSweepCase& c = *it->second;
    const Fingerprint pristine_fp = c.decode(c.bytes);
    ASSERT_TRUE(pristine_fp.has_value()) << c.schema;
    for (std::size_t len = 0; len < c.bytes.size(); ++len) {
      const Bytes truncated(c.bytes.begin(),
                            c.bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_TRUE(handled(c, row.mode, truncated, pristine_fp))
          << c.schema << ": truncation to " << len << " of " << c.bytes.size()
          << " bytes decoded as the original message";
    }
  }
}

/// Appending garbage after a complete message must not be invisible either:
/// decoders that own their framing check done(); record codecs get the
/// check from the adapter.
TEST_F(WireSchemaSweep, TrailingGarbageIsHandled) {
  const auto index = case_index(cases());
  for (const auto& row : kManifest) {
    const auto it = index.find(row.schema);
    ASSERT_NE(it, index.end()) << row.schema;
    const WireSweepCase& c = *it->second;
    const Fingerprint pristine_fp = c.decode(c.bytes);
    ASSERT_TRUE(pristine_fp.has_value()) << c.schema;
    Bytes extended = c.bytes;
    extended.push_back(std::byte{0x5A});
    EXPECT_TRUE(handled(c, row.mode, extended, pristine_fp))
        << c.schema << ": one trailing garbage byte went unnoticed";
  }
}

// ---- regressions for defects the schema analysis surfaced ----
//
// Each of these was a corruption the decoders used to accept silently; the
// sweeps above would catch a reintroduction too, but these name the exact
// byte and the exact rule so a failure reads as the bug it is.

/// has_junction bytes of 2..255 used to decode as `true` and re-encode as
/// 1 — a partially dead wire byte. Wire booleans are strict 0/1 now.
TEST(WireSchemaRegression, ContigRejectsNonBooleanJunctionFlag) {
  Bytes buf;
  dbg::serialize_contig(buf, sweep_detail::sample_contig(0));
  // ContigWireHeader: u64 id, f32 depth, 2 term chars, then the two
  // has_junction flag bytes at offsets 14 and 15.
  Bytes corrupt = buf;
  corrupt[14] = std::byte{2};
  io::wire::Reader r(corrupt);
  EXPECT_THROW(dbg::get_contig_checked(r), io::wire::CorruptError);
  io::wire::Reader ok(buf);
  EXPECT_NO_THROW(dbg::get_contig_checked(ok));
}

/// The 2-bit packed tail byte's unused high bits must be zero: the writer
/// zeroes them, so anything else is corruption a round-trip would mask.
TEST(WireSchemaRegression, SeqdbRejectsNonCanonicalPackedTail) {
  seq::Read read = sweep_detail::sample_read(0);
  read.seq.resize(30);  // 30 % 4 == 2: tail byte has 4 dead bits
  read.quals.clear();
  std::string enc;
  io::seqdb_serialize_record(enc, read);
  // Layout: [u32 name_len][u32 seq_len][u8 flags][name][packed seq].
  const std::size_t tail = 9 + read.name.size() + (30 + 3) / 4 - 1;
  ASSERT_EQ(tail + 1, enc.size());
  enc[tail] = static_cast<char>(enc[tail] | 0x40);
  std::size_t pos = 0;
  EXPECT_THROW(io::seqdb_deserialize_record(enc, pos), std::runtime_error);
}

TEST(WireSchemaRegression, SeqdbRejectsUnknownFlagBits) {
  std::string enc;
  io::seqdb_serialize_record(enc, sweep_detail::sample_read(0));
  enc[8] = static_cast<char>(enc[8] | 0x04);
  std::size_t pos = 0;
  EXPECT_THROW(io::seqdb_deserialize_record(enc, pos), std::runtime_error);
}

/// A lookup-reply `found` byte of 2 used to decode as `true`; now every
/// wire boolean is validated at the byte level.
TEST(WireSchemaRegression, LookupReplyRejectsNonBooleanFoundFlag) {
  Bytes buf;
  io::wire::Writer w(buf);
  w.put_u32(1);
  w.put_u64(42);                         // tag
  w.put_pod(std::uint8_t{2});            // found: neither 0 nor 1
  w.put_pod(std::uint64_t{0xAB});        // key
  EXPECT_THROW((pgas::map_wire::decode_lookup_replies<std::uint64_t,
                                                      std::uint32_t>(
                   buf.data(), buf.size())),
               io::wire::CorruptError);
}

}  // namespace
}  // namespace hipmer::testing
