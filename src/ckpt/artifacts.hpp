#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "align/alignment.hpp"
#include "dbg/contig.hpp"
#include "io/fasta.hpp"
#include "kcount/ufx_io.hpp"
#include "scaffold/insert_size.hpp"
#include "scaffold/sequence_builder.hpp"
#include "seq/read.hpp"
#include "seq/read_store.hpp"

/// Binary payloads for the five inter-stage artifacts the pipeline
/// checkpoints: the distributed read set, the k-mer spectrum (UFX), contigs
/// with depths and termination info, read-to-contig alignments, and
/// per-round scaffold state. Framing reuses io/wire.hpp; each payload leads
/// with a magic u32 and record counts, so every decoder can reject a
/// truncated or wrong-type payload instead of misparsing it (the CRC layer
/// in SnapshotStore catches bit flips; these checks catch logic-level
/// mix-ups and make the decoders safe on any byte string).
///
/// One payload = one writer rank's shard. The `reshard_*` helpers remap a
/// decoded shard set onto a resume team of a different size; for the same
/// size they are the identity, so a same-team resume replays the exact
/// distribution the writer had.
namespace hipmer::ckpt {

inline constexpr std::uint32_t kReadsMagic = 0x31534452;   // "RDS1"
inline constexpr std::uint32_t kPackedReadsMagic = 0x31504452;  // "RDP1"
inline constexpr std::uint32_t kUfxMagic = 0x31584655;     // "UFX1"
inline constexpr std::uint32_t kContigsMagic = 0x31475443;  // "CTG1"
// "ALN2": v2 writes ReadAlignment field-wise (align/alignment_wire.hpp)
// instead of a whole-struct put_pod that shipped 7 padding bytes per record.
inline constexpr std::uint32_t kAlignMagic = 0x324e4c41;   // "ALN2"
inline constexpr std::uint32_t kScaffMagic = 0x31464353;   // "SCF1"

// ---- reads: one rank's share of every library ----

/// The shard format follows the stores: packed stores write "RDP1" (2-bit
/// words + exception list + RLE quals per read, roughly 4x smaller than
/// the string shard for typical short-read data), plain stores write
/// "RDS1" (three length-prefixed strings per read). A shard that is empty
/// or mixes representations writes RDS1.
[[nodiscard]] std::vector<std::byte> encode_reads_shard(
    const std::vector<seq::ReadStore>& libs);

/// Decodes either shard flavor (dispatch on the leading magic), so resume
/// works across runs that toggled --packed-reads.
[[nodiscard]] std::optional<std::vector<std::vector<seq::Read>>>
decode_reads_shard(const std::vector<std::byte>& bytes);

/// Remap writer shards ([shard][lib][reads]) onto `p` resume ranks,
/// returning [rank][lib][reads]. Identity when p == shards.size();
/// otherwise pairs (consecutive reads) are enumerated deterministically
/// and dealt by pair key % p, keyed on the read-name pair index when every
/// name parses (so alignments resharded by pair_id land on the same rank —
/// gap closing matches reads to alignments locally).
[[nodiscard]] std::vector<std::vector<std::vector<seq::Read>>> reshard_reads(
    std::vector<std::vector<std::vector<seq::Read>>> shards, int p);

// ---- ufx: one rank's shard of the k-mer spectrum ----

[[nodiscard]] std::vector<std::byte> encode_ufx_shard(
    const std::vector<kcount::UfxRecord>& records);
[[nodiscard]] std::optional<std::vector<kcount::UfxRecord>> decode_ufx_shard(
    const std::vector<std::byte>& bytes);

// ---- contigs (with depths + termination) ----

[[nodiscard]] std::vector<std::byte> encode_contigs_shard(
    const std::vector<const dbg::Contig*>& contigs);
[[nodiscard]] std::optional<std::vector<dbg::Contig>> decode_contigs_shard(
    const std::vector<std::byte>& bytes);

// ---- alignments ----

[[nodiscard]] std::vector<std::byte> encode_alignments_shard(
    const std::vector<align::ReadAlignment>& alignments);
[[nodiscard]] std::optional<std::vector<align::ReadAlignment>>
decode_alignments_shard(const std::vector<std::byte>& bytes);

/// Identity when p == shards.size(); otherwise flatten, sort into a
/// canonical order and deal by pair_id % p (colocating each pair's
/// alignments with its reads under reshard_reads' keying).
[[nodiscard]] std::vector<std::vector<align::ReadAlignment>>
reshard_alignments(std::vector<std::vector<align::ReadAlignment>> shards,
                   int p);

// ---- per-round scaffold state ----

/// Round-level results that ride with the scaffold records so a resumed run
/// reports them without recomputing earlier rounds.
struct ScaffoldExtras {
  scaffold::ScaffoldStats closure_stats{};
  std::vector<scaffold::InsertSizeEstimate> inserts;
};

/// Record i of the round's scaffold set goes to shard i % nshards; shard 0
/// additionally carries the extras.
[[nodiscard]] std::vector<std::byte> encode_scaffolds_shard(
    const std::vector<io::FastaRecord>& records, int shard, int nshards,
    const ScaffoldExtras* extras);

struct ScaffoldShard {
  /// (global record index, record) pairs held by this shard.
  std::vector<std::pair<std::uint64_t, io::FastaRecord>> records;
  std::optional<ScaffoldExtras> extras;
};

[[nodiscard]] std::optional<ScaffoldShard> decode_scaffolds_shard(
    const std::vector<std::byte>& bytes);

/// Reassemble the full record list in global-index order.
[[nodiscard]] std::vector<io::FastaRecord> merge_scaffold_shards(
    std::vector<ScaffoldShard> shards);

}  // namespace hipmer::ckpt
