#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// Wire formats of the socket fabric, split from the fabric machinery so
/// every codec is a plain annotated free function (wirecheck extracts and
/// diffs writer/reader pairs; tests/test_wire_schemas.cpp sweeps each one
/// with byte flips and truncation).
///
/// Two layers:
///   - the framed envelope every byte on a fabric socket travels in
///     (`Frame` + encode_frame/decode_frame, crc32c-protected), and
///   - the synchronization message payloads that ride inside frames
///     (roster, barrier collect/release, serial release, barrier record).
/// Payload codecs decode post-CRC bytes, but still use the throwing Reader
/// API: a router bug or a version-skewed peer produces a clean CorruptError
/// (peer declared down) instead of a misparse.
namespace hipmer::pgas {

/// One fabric frame. Wire layout (io::wire framing, crc32c like the
/// transport envelope):
///   [u32 magic][u32 kind][u32 channel][u32 src][u32 dst]
///   [u32 payload_len][payload][u32 crc32c]
/// `channel` is the transport channel for kData and the service id for
/// kOneway / kRpcReq / kRpcResp; 0 otherwise.
enum class FrameKind : std::uint32_t {
  kHello = 1,       ///< worker -> coordinator: "rank src is connected"
  kRoster,          ///< coordinator -> worker: team size confirmation
  kData,            ///< a framed transport envelope (channel = ChannelId)
  kBarrier,         ///< endpoint -> router: slot publication + arrival
  kRelease,         ///< router -> endpoints: barrier complete, slot updates
  kSerial,          ///< endpoint -> router: serial-context contribution
  kSerialRelease,   ///< router -> endpoints: all P contributions
  kOneway,          ///< fire-and-forget service message (lookup replies)
  kRpcReq,          ///< request to a registered RPC service (find, fetch)
  kRpcResp,         ///< response to the single outstanding RPC
  kRankDown,        ///< src is dead; everyone unwinds via RankKilled
  kBye,             ///< clean shutdown of src's endpoint
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  std::uint32_t channel = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<std::byte> payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x48424146u;  // "FABH"

/// Fixed-size prefix of every frame: magic, kind, channel, src, dst, len.
inline constexpr std::size_t kFrameHeaderBytes = 6 * sizeof(std::uint32_t);

[[nodiscard]] std::vector<std::byte> encode_frame(const Frame& f);
/// Throws io::wire::TruncatedError / CorruptError like decode_envelope.
[[nodiscard]] Frame decode_frame(const std::byte* data, std::size_t size);

// ---- synchronization message payloads --------------------------------------

/// HIPMER_CHECKED barrier record: which collective a rank executed, so the
/// phase checker's mismatched-collective comparison runs across processes.
struct BarrierRecordMsg {
  std::uint32_t kind = 0;
  std::string file;
  std::uint32_t line = 0;
  std::string func;
};

[[nodiscard]] std::vector<std::byte> encode_barrier_record(
    const BarrierRecordMsg& msg);
[[nodiscard]] BarrierRecordMsg decode_barrier_record(
    const std::byte* data, std::size_t size);

/// Endpoint -> router at a barrier: the rank's collective-slot publication
/// (delta-encoded: only when it changed since the last publication) and its
/// optional encoded BarrierRecordMsg.
struct BarrierCollectMsg {
  bool slot_changed = false;
  std::vector<std::byte> slot;    ///< meaningful when slot_changed
  bool has_record = false;
  std::vector<std::byte> record;  ///< encoded BarrierRecordMsg when has_record
};

[[nodiscard]] std::vector<std::byte> encode_barrier_collect(
    const BarrierCollectMsg& msg);
[[nodiscard]] BarrierCollectMsg decode_barrier_collect(
    const std::byte* data, std::size_t size);

/// Router -> endpoints on barrier completion: every slot that changed since
/// the last release, plus (when every endpoint supplied one) the full
/// record set, one encoded BarrierRecordMsg per rank.
struct ReleaseMsg {
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> slots;
  bool records_all = false;
  std::vector<std::vector<std::byte>> records;  ///< size nranks iff records_all
};

[[nodiscard]] std::vector<std::byte> encode_release(const ReleaseMsg& msg);
/// `nranks` bounds the record loop — the count is team state, not wire data.
[[nodiscard]] ReleaseMsg decode_release(const std::byte* data,
                                        std::size_t size, int nranks);

/// Coordinator -> worker roster confirmation (handshake).
[[nodiscard]] std::vector<std::byte> encode_roster(std::uint32_t nranks);
[[nodiscard]] std::uint32_t decode_roster(const std::byte* data,
                                          std::size_t size);

/// Router -> endpoints: all P serial-context contributions, indexed by rank.
[[nodiscard]] std::vector<std::byte> encode_serial_release(
    const std::vector<std::vector<std::byte>>& parts);
[[nodiscard]] std::vector<std::vector<std::byte>> decode_serial_release(
    const std::byte* data, std::size_t size);

}  // namespace hipmer::pgas
