#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/wire.hpp"

/// Wire formats of the DistHashMap remote paths — store and lookup batches
/// and the lookup reply; a remote find() travels as a one-request lookup
/// batch answered by a one-entry reply — extracted from the map template
/// so each codec is a plain annotated free function wirecheck can diff and
/// the schema sweeps can corrupt. A batch is encoded only when its hop is
/// framed (another process, or a chaos-armed or blackholed link); a clean
/// in-process hop applies the batch in place and never reaches these
/// codecs. Encoded payloads ride inside CRC-checked transport envelopes or
/// fabric frames, but still decode through the throwing Reader API: a
/// framing bug upstream surfaces as a clean CorruptError instead of a
/// misparse.
namespace hipmer::pgas::map_wire {

/// One entry of a lookup reply batch: the echoed request tag and key, plus
/// the value when the owner's shard held it.
template <typename K, typename V>
struct LookupReply {
  std::uint64_t tag = 0;
  bool found = false;
  K key{};
  V value{};
};

/// [u32 count][bytes: count * sizeof(Op) memcpy'd ops]
// wire-schema: dhm_batch writer
template <typename Op>
std::vector<std::byte> encode_batch(const std::vector<Op>& ops) {
  static_assert(std::is_trivially_copyable_v<Op>);
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(static_cast<std::uint32_t>(ops.size()));
  w.put_bytes(std::string_view(reinterpret_cast<const char*>(ops.data()),
                               ops.size() * sizeof(Op)));
  return out;
}

/// Inverse of encode_batch. The payload arrived through a CRC-checked
/// envelope, so a mismatch here means a framing bug, not line noise — but
/// it is still validated (and the bytes are memcpy'd into a fresh vector,
/// never reinterpreted in place: the envelope buffer carries no alignment
/// guarantee for Op).
// wire-schema: dhm_batch reader
template <typename Op>
std::vector<Op> decode_batch(const std::byte* data, std::size_t size) {
  static_assert(std::is_trivially_copyable_v<Op>);
  io::wire::Reader r(data, size);
  const auto count = r.get_u32_checked("batch count");
  const auto len = r.get_u32_checked("batch byte length");
  if (static_cast<std::size_t>(len) != count * sizeof(Op) ||
      static_cast<std::size_t>(len) != r.remaining())
    throw io::wire::CorruptError(
        "wire: corrupt: batch length disagrees with op count");
  std::vector<Op> ops(count);
  if (len > 0) r.get_raw(ops.data(), len, "batch ops");
  return ops;
}

/// [u32 count][count x: u64 tag, u8 found, pod K, value iff found]
// wire-schema: dhm_lookup_reply writer
template <typename K, typename V>
std::vector<std::byte> encode_lookup_replies(
    const std::vector<LookupReply<K, V>>& replies) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(static_cast<std::uint32_t>(replies.size()));
  for (const auto& reply : replies) {
    w.put_u64(reply.tag);
    w.put_pod(static_cast<std::uint8_t>(reply.found ? 1 : 0));
    w.put_pod(reply.key);  // wire: pod K
    if (reply.found) {
      w.put_pod(reply.value);  // wire: pod V
    }
  }
  return out;
}

// wire-schema: dhm_lookup_reply reader
template <typename K, typename V>
std::vector<LookupReply<K, V>> decode_lookup_replies(const std::byte* data,
                                                     std::size_t size) {
  io::wire::Reader r(data, size);
  std::vector<LookupReply<K, V>> replies;
  const auto count = r.get_u32_checked("reply count");
  for (std::uint32_t i = 0; i < count; ++i) {
    LookupReply<K, V> reply;
    reply.tag = r.get_u64_checked("reply tag");
    const auto found = r.get_pod_checked<std::uint8_t>("reply found");
    if (found > 1)
      throw io::wire::CorruptError(
          "wire: corrupt: reply found flag is neither 0 nor 1");
    reply.found = found != 0;
    reply.key = r.get_pod_checked<K>("reply key");
    if (reply.found) {
      reply.value = r.get_pod_checked<V>("reply value");
    }
    replies.push_back(reply);
  }
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after lookup replies");
  return replies;
}

}  // namespace hipmer::pgas::map_wire
