#pragma once

#include <vector>

#include "dbg/contig.hpp"
#include "io/wire.hpp"

/// Flat serialization of contigs (used by the
/// traversal's deterministic renumbering, by ContigStore's
/// redistribution and by its remote reads on a multi-process fabric).
/// Framing goes through the shared wire layer: a POD header followed by
/// the length-prefixed sequence.
namespace hipmer::dbg {

struct ContigWireHeader {
  std::uint64_t id;
  float avg_depth;
  char left_term;
  char right_term;
  char left_has_junction;
  char right_has_junction;
  seq::KmerT left_junction;
  seq::KmerT right_junction;
};
static_assert(sizeof(ContigWireHeader) ==
                  16 + 2 * sizeof(seq::KmerT),
              "ContigWireHeader must have no padding: it ships verbatim");

// wire-schema: contig_record writer
inline void serialize_contig(std::vector<std::byte>& buf,
                             const Contig& contig) {
  io::wire::Writer w(buf);
  ContigWireHeader header{};
  header.id = contig.id;
  header.avg_depth = static_cast<float>(contig.avg_depth);
  header.left_term = contig.left.code;
  header.right_term = contig.right.code;
  header.left_has_junction = contig.left.has_junction ? 1 : 0;
  header.right_has_junction = contig.right.has_junction ? 1 : 0;
  header.left_junction = contig.left.junction;
  header.right_junction = contig.right.junction;
  w.put_pod(header);  // wire: pod ContigWireHeader
  w.put_bytes(contig.seq);
}

inline Contig contig_from_header(const ContigWireHeader& header,
                                 std::string seq) {
  Contig contig;
  contig.id = header.id;
  contig.avg_depth = header.avg_depth;
  contig.left.code = header.left_term;
  contig.right.code = header.right_term;
  contig.left.has_junction = header.left_has_junction != 0;
  contig.right.has_junction = header.right_has_junction != 0;
  contig.left.junction = header.left_junction;
  contig.right.junction = header.right_junction;
  contig.seq = std::move(seq);
  return contig;
}

/// Non-throwing single-record decoder for in-process streams (post-CRC
/// transport payloads); check r.truncated() after each call.
// wire-schema: contig_record reader trusted
inline Contig get_contig(io::wire::Reader& r) {
  const auto header = r.get_pod<ContigWireHeader>();
  return contig_from_header(header, r.get_bytes());
}

/// Throwing single-record decoder for disk/socket bytes. Wire booleans are
/// strict 0/1: a has_junction byte of, say, 2 decodes to the same contig a
/// 1 would, so accepting it would make that wire byte partially dead (the
/// corruption sweeps flag exactly this).
// wire-schema: contig_record reader
inline Contig get_contig_checked(io::wire::Reader& r) {
  const auto header = r.get_pod_checked<ContigWireHeader>("contig header");
  if (static_cast<unsigned char>(header.left_has_junction) > 1 ||
      static_cast<unsigned char>(header.right_has_junction) > 1)
    throw io::wire::CorruptError(
        "wire: corrupt: contig has_junction flag is neither 0 nor 1");
  return contig_from_header(header, r.get_bytes_checked("contig seq"));
}

inline std::vector<Contig> deserialize_contigs(
    const std::vector<std::byte>& buf) {
  std::vector<Contig> contigs;
  io::wire::Reader r(buf);
  while (!r.done()) {
    auto contig = get_contig(r);
    if (r.truncated()) break;  // partial trailing record: drop, don't misparse
    contigs.push_back(std::move(contig));
  }
  return contigs;
}

}  // namespace hipmer::dbg
