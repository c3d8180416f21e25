#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

/// Read-name convention: "<library>:<pair_index>/<mate>".
///
/// Mate identity is carried in the name rather than in record order, and
/// the parallel FASTQ reader splits files only before a first mate, so the
/// mates of a pair share a rank. Every producer (simulators) and consumer
/// (reader, aligner, scaffolder) shares this parser.
namespace hipmer::seq {

/// Parse "<lib>:<pair>/<mate>" names. Returns false if the name does not
/// follow the convention.
inline bool parse_read_name(std::string_view name, std::uint64_t& pair_index,
                            int& mate) {
  const std::size_t colon = name.rfind(':');
  const std::size_t slash = name.rfind('/');
  if (colon == std::string_view::npos || slash == std::string_view::npos ||
      slash <= colon + 1 || slash + 1 >= name.size())
    return false;
  const char* first = name.data() + colon + 1;
  const char* last = name.data() + slash;
  auto [ptr, ec] = std::from_chars(first, last, pair_index);
  if (ec != std::errc{} || ptr != last) return false;
  const char m = name[slash + 1];
  if (m != '0' && m != '1') return false;
  mate = m - '0';
  return true;
}

}  // namespace hipmer::seq
