#include "align/sam.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "seq/dna.hpp"
#include "seq/read_name.hpp"

namespace hipmer::align {

std::string sam_header(pgas::Rank& rank, const ContigStore& store) {
  std::ostringstream os;
  os << "@HD\tVN:1.6\tSO:unknown\n";
  for (std::uint64_t id = 0; id < store.num_contigs(); ++id) {
    const std::size_t length = store.read(rank, id).seq.size();
    if (length == 0) continue;
    os << "@SQ\tSN:contig_" << id << "\tLN:" << length << '\n';
  }
  os << "@PG\tID:hipmer\tPN:hipmer-meraligner\n";
  return os.str();
}

std::string sam_line(const ReadAlignment& a, const seq::Read& read) {
  std::ostringstream os;
  // FLAG: paired (0x1) + mate number (0x40/0x80) + reverse strand (0x10).
  int flag = 0x1 | (a.mate == 0 ? 0x40 : 0x80);
  if (!a.read_fwd) flag |= 0x10;

  // CIGAR in the read's alignment orientation: leading soft clip, match
  // block, trailing soft clip.
  const std::int32_t lead = a.read_fwd ? a.read_start : a.read_len - a.read_end;
  const std::int32_t match = a.aligned_len();
  const std::int32_t tail = a.read_len - lead - match;
  std::ostringstream cigar;
  if (lead > 0) cigar << lead << 'S';
  cigar << match << 'M';
  if (tail > 0) cigar << tail << 'S';

  const std::string seq_out =
      a.read_fwd ? read.seq : seq::revcomp(read.seq);
  std::string qual_out = read.quals;
  if (!a.read_fwd) std::reverse(qual_out.begin(), qual_out.end());

  os << read.name << '\t' << flag << '\t' << "contig_" << a.contig_id << '\t'
     << (a.contig_start + 1) << '\t'  // SAM POS is 1-based
     << 60 << '\t' << cigar.str() << "\t*\t0\t0\t" << seq_out << '\t'
     << qual_out << "\tAS:i:" << a.score;
  return os.str();
}

bool write_sam(pgas::Rank& rank, const ContigStore& store,
               const std::vector<ReadAlignment>& alignments,
               const std::vector<seq::Read>& reads, const std::string& path,
               bool with_header) {
  // Index this rank's reads by (pair, mate).
  std::unordered_map<std::uint64_t, const seq::Read*> by_key;
  by_key.reserve(reads.size());
  for (const auto& read : reads) {
    std::uint64_t pair = 0;
    int mate = 0;
    if (seq::parse_read_name(read.name, pair, mate))
      by_key[pair * 2 + static_cast<std::uint64_t>(mate)] = &read;
  }
  std::ofstream out(path);
  if (!out) return false;
  if (with_header) out << sam_header(rank, store);
  for (const auto& a : alignments) {
    auto it = by_key.find(a.pair_id * 2 + static_cast<std::uint64_t>(a.mate));
    if (it == by_key.end()) continue;
    out << sam_line(a, *it->second) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace hipmer::align
