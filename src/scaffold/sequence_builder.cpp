#include "scaffold/sequence_builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>

#include "seq/dna.hpp"

namespace hipmer::scaffold {

namespace {

/// Flat wire form for replicating closures and finished scaffold records.
void put_u64(std::vector<std::byte>& buf, std::uint64_t v) {
  const std::size_t old = buf.size();
  buf.resize(old + sizeof v);
  std::memcpy(buf.data() + old, &v, sizeof v);
}

void put_string(std::vector<std::byte>& buf, const std::string& s) {
  put_u64(buf, s.size());
  const std::size_t old = buf.size();
  buf.resize(old + s.size());
  std::memcpy(buf.data() + old, s.data(), s.size());
}

std::uint64_t get_u64(const std::vector<std::byte>& buf, std::size_t& pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof v);
  pos += sizeof v;
  return v;
}

std::string get_string(const std::vector<std::byte>& buf, std::size_t& pos) {
  const std::uint64_t len = get_u64(buf, pos);
  std::string s(reinterpret_cast<const char*>(buf.data() + pos), len);
  pos += len;
  return s;
}

}  // namespace

std::vector<io::FastaRecord> build_scaffold_sequences(
    pgas::Rank& rank, const std::vector<ScaffoldRecord>& scaffolds,
    const align::ContigStore& store, const std::vector<GapSpec>& gaps,
    const std::vector<Closure>& my_closures, ScaffoldStats* stats) {
  const auto p = static_cast<std::uint64_t>(rank.nranks());

  // Replicate closures (small: one fill string per closed gap).
  std::vector<std::byte> closure_blob;
  for (const auto& c : my_closures) {
    put_u64(closure_blob, c.gap_id);
    put_u64(closure_blob, (c.closed ? 1u : 0u) |
                              (static_cast<std::uint64_t>(c.method) << 8));
    put_string(closure_blob, c.fill);
  }
  const auto all_closures_blob = rank.allgatherv(closure_blob);
  std::unordered_map<std::uint64_t, Closure> closures;
  {
    std::size_t pos = 0;
    while (pos < all_closures_blob.size()) {
      Closure c;
      c.gap_id = get_u64(all_closures_blob, pos);
      const std::uint64_t flags = get_u64(all_closures_blob, pos);
      c.closed = (flags & 1) != 0;
      c.method = static_cast<char>((flags >> 8) & 0xff);
      c.fill = get_string(all_closures_blob, pos);
      closures[c.gap_id] = std::move(c);
    }
  }

  // (scaffold, junction) -> gap id.
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> gap_index;
  for (const auto& gap : gaps)
    gap_index[{gap.scaffold_id, gap.junction}] = gap.gap_id;

  ScaffoldStats local_stats;
  local_stats.gaps_total = gaps.size();

  // Assemble owned scaffolds.
  std::vector<std::byte> record_blob;
  for (const auto& scaffold : scaffolds) {
    if (scaffold.id % p != static_cast<std::uint64_t>(rank.id())) continue;
    std::string sequence;
    for (std::size_t i = 0; i < scaffold.placements.size(); ++i) {
      const auto& placement = scaffold.placements[i];
      std::string part = store.read(rank, placement.contig).seq;
      if (placement.reversed) part = seq::revcomp(part);
      rank.stats().add_work();

      if (i == 0) {
        sequence = std::move(part);
        continue;
      }
      const double gap = scaffold.placements[i - 1].gap_after;
      if (gap >= 0.5) {
        auto git = gap_index.find({scaffold.id, static_cast<std::uint32_t>(i - 1)});
        const Closure* closure = nullptr;
        if (git != gap_index.end()) {
          auto cit = closures.find(git->second);
          if (cit != closures.end() && cit->second.closed)
            closure = &cit->second;
        }
        if (closure != nullptr) {
          sequence += closure->fill;
          ++local_stats.gaps_closed;
          switch (closure->method) {
            case 'S': ++local_stats.closed_by_span; break;
            case 'W': ++local_stats.closed_by_walk; break;
            case 'P': ++local_stats.closed_by_patch; break;
            default: break;
          }
        } else {
          sequence.append(
              static_cast<std::size_t>(std::max(1.0, std::round(gap))), 'N');
        }
        sequence += part;
      } else {
        // Overlap (splint evidence): verify and merge.
        const auto overlap = static_cast<std::size_t>(
            std::max(0.0, std::round(-gap)));
        if (overlap > 0 && overlap < part.size() &&
            overlap <= sequence.size() &&
            sequence.compare(sequence.size() - overlap, overlap, part, 0,
                             overlap) == 0) {
          sequence.append(part, overlap, part.size() - overlap);
          ++local_stats.overlap_merges;
        } else {
          sequence += 'N';
          sequence += part;
          ++local_stats.overlap_mismatches;
        }
      }
    }
    put_u64(record_blob, scaffold.id);
    put_string(record_blob, sequence);
  }

  // Replicate the finished records.
  const auto all_records = rank.allgatherv(record_blob);
  std::vector<io::FastaRecord> records;
  {
    std::size_t pos = 0;
    while (pos < all_records.size()) {
      const std::uint64_t id = get_u64(all_records, pos);
      io::FastaRecord rec;
      rec.name = "scaffold_" + std::to_string(id);
      rec.seq = get_string(all_records, pos);
      records.push_back(std::move(rec));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const io::FastaRecord& a, const io::FastaRecord& b) {
              return a.name.size() != b.name.size() ? a.name.size() < b.name.size()
                                                    : a.name < b.name;
            });

  // Always run the reductions so collective participation is identical on
  // every rank regardless of who passes a stats pointer.
  ScaffoldStats global;
  global.gaps_total = local_stats.gaps_total;
  global.gaps_closed = rank.allreduce_sum(local_stats.gaps_closed);
  global.closed_by_span = rank.allreduce_sum(local_stats.closed_by_span);
  global.closed_by_walk = rank.allreduce_sum(local_stats.closed_by_walk);
  global.closed_by_patch = rank.allreduce_sum(local_stats.closed_by_patch);
  global.overlap_merges = rank.allreduce_sum(local_stats.overlap_merges);
  global.overlap_mismatches =
      rank.allreduce_sum(local_stats.overlap_mismatches);
  if (stats != nullptr) *stats = global;
  return records;
}

}  // namespace hipmer::scaffold
