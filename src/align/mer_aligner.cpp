#include "align/mer_aligner.hpp"

#include <algorithm>
#include <cassert>

#include "seq/dna.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/read_name.hpp"

namespace hipmer::align {

using seq::KmerT;

MerAligner::MerAligner(pgas::ThreadTeam& team, AlignerConfig config,
                       std::size_t expected_seed_kmers)
    : team_(team), config_(config) {
  SeedIndex::Config ic;
  ic.global_capacity = std::max<std::size_t>(1024, expected_seed_kmers);
  ic.flush_threshold = config_.flush_threshold;
  index_ = std::make_unique<SeedIndex>(team, ic);
  index_->set_name("align.seed_index");
}

MerAligner::~MerAligner() = default;

void MerAligner::build_index(pgas::Rank& rank, const ContigStore& store) {
  store.for_each_local(rank, [&](std::uint64_t id, const dbg::Contig& contig) {
    for (seq::KmerScanner<KmerT::kMaxK> it(contig.seq, config_.seed_k);
         !it.done(); it.next()) {
      SeedHits entry{};
      entry.count = 1;
      entry.hits[0] = SeedHits::Hit{
          static_cast<std::uint32_t>(id),
          static_cast<std::uint32_t>(it.position()),
          static_cast<std::uint8_t>(it.is_flipped() ? 0 : 1)};
      index_->update_buffered(rank, it.canonical(), entry);
      rank.stats().add_work();
    }
  });
  index_->flush(rank);
  rank.barrier();
}

void MerAligner::extend_one(pgas::Rank& rank, const ContigStore& store,
                            std::string_view read_seq,
                            const std::vector<SeedSlot>& slots,
                            std::size_t begin, std::size_t end,
                            std::uint64_t pair_id, int mate, int library,
                            std::vector<ReadAlignment>& out) {
  const auto read_len = static_cast<std::int32_t>(read_seq.size());

  // --- Seed results -> candidate (contig, diagonal, strand) placements. ---
  std::vector<Candidate> candidates;
  for (std::size_t s = begin; s < end; ++s) {
    const SeedSlot& slot = slots[s];
    if (slot.found == 0 || slot.hits.overflowed != 0) continue;
    if (slot.hits.count > config_.max_seed_hits) continue;
    for (int h = 0; h < slot.hits.count; ++h) {
      const auto& hit = slot.hits.hits[h];
      // Orientation: read k-mer is flipped (vs canonical) iff slot.flipped;
      // contig k-mer is flipped iff !hit.fwd. The read aligns forward to
      // the contig when both flips agree.
      const bool read_fwd = ((slot.flipped != 0) == (hit.fwd == 0));
      std::int32_t shift;
      if (read_fwd) {
        shift = static_cast<std::int32_t>(hit.pos) - slot.pos;
      } else {
        // Reverse-complemented read coordinates: read position p maps to
        // contig position hit.pos + (k - 1) - ... handled by aligning the
        // revcomp'd read; the diagonal is computed against rc coordinates.
        const std::int32_t rc_pos = read_len - config_.seed_k - slot.pos;
        shift = static_cast<std::int32_t>(hit.pos) - rc_pos;
      }
      candidates.push_back(Candidate{hit.contig_id, shift, read_fwd});
    }
  }
  if (candidates.empty()) return;

  // Dedup: nearby shifts on the same contig/strand are one candidate
  // (indels jitter the diagonal by a few bases).
  std::sort(candidates.begin(), candidates.end());
  std::vector<Candidate> merged;
  for (const auto& c : candidates) {
    if (!merged.empty() && merged.back().contig_id == c.contig_id &&
        merged.back().read_fwd == c.read_fwd &&
        c.shift - merged.back().shift <= config_.sw_band) {
      continue;
    }
    merged.push_back(c);
  }

  // --- Extend each candidate against fetched contig sequence. ---
  std::vector<ReadAlignment> found;
  const std::string rc_read = seq::revcomp(read_seq);
  for (const auto& cand : merged) {
    const std::string_view query =
        cand.read_fwd ? read_seq : std::string_view(rc_read);

    // Window on the contig covering the read projection plus slack.
    const std::int32_t pad = config_.sw_band + 4;
    const std::int32_t win_start = std::max<std::int32_t>(0, cand.shift - pad);
    const std::int32_t win_len = read_len + 2 * pad;
    const std::string window =
        store.fetch(rank, cand.contig_id, static_cast<std::uint32_t>(win_start),
                    static_cast<std::uint32_t>(win_len));
    if (window.empty()) continue;
    const auto meta = store.meta(rank, cand.contig_id);
    rank.stats().add_work(static_cast<std::uint64_t>(read_len));

    const std::int32_t local_shift = cand.shift - win_start;
    LocalAlignment aln =
        diagonal_extend(query, window, local_shift, config_.scoring);
    const auto min_score = static_cast<std::int32_t>(
        config_.min_score_fraction * static_cast<double>(read_len));
    if (aln.score < min_score) {
      aln = banded_smith_waterman(query, window, local_shift, config_.sw_band,
                                  config_.scoring);
    }
    if (aln.score < min_score) continue;

    ReadAlignment record;
    record.pair_id = pair_id;
    record.mate = mate;
    record.library = library;
    record.contig_id = cand.contig_id;
    record.contig_len = meta.length;
    record.read_len = read_len;
    record.contig_start = win_start + aln.b_start;
    record.contig_end = win_start + aln.b_end;
    record.read_fwd = cand.read_fwd;
    record.score = aln.score;
    if (cand.read_fwd) {
      record.read_start = aln.a_start;
      record.read_end = aln.a_end;
    } else {
      // Alignment used revcomp coordinates; map back to the original read.
      record.read_start = read_len - aln.a_end;
      record.read_end = read_len - aln.a_start;
    }
    found.push_back(record);
  }

  // Keep the best few; full tie-break so the report order is a pure
  // function of the alignment set.
  std::sort(found.begin(), found.end(),
            [](const ReadAlignment& a, const ReadAlignment& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
              if (a.contig_start != b.contig_start)
                return a.contig_start < b.contig_start;
              return a.read_fwd > b.read_fwd;
            });
  if (static_cast<int>(found.size()) > config_.max_alignments_per_read)
    found.resize(static_cast<std::size_t>(config_.max_alignments_per_read));
  out.insert(out.end(), found.begin(), found.end());
}

std::vector<ReadAlignment> MerAligner::align_reads(pgas::Rank& rank,
                                                   const ContigStore& store,
                                                   const seq::ReadStore& reads,
                                                   int library) {
  std::vector<ReadAlignment> out;
  out.reserve(reads.size());

  // Alignment only reads the seed index, so the whole phase runs under the
  // software read cache; it is torn down before the closing barrier.
  index_->enable_read_cache(rank, config_.read_cache_capacity);

  std::vector<SeedSlot> slots;
  std::vector<std::size_t> slot_begin;  // per chunk read: first slot index
  struct ChunkRead {
    std::size_t read_idx;
    std::uint64_t pair_id;
    int mate;
  };
  std::vector<ChunkRead> chunk;
  std::string seq_scratch;

  auto resolve = [&slots](const KmerT& /*key*/, const SeedHits* value,
                          std::uint64_t tag) {
    if (value != nullptr) {
      slots[static_cast<std::size_t>(tag)].found = 1;
      slots[static_cast<std::size_t>(tag)].hits = *value;
    }
  };

  auto drain_chunk = [&]() {
    if (chunk.empty()) return;
    index_->process_lookups(rank, resolve);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::size_t begin = slot_begin[i];
      const std::size_t end =
          i + 1 < chunk.size() ? slot_begin[i + 1] : slots.size();
      extend_one(rank, store, reads.seq(chunk[i].read_idx, seq_scratch), slots,
                 begin, end, chunk[i].pair_id, chunk[i].mate, library, out);
    }
    chunk.clear();
    slot_begin.clear();
    slots.clear();
  };

  for (std::size_t r = 0; r < reads.size(); ++r) {
    std::uint64_t pair_id = 0;
    int mate = 0;
    if (!seq::parse_read_name(reads.name(r), pair_id, mate)) continue;
    if (static_cast<std::int32_t>(reads.length(r)) < config_.seed_k) continue;

    // Seed pass: sample k-mers and issue batched lookups; the handler may
    // run immediately (local key / cache hit) or at process_lookups.
    slot_begin.push_back(slots.size());
    chunk.push_back(ChunkRead{r, pair_id, mate});
    std::int32_t next_sample = 0;
    for (auto it = reads.scanner<KmerT::kMaxK>(r, config_.seed_k); !it.done();
         it.next()) {
      const auto pos = static_cast<std::int32_t>(it.position());
      if (pos < next_sample) continue;
      next_sample = pos + config_.seed_stride;
      rank.stats().add_work();

      const std::uint64_t tag = slots.size();
      slots.push_back(SeedSlot{static_cast<std::uint32_t>(chunk.size() - 1),
                               pos,
                               static_cast<std::uint8_t>(it.is_flipped()),
                               0,
                               SeedHits{}});
      index_->find_buffered(rank, it.canonical(), tag, resolve);
    }
    if (chunk.size() >= config_.lookup_chunk) drain_chunk();
  }
  drain_chunk();

  index_->disable_read_cache(rank);
  rank.barrier();
  return out;
}

}  // namespace hipmer::align
