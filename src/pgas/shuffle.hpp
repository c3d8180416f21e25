#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/wire.hpp"
#include "pgas/aggregating_engine.hpp"
#include "pgas/checked.hpp"
#include "pgas/phase_checker.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/transport.hpp"

/// All-to-all record exchange over the lossy-transport envelope path: the
/// communication substrate of the read shuffle (and any future
/// redistribution stage). Callers hand in opaque byte records addressed to
/// a destination rank; the engine batches them per destination, and each
/// batch is either appended straight to its inbox cell (a clean in-process
/// hop the transport lets the sender claim) or shipped under the usual
/// seq/CRC/retry protocol (so the shuffle survives drop/dup/reorder chaos
/// like every other channel),
/// and `collect()` returns — after a flush + drain + barrier — every
/// record addressed to the calling rank, grouped by source rank in
/// per-link send order. That ordering is deterministic for a fixed send
/// pattern, which the shuffle's byte-identity guarantee builds on.
///
/// Phase discipline: sends are batched stores on this channel's
/// CheckedTable; `collect()` is the phase boundary that flushes and drains
/// before its barrier, so the checker's undrained-at-barrier invariant
/// holds by construction. Construct in a serial context (channel
/// registration is not thread-safe), use inside the SPMD region.
namespace hipmer::pgas {

class ShuffleExchange {
  // Defined ahead of their callers: deliver_from deduces its return type.
  /// Delivery of one batch from `src`: append its framed bytes to
  /// inbox_[dst][src]. Only src's thread (or, across processes, dst's
  /// inbound handler) ever writes that cell and only dst reads it after
  /// the collect barrier, so the grid needs no locks.
  void append_inbox(int src, int dst, const std::byte* data,
                    std::size_t size) {
    auto& stream =
        inbox_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)];
    stream.insert(stream.end(), data, data + size);
  }

  auto deliver_from(int src) {
    return [this, src](int dst, const std::byte* data, std::size_t size) {
      append_inbox(src, dst, data, size);
    };
  }

 public:
  ShuffleExchange(ThreadTeam& team, const std::string& name,
                  std::size_t flush_threshold = 64)
      : team_(&team),
        engine_(static_cast<std::uint32_t>(team.nranks()), flush_threshold),
        inbox_(static_cast<std::size_t>(team.nranks()))
#if defined(HIPMER_CHECKED)
        ,
        checked_(team.checker(), name,
                 [this](int r) {
                   return engine_.pending(r) +
                          team_->transport().pending(r, channel_);
                 },
                 [](int) { return std::size_t{0}; })
#endif
  {
    channel_ = team.transport().open_channel(name + "/records");
    for (auto& row : inbox_)
      row.resize(static_cast<std::size_t>(team.nranks()));
    if (team.multiprocess()) {
      // Inbound batches that crossed the fabric land in the same
      // inbox_[dst][src] cell the threads fabric writes, so collect()'s
      // grouping and ordering are identical on both backends.
      team.transport().set_handler(
          channel_,
          [this](int src, int dst, const std::byte* data, std::size_t size) {
            append_inbox(src, dst, data, size);
          });
    }
  }

  /// Queue one record from `rank` toward `dest`. May flush a full batch
  /// through the transport before returning.
  void send(Rank& rank, int dest, std::vector<std::byte> record
            HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kBatched,
                      to_site(hipmer_site));
#endif
    engine_.enqueue(rank.id(), static_cast<std::uint32_t>(dest),
                    std::move(record),
                    [&](std::uint32_t d, std::vector<std::vector<std::byte>>&
                                             batch) { ship(rank, d, batch); });
  }

  /// Records queued by `rank` that have not yet been delivered.
  [[nodiscard]] std::size_t pending(int rank) const {
    return engine_.pending(rank) + team_->transport().pending(rank, channel_);
  }

  /// Phase boundary: flush + drain this rank's sends, barrier, then return
  /// every record addressed to this rank, grouped by source rank ascending
  /// and in send order within each source. A trailing barrier makes the
  /// exchange reusable for the next round.
  [[nodiscard]] std::vector<std::vector<std::byte>> collect(
      Rank& rank HIPMER_SITE_DEFAULT) {
    const int me = rank.id();
    engine_.flush(me, [&](std::uint32_t d,
                          std::vector<std::vector<std::byte>>& batch) {
      ship(rank, d, batch);
    });
    team_->transport().drain(me, channel_, rank.stats(), deliver_from(me));
    rank.barrier();
#if defined(HIPMER_CHECKED)
    // The read side of the exchange: everything was flushed and drained
    // above, so this must validate as a post-flush batched read.
    checked_.on_lookup(rank.id(), CheckedTable::Path::kBatched,
                       to_site(hipmer_site));
#endif
    std::vector<std::vector<std::byte>> records;
    for (auto& stream : inbox_[static_cast<std::size_t>(me)]) {
      // A stream is whole batches of whole records; a record that runs off
      // the end is a framing bug, so the checked getter throws.
      io::wire::Reader r(stream);
      while (!r.done()) {
        const std::uint32_t len = r.get_u32_checked("shuffle record length");
        r.require(len, "shuffle record");  // before the allocation
        auto& rec = records.emplace_back(len);
        if (len > 0) r.get_raw(rec.data(), len, "shuffle record");
      }
      stream.clear();
      stream.shrink_to_fit();
    }
    rank.barrier();
    return records;
  }

 private:
  /// Encode a batch ([u32 len][bytes] per record) and ship it: straight
  /// into the inbox cell when the transport claims the hop, otherwise as
  /// one framed payload.
  void ship(Rank& rank, std::uint32_t dest,
            std::vector<std::vector<std::byte>>& batch) {
    if (batch.empty()) return;
    std::size_t total = 0;
    for (const auto& rec : batch) total += 4 + rec.size();
    rank.charge_message(static_cast<int>(dest), total, batch.size());
    const int src = rank.id();
    const bool in_place =
        team_->transport().claim_clean_hop(src, static_cast<int>(dest),
                                           channel_);
    std::vector<std::byte> payload;
    std::vector<std::byte>& out =
        in_place ? inbox_[dest][static_cast<std::size_t>(src)] : payload;
    if (!in_place) payload.reserve(total);
    io::wire::Writer w(out);
    for (const auto& rec : batch)
      w.put_bytes(std::string_view(reinterpret_cast<const char*>(rec.data()),
                                   rec.size()));
    if (in_place) return;
    team_->transport().send(src, static_cast<int>(dest), channel_,
                            std::move(payload), rank.stats(),
                            deliver_from(src));
  }

  ThreadTeam* team_;
  Transport::ChannelId channel_ = 0;
  AggregatingEngine<std::vector<std::byte>> engine_;
  /// inbox_[dst][src]: framed record stream awaiting collect().
  std::vector<std::vector<std::vector<std::byte>>> inbox_;
#if defined(HIPMER_CHECKED)
  mutable CheckedTable checked_;
#endif
};

}  // namespace hipmer::pgas
