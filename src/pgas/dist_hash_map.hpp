#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/wire.hpp"
#include "pgas/aggregating_engine.hpp"
#include "pgas/checked.hpp"
#include "pgas/map_wire.hpp"
#include "pgas/read_cache.hpp"
#include "pgas/spin_mutex.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/transport.hpp"
#include "util/hash.hpp"

/// Distributed hash table with one-sided access, aggregating stores and
/// aggregated, software-cached lookups.
///
/// "We emphasize that distributed hash tables lie in the heart of HipMer and
/// the main operations on them are irregular lookups" (§7 of the paper).
/// This is that structure. The global key space is sharded across ranks by
/// an *owner mapping* (by default `hash % P`, replaceable by the oracle
/// partitioner of §3.2); each shard is a bucketized hash table owned by one
/// rank but directly readable/writable by every rank — the analogue of UPC
/// one-sided access. Per-bucket spinlocks make concurrent mixed-phase access
/// safe; every operation charges the initiator's communication counters and
/// the owner's service counter so the machine model sees exactly the traffic
/// the paper's optimizations manipulate.
///
/// Two store paths exist, mirroring §4.1's "aggregating stores":
///   - `update()` — one message per element (the naive fine-grained path);
///   - `update_buffered()` + `flush()` — per-destination buffers (the
///     shared AggregatingEngine) that move B elements per message, cutting
///     message count by B on the critical path.
///
/// Two read paths mirror them, per the journal version's aligner
/// optimizations (arXiv:1705.11147):
///   - `find()` — one message per lookup;
///   - `find_buffered()` + `process_lookups()` — lookup requests aggregate
///     per owner and replies arrive through a caller handler, optionally
///     fronted by a per-rank bounded LRU ReadCache (`enable_read_cache`)
///     for read-only phases. The cache self-invalidates across write-phase
///     boundaries via the table's write-version counter.
namespace hipmer::pgas {

/// Default conflict policy: last write wins.
template <typename V>
struct OverwriteMerge {
  void operator()(V& existing, const V& incoming) const { existing = incoming; }
};

/// Owner mapping: (key hash) -> rank. Default is modulo; the oracle
/// partitioner installs a custom one.
using RankMapper = std::function<std::uint32_t(std::uint64_t hash)>;

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Merge = OverwriteMerge<V>>
class DistHashMap {
 public:
  struct Config {
    /// Expected number of distinct keys across all ranks; controls bucket
    /// count (shards never rehash — overflow chains absorb misestimates,
    /// exactly as HipMer sizes tables from the cardinality estimate).
    std::size_t global_capacity = 1024;
    /// Elements buffered per destination before a flush ("aggregating
    /// stores" batch size; also the batch size of the aggregated lookup
    /// path).
    std::size_t flush_threshold = 512;
  };

  DistHashMap(ThreadTeam& team, Config cfg)
      : team_(&team),
        cfg_(cfg),
        nranks_(static_cast<std::uint32_t>(team.nranks())),
        shards_(static_cast<std::size_t>(team.nranks())),
        store_engine_(nranks_, cfg.flush_threshold),
        lookup_engine_(nranks_, cfg.flush_threshold),
        // The table's two wire channels: batched traffic travels through
        // the lossy-transport layer (per-channel chaos overrides key off
        // these names; set_name refines them). Opened before checked_
        // registers, since other ranks' barrier checks may then read them.
        store_channel_(team.transport().open_channel("DistHashMap/store")),
        lookup_channel_(team.transport().open_channel("DistHashMap/lookup")),
        caches_(static_cast<std::size_t>(team.nranks()))
#if defined(HIPMER_CHECKED)
        ,
        checked_(team.checker(), "DistHashMap",
                 [this](int r) { return pending_store_ops(r); },
                 [this](int r) { return pending_lookups(r); })
#endif
  {
    if (team.multiprocess()) {
      // Inbound store batches: the same apply a local hop runs, charged
      // to this process's mirror of the initiator's counters.
      team.transport().set_handler(
          store_channel_,
          [this](int src, int dst, const std::byte* data, std::size_t size) {
            Rank initiator(*team_, src);
            apply_store_envelope(initiator, dst, data, size);
          });
      // Inbound lookup batches: answer from the local shard via a
      // fire-and-forget reply to the requesting process.
      team.transport().set_handler(
          lookup_channel_,
          [this](int src, int, const std::byte* data, std::size_t size) {
            auto reqs = map_wire::decode_batch<LookupReq>(data, size);
            answer_remote_lookups(src, reqs);
          });
      reply_oneway_ = team.fabric().register_oneway(
          [this](int, const std::byte* data, std::size_t size) {
            deliver_remote_replies(data, size);
          });
      rmw_rpc_ = team.fabric().register_rpc(
          [this](int, const std::byte* data, std::size_t size) {
            return serve_rmw(data, size);
          });
    }
    const std::size_t per_shard =
        (cfg.global_capacity + nranks_ - 1) / nranks_;
    // Aim for ~2 entries per bucket at the estimated cardinality.
    std::size_t nbuckets = 1;
    while (nbuckets * Bucket::kInline / 2 < per_shard) nbuckets <<= 1;
    // Shard storage is anonymous zero pages: mapping costs one call
    // whatever the size, and the kernel zeroes each page on its first
    // touch, so no serial pass clears the table and the rank that first
    // writes a page faults it in, alongside the other ranks.
    for (auto& shard : shards_) {
      void* pages = ::mmap(nullptr, nbuckets * sizeof(Bucket),
                           PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                           -1, 0);
      if (pages == MAP_FAILED) throw std::bad_alloc();
      shard.buckets = static_cast<Bucket*>(pages);
      shard.mask = nbuckets - 1;
    }
  }

  DistHashMap(const DistHashMap&) = delete;
  DistHashMap& operator=(const DistHashMap&) = delete;

  /// Install a custom owner mapping (oracle partitioning). Must be called
  /// while the table is empty and outside concurrent access.
  void set_rank_mapper(RankMapper mapper) { mapper_ = std::move(mapper); }

  /// Name this table ("kcount.counts", "align.seed_index", ...): labels
  /// HIPMER_CHECKED diagnostics and renames the transport channels so
  /// chaos-spec patterns and retry histograms key off the table name.
  void set_name(const std::string& name) {
#if defined(HIPMER_CHECKED)
    checked_.set_name(name);
#endif
    team_->transport().set_channel_name(store_channel_, name + "/store");
    team_->transport().set_channel_name(lookup_channel_, name + "/lookup");
  }
#if defined(HIPMER_CHECKED)
  // RelaxedPhase plumbing (see pgas/checked.hpp).
  void checked_relaxed_begin(int rank) { checked_.relaxed_begin(rank); }
  void checked_relaxed_end(int rank) { checked_.relaxed_end(rank); }
#endif

  [[nodiscard]] std::uint64_t hash_of(const K& key) const {
    return Hash{}(key);
  }

  [[nodiscard]] std::uint32_t owner_of(const K& key) const {
    return owner_of_hash(Hash{}(key));
  }

  // ---- fine-grained one-sided path ----

  /// Insert policy for update operations: find-or-insert (default), or
  /// merge-only-if-present (used by k-mer counting pass B, where membership
  /// was decided by the Bloom-filtered pass A and singletons must stay out).
  enum class Policy { kInsert, kIfPresent };

  /// One store: the key's hash travels with it, so neither the owner nor a
  /// batch apply hashes it again.
  struct StoreOp {
    std::uint64_t hash;
    K key;
    V delta;
    Policy policy;
  };

  /// Find-or-insert `key` and merge `delta` into its value. One message.
  void update(Rank& rank, const K& key, const V& delta,
              Policy policy = Policy::kInsert HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner = owner_of_hash(h);
    rank.charge_message(static_cast<int>(owner), sizeof(K) + sizeof(V), 1);
    Shard& shard = shards_[owner];
    if (apply_update(shard, h, key, delta, policy))
      shard.size.fetch_add(1, std::memory_order_relaxed);
    bump_version();
  }

  /// Owner-local batched find-or-insert of ops whose hashes the caller
  /// already holds (k-mer counting admits Bloom-passed k-mers this way).
  /// Every op must belong to this rank. Charged exactly like one update()
  /// per op; the bucket of op i+kPrefetchDistance is prefetched while op i
  /// applies.
  void update_owned(Rank& rank, std::span<const StoreOp> ops
                        HIPMER_SITE_DEFAULT) {
    if (ops.empty()) return;
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    const auto me = static_cast<std::uint32_t>(rank.id());
    assert(std::ranges::all_of(ops, [&](const StoreOp& op) {
      return owner_of_hash(op.hash) == me;
    }));
    rank.charge_message(rank.id(), ops.size() * (sizeof(K) + sizeof(V)),
                        ops.size());
    apply_ops(shards_[me], ops);
    bump_version();
  }

  /// One-sided lookup. One message (request+reply counted once); a miss
  /// moves only the key-sized request — the reply carries no value — so
  /// modeled lookup traffic is not inflated by absent keys.
  [[nodiscard]] std::optional<V> find(Rank& rank,
                                      const K& key HIPMER_SITE_DEFAULT) const {
#if defined(HIPMER_CHECKED)
    checked_.on_lookup(rank.id(), CheckedTable::Path::kFine,
                       to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner = owner_of_hash(h);
    // The pipeline's fine-grained reads are owner-local (the batched path
    // handles remote reads); a remote fine-grained find on a multi-process
    // fabric would read an empty local mirror of the owner's shard.
    assert(team_->is_local(static_cast<int>(owner)));
    const std::optional<V> result = probe(shards_[owner], h, key);
    rank.charge_message(static_cast<int>(owner),
                        sizeof(K) + (result.has_value() ? sizeof(V) : 0), 1);
    return result;
  }

  // ---- registered read-modify-write ----
  //
  // An arbitrary closure cannot cross an address space, so the table's
  // in-place RMW names the operation up front — its captures become a POD
  // argument block — and the owner process can execute it on a
  // multi-process fabric from a [rmw-id, key, args] request. This is the
  // primitive the traversal's claim/abort protocol and the scaffolder's
  // tie updates are built on. Registration runs in serial context during
  // SPMD structure construction; every process constructs the same
  // structures in the same order, so ids agree across the team without
  // negotiation.

  using RmwId = std::uint32_t;

  /// Register `fn(V& value, const Args& args) -> Result`, executed under
  /// the owner's bucket lock when the key is present (an absent key yields
  /// nullopt at the call site).
  template <typename Args, typename Result, typename Fn>
  RmwId register_rmw(Fn fn) {
    static_assert(std::is_trivially_copyable_v<Args> &&
                      std::is_trivially_copyable_v<Result>,
                  "rmw argument/result blocks must be trivially copyable");
    rmws_.push_back([this, fn](std::uint32_t owner, std::uint64_t h,
                               const K& key, const std::byte* args,
                               std::size_t args_size,
                               std::vector<std::byte>& out) -> bool {
      Args a{};
      if (args_size >= sizeof(Args)) std::memcpy(&a, args, sizeof(Args));
      Bucket& bucket = bucket_of(shards_[owner], h);
      SpinGuard guard(bucket.lock);
      Entry* e = find_in_bucket(bucket, key);
      if (e == nullptr) return false;
      Result res = fn(e->value, a);
      out.resize(sizeof(Result));
      std::memcpy(out.data(), &res, sizeof(Result));
      return true;
    });
    return static_cast<RmwId>(rmws_.size() - 1);
  }

  /// Execute a registered RMW against `key`'s owner: in place under the
  /// owner's bucket lock when the owner shard lives in this address space,
  /// over the fabric's request/response path otherwise. Charging is
  /// identical on both paths and both fabrics.
  template <typename Result, typename Args>
  std::optional<Result> rmw(Rank& rank, const K& key, RmwId id,
                            const Args& args HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    static_assert(std::is_trivially_copyable_v<Args> &&
                      std::is_trivially_copyable_v<Result>,
                  "rmw argument/result blocks must be trivially copyable");
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner = owner_of_hash(h);
    rank.charge_message(static_cast<int>(owner), sizeof(K) + sizeof(V), 1);
    if (team_->is_local(static_cast<int>(owner))) {
      std::vector<std::byte> out;
      const bool present =
          rmws_[id](owner, h, key,
                    reinterpret_cast<const std::byte*>(&args), sizeof(Args),
                    out);
      if (!present) return std::nullopt;
      bump_version();
      Result res{};
      std::memcpy(&res, out.data(), sizeof(Result));
      return res;
    }
    auto payload = map_wire::encode_rmw_request(
        id, h, key, reinterpret_cast<const std::byte*>(&args), sizeof(Args));
    const auto resp =
        team_->fabric().rpc(rmw_rpc_, static_cast<int>(owner),
                            std::move(payload));
    const auto result = map_wire::decode_rmw_response(resp.data(), resp.size());
    if (!result) return std::nullopt;
    if (result->size() != sizeof(Result))
      throw io::wire::CorruptError(
          "wire: corrupt: rmw result size disagrees with Result type");
    Result res{};
    std::memcpy(&res, result->data(), sizeof(Result));
    return res;
  }

  // ---- aggregating-stores path ----

  /// Buffer (key, delta) toward the owner; flushes the destination buffer
  /// automatically at the batch threshold.
  void update_buffered(Rank& rank, const K& key, const V& delta,
                       Policy policy = Policy::kInsert HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kBatched,
                      to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner = owner_of_hash(h);
    store_engine_.enqueue(rank.id(), owner, StoreOp{h, key, delta, policy},
                          [&](std::uint32_t dest, std::vector<StoreOp>& ops) {
                            ship_store_batch(rank, dest, ops);
                          });
  }

  /// Drain all of this rank's outgoing store buffers. Every rank must call
  /// this (followed by a barrier at the call site) before switching the
  /// table to the read phase. The engine drains destinations round-robin
  /// starting at this rank's successor (flush-storm avoidance).
  void flush(Rank& rank) {
    store_engine_.flush(rank.id(),
                        [&](std::uint32_t dest, std::vector<StoreOp>& ops) {
                          ship_store_batch(rank, dest, ops);
                        });
    // Chaos may have held shipped envelopes "in the network" (reorder /
    // delay fates); the post-flush contract is "all stores applied", so
    // drain them here.
    team_->transport().drain(rank.id(), store_channel_, rank.stats(),
                             store_deliver(rank));
  }

  /// Store ops this rank has buffered but not yet applied (0 after flush).
  /// A store batch held in transport limbo is un-applied state exactly
  /// like an unflushed row, so it counts.
  [[nodiscard]] std::size_t pending_store_ops(int rank) const {
    return store_engine_.pending(rank) +
           team_->transport().pending(rank, store_channel_);
  }

  // ---- aggregated lookup path (batched reads + software cache) ----
  //
  // Handler signature: void(const K& key, const V* value, std::uint64_t
  // tag). `value` is nullptr on miss and otherwise valid only for the
  // duration of the call; `tag` is the caller's routing cookie (slot index,
  // contig id, ...). The handler for a key may run inside `find_buffered`
  // itself — on a cache hit, a local key, or an auto-flushed full batch —
  // or inside `process_lookups`; callers must pass the same handler to
  // both and must not assume reply order.

  /// Queue a lookup of `key`, delivering the reply through `handler`.
  /// Local keys are served immediately (local access, no batching); remote
  /// keys consult this rank's ReadCache when enabled and otherwise join
  /// the per-owner request batch.
  template <typename Handler>
  void find_buffered(Rank& rank, const K& key, std::uint64_t tag,
                     Handler&& handler HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_lookup(rank.id(), CheckedTable::Path::kBatched,
                       to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner = owner_of_hash(h);
    if (static_cast<int>(owner) == rank.id()) {
      // Owner-local: answer from the shard directly, as find() would.
      const std::optional<V> value = probe(shards_[owner], h, key);
      rank.stats().add_local_access(1);
      handler(key, value ? &*value : nullptr, tag);
      return;
    }
    if (auto* cache = caches_[static_cast<std::size_t>(rank.id())].get()) {
#if defined(HIPMER_CHECKED)
      // Consult the contract *before* check_version drops stale entries:
      // a cache that outlived a write phase is a bug even though the data
      // would have been discarded here.
      checked_.on_cache_consult(rank.id(), cache->seen_version(),
                                version_.load(std::memory_order_acquire),
                                cache->size(), to_site(hipmer_site));
#endif
      cache->check_version(version_.load(std::memory_order_acquire));
      if (const V* hit = cache->lookup(key)) {
        rank.stats().add_read_cache_hit();
        handler(key, hit, tag);
        return;
      }
      rank.stats().add_read_cache_miss();
    }
    lookup_engine_.enqueue(
        rank.id(), owner, LookupReq{h, key, tag},
        [&](std::uint32_t dest, std::vector<LookupReq>& reqs) {
          ship_lookup_batch(rank, dest, reqs, handler);
        });
  }

  /// Drain this rank's pending lookup batches, delivering every
  /// outstanding reply through `handler`. Round-robin over owners, like
  /// flush(). Call at the end of a read phase (no barrier needed: lookups
  /// touch only owner shards, which are valid throughout).
  template <typename Handler>
  void process_lookups(Rank& rank, Handler&& handler) {
    lookup_engine_.flush(rank.id(),
                         [&](std::uint32_t dest, std::vector<LookupReq>& reqs) {
                           ship_lookup_batch(rank, dest, reqs, handler);
                         });
    team_->transport().drain(rank.id(), lookup_channel_, rank.stats(),
                             lookup_deliver(rank, handler));
    if (team_->multiprocess() && outstanding_ > 0) {
      // Remote owners still owe reply messages; serve inbound traffic
      // (including their lookup requests against our shard) until every
      // outstanding reply has been delivered through `handler`.
      arm_reply_trampoline(handler);
      team_->fabric().poll_until([this] { return outstanding_ == 0; });
    }
  }

  /// Lookups this rank has queued but not yet answered (0 after
  /// process_lookups). Requests held in transport limbo count.
  [[nodiscard]] std::size_t pending_lookups(int rank) const {
    std::size_t n = lookup_engine_.pending(rank) +
                    team_->transport().pending(rank, lookup_channel_);
    // A shipped batch whose reply has not arrived is still an unanswered
    // lookup (multi-process fabrics only; the threads fabric replies
    // synchronously).
    if (team_->multiprocess()) n += outstanding_;
    return n;
  }

  /// Opt this rank into the software read cache (read-only phases). Each
  /// rank manages only its own cache slot, so this is callable from inside
  /// team.run() without synchronization.
  void enable_read_cache(Rank& rank, std::size_t capacity) {
    // On a multi-process fabric, version bumps from writes in other
    // processes are not observable here, so the self-invalidation contract
    // cannot hold; run uncached (correct, just unaccelerated).
    if (team_->multiprocess()) return;
    auto& slot = caches_[static_cast<std::size_t>(rank.id())];
    slot = std::make_unique<Cache>(capacity);
    active_caches_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop this rank's cache (end of the read phase) and release its memory.
  void disable_read_cache(Rank& rank) {
    auto& slot = caches_[static_cast<std::size_t>(rank.id())];
    if (slot == nullptr) return;
    slot.reset();
    active_caches_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// This rank's cache hit/miss counters (zeros when no cache is enabled).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] CacheStats read_cache_stats(int rank) const {
    const auto* cache = caches_[static_cast<std::size_t>(rank)].get();
    if (cache == nullptr) return {};
    return CacheStats{cache->hits(), cache->misses()};
  }

  // ---- local-shard access (owner side) ----

  /// Visit every (key, value) in this rank's shard. `fn(const K&, V&)`.
  template <typename Fn>
  void for_each_local(Rank& rank, Fn&& fn) {
    Shard& shard = shards_[static_cast<std::size_t>(rank.id())];
    for (std::size_t b = 0; b <= shard.mask; ++b) {
      Bucket& bucket = shard.buckets[b];
      SpinGuard guard(bucket.lock);
      for (std::uint8_t i = 0; i < bucket.count; ++i)
        fn(static_cast<const K&>(bucket.slots[i].key), bucket.slots[i].value);
      for (std::uint32_t i = 0; i < bucket.chain_size; ++i)
        fn(static_cast<const K&>(bucket.chain[i].key), bucket.chain[i].value);
    }
  }

  /// Erase local entries for which `pred(key, value)` is true; returns the
  /// number removed. Used to discard below-threshold (erroneous) k-mers.
  template <typename Pred>
  std::size_t erase_local_if(Rank& rank, Pred&& pred HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    // Owner-local compaction still mutates entries remote lookups may be
    // reading: a store event, but exempt from the mixed-access rule.
    checked_.on_store(rank.id(), CheckedTable::Path::kLocal,
                      to_site(hipmer_site));
#endif
    Shard& shard = shards_[static_cast<std::size_t>(rank.id())];
    std::size_t erased = 0;
    for (std::size_t b = 0; b <= shard.mask; ++b) {
      Bucket& bucket = shard.buckets[b];
      SpinGuard guard(bucket.lock);
      // Compact inline slots, refilling from the overflow chain. The
      // swapped-in entry is re-examined (no ++i), since it may match the
      // predicate too. A drained chain keeps its block until destruction.
      for (std::uint8_t i = 0; i < bucket.count;) {
        if (pred(static_cast<const K&>(bucket.slots[i].key),
                 bucket.slots[i].value)) {
          ++erased;
          if (bucket.chain_size > 0) {
            bucket.slots[i] = bucket.chain[--bucket.chain_size];
          } else {
            bucket.slots[i] = bucket.slots[bucket.count - 1];
            --bucket.count;
          }
          continue;
        }
        ++i;
      }
      for (std::uint32_t i = 0; i < bucket.chain_size;) {
        if (pred(static_cast<const K&>(bucket.chain[i].key),
                 bucket.chain[i].value)) {
          bucket.chain[i] = bucket.chain[--bucket.chain_size];
          ++erased;
        } else {
          ++i;
        }
      }
    }
    shard.size.fetch_sub(erased, std::memory_order_relaxed);
    bump_version();
    return erased;
  }

  [[nodiscard]] std::size_t local_size(int rank) const {
    return shards_[static_cast<std::size_t>(rank)].size.load(
        std::memory_order_relaxed);
  }

  /// Collective: total entries across all shards.
  [[nodiscard]] std::size_t global_size(Rank& rank) {
    return rank.allreduce_sum<std::uint64_t>(
        local_size(rank.id()));
  }

  /// Non-collective total (call after a barrier / between phases).
  [[nodiscard]] std::size_t size_unsafe() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s.size.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct Entry {
    K key;
    V value;
  };

  /// Header first: the lock, the inline count and the overflow chain sit
  /// in front of slot 0, so probing a bucket that holds one or two entries
  /// touches one or two adjacent cache lines. All-zero bytes are a valid
  /// empty, unlocked bucket, so shard storage is never constructed.
  struct Bucket {
    static constexpr int kInline = 4;
    std::uint8_t lock;
    std::uint8_t count;
    std::uint32_t chain_size;
    // malloc'd overflow beyond kInline. Chains grow by doubling from
    // kInline entries, so a chain of n entries always owns at least
    // chain_capacity(n) of them and no capacity field is needed.
    Entry* chain;
    Entry slots[kInline];
  };
  static_assert(std::is_trivially_copyable_v<Bucket> &&
                    alignof(Entry) <= alignof(std::max_align_t),
                "buckets live in zero pages and chains in malloc'd blocks");

  /// One rank's shard. The geometry every prober reads and the size
  /// counter every inserter writes sit on separate cache lines, and
  /// neighbouring shards never share one.
  struct alignas(64) Shard {
    Bucket* buckets = nullptr;  // mmap'd zero pages, mask + 1 buckets
    std::size_t mask = 0;
    // Buckets that own a chain block, freed on destruction (O(chains),
    // not O(buckets)). chain_lock guards the list itself.
    std::uint8_t chain_lock = 0;
    std::vector<Bucket*> chained;
    alignas(64) std::atomic<std::size_t> size{0};

    Shard() = default;
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;
    ~Shard() {
      if (buckets == nullptr) return;
      for (Bucket* b : chained) std::free(b->chain);
      ::munmap(buckets, (mask + 1) * sizeof(Bucket));
    }
  };

  struct LookupReq {
    std::uint64_t hash;
    K key;
    std::uint64_t tag;
  };

  using Cache = ReadCache<K, V, Hash>;

  // Every batch travels the transport as a memcpy'd byte envelope, so
  // chaos and the multi-process fabric see all table traffic; that needs
  // trivially copyable keys and values.
  static_assert(std::is_trivially_copyable_v<StoreOp>,
                "DistHashMap store ops must be wire-serializable");
  static_assert(std::is_trivially_copyable_v<LookupReq>,
                "DistHashMap lookup requests must be wire-serializable");

  /// Receiver-side apply for one store envelope, charged to `initiator`:
  /// the sending rank itself on a local hop, or this process's mirror of
  /// its counters when the envelope crossed the fabric (global sums then
  /// match across fabrics). Runs exactly once per distinct envelope: the
  /// transport dedups retransmits.
  void apply_store_envelope(Rank& initiator, int dst, const std::byte* data,
                            std::size_t size) {
    auto ops = map_wire::decode_batch<StoreOp>(data, size);
    apply_store_batch(initiator, static_cast<std::uint32_t>(dst), ops);
  }

  auto store_deliver(Rank& rank) {
    return [this, &rank](int dst, const std::byte* data, std::size_t size) {
      apply_store_envelope(rank, dst, data, size);
    };
  }

  template <typename Handler>
  auto lookup_deliver(Rank& rank, Handler& handler) {
    return [this, &rank, &handler](int dst, const std::byte* data,
                                   std::size_t size) {
      auto reqs = map_wire::decode_batch<LookupReq>(data, size);
      answer_lookup_batch(rank, static_cast<std::uint32_t>(dst), reqs,
                          handler);
    };
  }

  void ship_store_batch(Rank& rank, std::uint32_t dest,
                        std::vector<StoreOp>& ops) {
    try {
      team_->transport().send(rank.id(), static_cast<int>(dest),
                              store_channel_, map_wire::encode_batch(ops),
                              rank.stats(), store_deliver(rank));
    } catch (const PeerSuspect&) {
      degrade(rank);
      throw;
    }
  }

  template <typename Handler>
  void ship_lookup_batch(Rank& rank, std::uint32_t dest,
                         std::vector<LookupReq>& reqs, Handler& handler) {
    if (!team_->is_local(static_cast<int>(dest))) {
      // The owner answers with one oneway reply message per request batch
      // (the transport dedups retransmits, so exactly one per send).
      // Replies are dispatched only inside fabric awaits; the armed handler
      // must stay alive until process_lookups drains the count, which the
      // phase discipline (pending_lookups == 0 at barriers) guarantees.
      arm_reply_trampoline(handler);
      ++outstanding_;
    }
    try {
      team_->transport().send(rank.id(), static_cast<int>(dest),
                              lookup_channel_, map_wire::encode_batch(reqs),
                              rank.stats(), lookup_deliver(rank, handler));
    } catch (const PeerSuspect&) {
      degrade(rank);
      throw;
    }
  }

  /// Suspect-peer degradation: the team is about to unwind through the
  /// RankKilled path and resume from a checkpoint, so everything this rank
  /// holds in flight is stale. Drop the read cache (its seen-version dies
  /// with the team) and clear the engine rows so no later flush ships
  /// half-finished batches at the dead fabric.
  void degrade(Rank& rank) {
    disable_read_cache(rank);
    store_engine_.clear(rank.id());
    lookup_engine_.clear(rank.id());
    // Reply accounting belongs to the process's one rank; on the threads
    // fabric it stays 0 and every rank may be degrading at once.
    if (team_->multiprocess()) outstanding_ = 0;
  }

  // ---- multi-process fabric plumbing ----

  /// Point the reply dispatcher at the caller's current handler object.
  /// The capture-free lambda decays to a plain function pointer, so one
  /// (ctx, fn) pair serves every Handler type without virtual dispatch.
  template <typename Handler>
  void arm_reply_trampoline(Handler& handler) {
    using H = std::remove_reference_t<Handler>;
    reply_ctx_ = const_cast<void*>(static_cast<const void*>(&handler));
    reply_fn_ = [](void* ctx, const K& key, const V* val, std::uint64_t tag) {
      (*static_cast<H*>(ctx))(key, val, tag);
    };
  }

  /// Owner side of a remote lookup batch: probe the local shard and ship
  /// one reply message. Charging mirrors answer_lookup_batch — the request
  /// ships the keys, the reply ships values for the hits only — but lands
  /// in this process's mirror of the initiator's counters.
  void answer_remote_lookups(int src, std::vector<LookupReq>& reqs) {
    const auto me = static_cast<std::uint32_t>(team_->my_rank());
    const Shard& shard = shards_[me];
    std::vector<map_wire::LookupReply<K, V>> replies;
    replies.reserve(reqs.size());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (i + kPrefetchDistance < reqs.size())
        prefetch_bucket(shard, reqs[i + kPrefetchDistance].hash);
      const LookupReq& req = reqs[i];
      map_wire::LookupReply<K, V> reply;
      reply.tag = req.tag;
      reply.key = req.key;
      if (const std::optional<V> value = probe(shard, req.hash, req.key)) {
        reply.value = *value;
        reply.found = true;
        ++hits;
      }
      replies.push_back(reply);
    }
    Rank initiator(*team_, src);
    initiator.charge_message(static_cast<int>(me),
                             reqs.size() * sizeof(K) + hits * sizeof(V),
                             reqs.size());
    team_->fabric().send_oneway(reply_oneway_, src,
                                map_wire::encode_lookup_replies(replies));
  }

  /// Initiator side: decode one reply message, deliver each entry through
  /// the armed handler, and retire the batch it answers.
  void deliver_remote_replies(const std::byte* data, std::size_t size) {
    const auto replies = map_wire::decode_lookup_replies<K, V>(data, size);
    for (const auto& reply : replies) {
      reply_fn_(reply_ctx_, reply.key, reply.found ? &reply.value : nullptr,
                reply.tag);
    }
    assert(outstanding_ > 0);
    if (outstanding_ > 0) --outstanding_;
  }

  /// Owner side of a remote registered-RMW request.
  std::vector<std::byte> serve_rmw(const std::byte* data, std::size_t size) {
    auto req = map_wire::decode_rmw_request<K>(data, size);
    if (req.id >= rmws_.size())
      throw io::wire::CorruptError("wire: corrupt: unknown rmw id");
    std::vector<std::byte> out;
    const bool present =
        rmws_[req.id](static_cast<std::uint32_t>(team_->my_rank()), req.hash,
                      req.key, req.args.data(), req.args.size(), out);
    if (present) bump_version();
    return map_wire::encode_rmw_response(present, out);
  }

  /// Owner mapping: the installed mapper (oracle partitioning) or h % P.
  [[nodiscard]] std::uint32_t owner_of_hash(std::uint64_t h) const {
    return mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
  }

  static Bucket& bucket_of(const Shard& shard, std::uint64_t h) {
    // Decorrelate from the owner mapping (which typically uses h % P).
    return shard.buckets[util::fmix64(h) & shard.mask];
  }

  /// Batch applies and lookups prefetch the bucket header this many ops
  /// ahead: enough to hide a DRAM miss behind the probes in between.
  static constexpr std::size_t kPrefetchDistance = 8;

  static void prefetch_bucket(const Shard& shard, std::uint64_t h) {
    __builtin_prefetch(&bucket_of(shard, h), 1);
  }

  static Entry* find_in_bucket(Bucket& bucket, const K& key) {
    for (std::uint8_t i = 0; i < bucket.count; ++i)
      if (bucket.slots[i].key == key) return &bucket.slots[i];
    for (std::uint32_t i = 0; i < bucket.chain_size; ++i)
      if (bucket.chain[i].key == key) return &bucket.chain[i];
    return nullptr;
  }

  /// Copy `key`'s value out under its bucket lock.
  static std::optional<V> probe(const Shard& shard, std::uint64_t h,
                                const K& key) {
    Bucket& bucket = bucket_of(shard, h);
    SpinGuard guard(bucket.lock);
    if (const Entry* e = find_in_bucket(bucket, key)) return e->value;
    return std::nullopt;
  }

  static constexpr std::uint32_t chain_capacity(std::uint32_t n) {
    return n <= Bucket::kInline ? Bucket::kInline : std::bit_ceil(n);
  }

  /// Append to `bucket`'s overflow chain (bucket lock held).
  static void chain_push(Shard& shard, Bucket& bucket, const Entry& e) {
    const std::uint32_t n = bucket.chain_size;
    if (bucket.chain == nullptr) {
      bucket.chain =
          static_cast<Entry*>(std::malloc(Bucket::kInline * sizeof(Entry)));
      if (bucket.chain == nullptr) throw std::bad_alloc();
      SpinGuard guard(shard.chain_lock);
      shard.chained.push_back(&bucket);
    } else if (n == chain_capacity(n)) {
      void* grown =
          std::realloc(bucket.chain, 2 * std::size_t{n} * sizeof(Entry));
      if (grown == nullptr) throw std::bad_alloc();
      bucket.chain = static_cast<Entry*>(grown);
    }
    bucket.chain[n] = e;
    bucket.chain_size = n + 1;
  }

  /// Find-or-insert `key` and merge `delta`; true when a new entry was
  /// added (the caller maintains the shard's size).
  static bool apply_update(Shard& shard, std::uint64_t h, const K& key,
                           const V& delta, Policy policy) {
    Bucket& bucket = bucket_of(shard, h);
    SpinGuard guard(bucket.lock);
    if (Entry* e = find_in_bucket(bucket, key)) {
      Merge{}(e->value, delta);
      return false;
    }
    if (policy == Policy::kIfPresent) return false;
    if (bucket.count < Bucket::kInline) {
      bucket.slots[bucket.count] = Entry{key, delta};
      ++bucket.count;
    } else {
      chain_push(shard, bucket, Entry{key, delta});
    }
    return true;
  }

  /// Apply `ops` in order to one shard, prefetching ahead.
  static void apply_ops(Shard& shard, std::span<const StoreOp> ops) {
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i + kPrefetchDistance < ops.size())
        prefetch_bucket(shard, ops[i + kPrefetchDistance].hash);
      const StoreOp& op = ops[i];
      if (apply_update(shard, op.hash, op.key, op.delta, op.policy))
        ++inserted;
    }
    shard.size.fetch_add(inserted, std::memory_order_relaxed);
  }

  /// One aggregated store message: charge once, apply every op.
  void apply_store_batch(Rank& rank, std::uint32_t dest,
                         std::vector<StoreOp>& ops) {
    rank.charge_message(static_cast<int>(dest),
                        ops.size() * (sizeof(K) + sizeof(V)), ops.size());
    apply_ops(shards_[dest], ops);
    bump_version();
  }

  /// One aggregated lookup message: the request ships the keys, the reply
  /// ships values for the hits only (the miss accounting rule of find()).
  template <typename Handler>
  void answer_lookup_batch(Rank& rank, std::uint32_t dest,
                           std::vector<LookupReq>& reqs, Handler&& handler) {
    auto* cache = caches_[static_cast<std::size_t>(rank.id())].get();
    const Shard& shard = shards_[dest];
    std::size_t hits = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (i + kPrefetchDistance < reqs.size())
        prefetch_bucket(shard, reqs[i + kPrefetchDistance].hash);
      const LookupReq& req = reqs[i];
      const std::optional<V> value = probe(shard, req.hash, req.key);
      if (value) {
        ++hits;
        if (cache != nullptr) cache->insert(req.key, *value);
      }
      handler(static_cast<const K&>(req.key), value ? &*value : nullptr,
              req.tag);
    }
    rank.charge_message(static_cast<int>(dest),
                        reqs.size() * sizeof(K) + hits * sizeof(V),
                        reqs.size());
  }

  /// Writes advance the table version so read caches self-invalidate.
  /// Skipped while no cache exists anywhere — the common write phases —
  /// to keep the hot update paths free of shared-counter traffic.
  void bump_version() {
    if (active_caches_.load(std::memory_order_relaxed) == 0) return;
    version_.fetch_add(1, std::memory_order_release);
  }

  ThreadTeam* team_;
  Config cfg_;
  std::uint32_t nranks_;
  RankMapper mapper_;
  std::vector<Shard> shards_;
  AggregatingEngine<StoreOp> store_engine_;
  AggregatingEngine<LookupReq> lookup_engine_;
  Transport::ChannelId store_channel_ = 0;
  Transport::ChannelId lookup_channel_ = 0;
  // caches_[r] — rank r's software read cache (null = not opted in). Each
  // rank touches only its own slot.
  std::vector<std::unique_ptr<Cache>> caches_;
  // Multi-process fabric state (this process's single rank owns it all):
  // fabric service ids, reply batches still in flight, the armed reply
  // dispatch target, and the registered-RMW table in registration order.
  std::uint32_t reply_oneway_ = 0;
  std::uint32_t rmw_rpc_ = 0;
  std::size_t outstanding_ = 0;
  void* reply_ctx_ = nullptr;
  void (*reply_fn_)(void*, const K&, const V*, std::uint64_t) = nullptr;
  std::vector<std::function<bool(std::uint32_t owner, std::uint64_t h,
                                 const K& key, const std::byte* args,
                                 std::size_t args_size,
                                 std::vector<std::byte>& out)>>
      rmws_;
#if defined(HIPMER_CHECKED)
  // mutable: lookups are logically const but must record read events.
  mutable CheckedTable checked_;
#endif
  std::atomic<std::uint64_t> active_caches_{0};
  // Monotonic write version; starts at 1 so a fresh cache (seen_version 0)
  // always syncs on first use.
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace hipmer::pgas
