#include "align/contig_store.hpp"

#include <algorithm>

#include "dbg/contig_wire.hpp"
#include "io/wire.hpp"

namespace hipmer::align {

namespace {
/// Contigs each rank's cache holds.
constexpr std::size_t kCacheSlots = 64;
}  // namespace

ContigStore::ContigStore(pgas::ThreadTeam& team)
    : team_(&team),
      nranks_(team.nranks()),
      shards_(static_cast<std::size_t>(team.nranks())),
      caches_(static_cast<std::size_t>(team.nranks()), Cache(kCacheSlots))
#if defined(HIPMER_CHECKED)
      ,
      checked_(team.checker(), "align.contig_store", nullptr, nullptr)
#endif
{
  if (team.multiprocess()) {
    rpc_ = team.fabric().register_rpc(
        [this](int, const std::byte* data, std::size_t size) {
          return serve_read(data, size);
        });
  }
}

bool ContigStore::remote(int owner) const {
  return team_->multiprocess() && !team_->is_local(owner);
}

// wire-schema: contig_req writer
dbg::Contig ContigStore::remote_call(std::uint64_t id, int owner) const {
  std::vector<std::byte> req;
  io::wire::Writer w(req);
  w.put_u64(id);
  const auto resp = team_->fabric().rpc(rpc_, owner, std::move(req));
  // An absent contig comes back as no bytes: the default record.
  if (resp.empty()) return {};
  io::wire::Reader r(resp);
  return dbg::get_contig_checked(r);
}

// wire-schema: contig_req reader
std::vector<std::byte> ContigStore::serve_read(const std::byte* data,
                                               std::size_t size) const {
  io::wire::Reader r(data, size);
  const auto id = r.get_u64_checked("contig id");
  std::vector<std::byte> resp;
  if (const dbg::Contig* contig = local_lookup(id); contig != nullptr)
    dbg::serialize_contig(resp, *contig);
  return resp;
}

void ContigStore::build(pgas::Rank& rank,
                        const std::vector<dbg::Contig>& my_contigs
                            HIPMER_SITE_PARAM) {
#if defined(HIPMER_CHECKED)
  checked_.on_store(rank.id(), pgas::CheckedTable::Path::kBatched,
                    pgas::to_site(hipmer_site));
#endif
  // Serialize each contig toward its owner through the shared wire layer
  // (junction k-mers ride along because bubble identification keys on
  // them).
  std::vector<std::vector<std::byte>> outgoing(
      static_cast<std::size_t>(nranks_));
  for (const auto& contig : my_contigs) {
    auto& buf = outgoing[static_cast<std::size_t>(owner_of(contig.id))];
    dbg::serialize_contig(buf, contig);
    rank.stats().add_work();
  }
  const auto incoming = rank.alltoallv(outgoing);

  auto& shard = shards_[static_cast<std::size_t>(rank.id())];
  shard = dbg::deserialize_contigs(incoming);
  std::sort(shard.begin(), shard.end(),
            [](const dbg::Contig& a, const dbg::Contig& b) { return a.id < b.id; });

  caches_[static_cast<std::size_t>(rank.id())] = Cache(kCacheSlots);
  const std::uint64_t local = shard.size();
  // Every rank stores the same allreduce result; relaxed atomic keeps the
  // concurrent same-value stores well-defined.
  total_.store(rank.allreduce_sum(local), std::memory_order_relaxed);
  rank.barrier();
}

const dbg::Contig* ContigStore::local_lookup(std::uint64_t id) const {
  const auto& shard = shards_[id % static_cast<std::uint64_t>(nranks_)];
  // Ids within a shard are dense-ish; binary search by id.
  auto it = std::lower_bound(
      shard.begin(), shard.end(), id,
      [](const dbg::Contig& c, std::uint64_t key) { return c.id < key; });
  if (it == shard.end() || it->id != id) return nullptr;
  return &*it;
}

const dbg::Contig& ContigStore::read(pgas::Rank& rank,
                                     std::uint64_t id HIPMER_SITE_PARAM) const {
#if defined(HIPMER_CHECKED)
  checked_.on_lookup(rank.id(), pgas::CheckedTable::Path::kFine,
                     pgas::to_site(hipmer_site));
#endif
  static const dbg::Contig kAbsent;
  const int owner = owner_of(id);
  if (owner == rank.id()) {
    rank.stats().add_local_access();
    const dbg::Contig* contig = local_lookup(id);
    return contig != nullptr ? *contig : kAbsent;
  }

  // Remote: whole records go through this rank's cache.
  auto& cache = caches_[static_cast<std::size_t>(rank.id())];
  if (const dbg::Contig* hit = cache.lookup(id, id); hit != nullptr) return *hit;
  dbg::Contig fetched;
  if (remote(owner)) {
    fetched = remote_call(id, owner);
  } else if (const dbg::Contig* contig = local_lookup(id); contig != nullptr) {
    fetched = *contig;
  }
  rank.charge_message(owner, fetched.seq.size());
  return cache.insert(id, id, std::move(fetched));
}

void ContigStore::set_local_depth(pgas::Rank& rank, std::uint64_t id,
                                  double depth HIPMER_SITE_PARAM) {
#if defined(HIPMER_CHECKED)
  // Owner-local in-place write: a store for phase purposes (readers on
  // other ranks in the same epoch would observe it racing), but exempt
  // from the mixed-access rule like erase_local_if.
  checked_.on_store(rank.id(), pgas::CheckedTable::Path::kLocal,
                    pgas::to_site(hipmer_site));
#endif
  auto& shard = shards_[static_cast<std::size_t>(rank.id())];
  auto it = std::lower_bound(
      shard.begin(), shard.end(), id,
      [](const dbg::Contig& c, std::uint64_t key) { return c.id < key; });
  if (it != shard.end() && it->id == id) it->avg_depth = depth;
  rank.stats().add_local_access();
}

std::uint64_t ContigStore::local_kmers(int rank, int k) const {
  const auto span = static_cast<std::size_t>(k) - 1;
  std::uint64_t total = 0;
  for (const auto& contig : shards_[static_cast<std::size_t>(rank)])
    if (contig.seq.size() > span) total += contig.seq.size() - span;
  return total;
}

}  // namespace hipmer::align
