#include "align/contig_store.hpp"

#include <algorithm>
#include <cstring>

#include "dbg/contig_wire.hpp"

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
          return serve_fetch(data, size);
        });
  }
}

bool ContigStore::remote(int owner) const {
  return team_->multiprocess() && !team_->is_local(owner);
}

namespace {
// Fetch sub-ops carried in the request's first byte.
constexpr std::uint8_t kOpMeta = 1;
constexpr std::uint8_t kOpSeq = 2;
constexpr std::uint8_t kOpRecord = 3;

/// Metadata of `contig`, or the default Meta when it is absent.
ContigStore::Meta meta_of(const dbg::Contig* contig) {
  ContigStore::Meta m;
  if (contig != nullptr) {
    m.length = static_cast<std::uint32_t>(contig->seq.size());
    m.avg_depth = static_cast<float>(contig->avg_depth);
    m.left_term = contig->left.code;
    m.right_term = contig->right.code;
  }
  return m;
}
}  // namespace

// wire-schema: contig_meta writer
void put_contig_meta(io::wire::Writer& w, const ContigStore::Meta& m) {
  w.put_u32(m.length);
  w.put_pod(m.avg_depth);  // wire: pod f32
  w.put_pod(m.left_term);  // wire: pod char
  w.put_pod(m.right_term);  // wire: pod char
}

// wire-schema: contig_meta reader
ContigStore::Meta get_contig_meta_checked(io::wire::Reader& r) {
  ContigStore::Meta m;
  m.length = r.get_u32_checked("meta length");
  m.avg_depth = r.get_pod_checked<float>("meta avg_depth");
  m.left_term = r.get_pod_checked<char>("meta left_term");
  m.right_term = r.get_pod_checked<char>("meta right_term");
  return m;
}

// wire-schema: contig_req writer
std::vector<std::byte> ContigStore::remote_call(std::uint8_t op,
                                                std::uint64_t id,
                                                int owner) const {
  std::vector<std::byte> req;
  io::wire::Writer w(req);
  w.put_pod(op);  // wire: pod u8
  w.put_u64(id);
  return team_->fabric().rpc(rpc_, owner, std::move(req));
}

// wire-schema: contig_req reader
std::vector<std::byte> ContigStore::serve_fetch(const std::byte* data,
                                                std::size_t size) const {
  io::wire::Reader r(data, size);
  const auto op = r.get_pod_checked<std::uint8_t>("contig op");
  const auto id = r.get_pod_checked<std::uint64_t>("contig id");
  const dbg::Contig* contig = local_lookup(id);
  std::vector<std::byte> resp;
  io::wire::Writer w(resp);
  switch (op) {
    case kOpMeta:
      put_contig_meta(w, meta_of(contig));
      break;
    case kOpSeq:
      w.put_bytes(contig != nullptr ? std::string_view(contig->seq)
                                    : std::string_view{});
      break;
    case kOpRecord:
      // An absent contig serializes to nothing; the caller's decode then
      // yields the same default record the threads path returns.
      if (contig != nullptr) dbg::serialize_contig(resp, *contig);
      break;
    default:
      throw io::wire::CorruptError("wire: corrupt: unknown contig fetch op");
  }
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

ContigStore::Meta ContigStore::meta(pgas::Rank& rank,
                                    std::uint64_t id HIPMER_SITE_PARAM) const {
#if defined(HIPMER_CHECKED)
  checked_.on_lookup(rank.id(), pgas::CheckedTable::Path::kFine,
                     pgas::to_site(hipmer_site));
#endif
  const int owner = owner_of(id);
  Meta m;
  if (remote(owner)) {
    const auto resp = remote_call(kOpMeta, id, owner);
    io::wire::Reader r(resp.data(), resp.size());
    m = get_contig_meta_checked(r);
  } else {
    m = meta_of(local_lookup(id));
  }
  rank.charge_message(owner, sizeof(Meta));
  return m;
}

std::string ContigStore::fetch(pgas::Rank& rank, std::uint64_t id,
                               std::uint32_t start,
                               std::uint32_t len HIPMER_SITE_PARAM) const {
#if defined(HIPMER_CHECKED)
  checked_.on_lookup(rank.id(), pgas::CheckedTable::Path::kFine,
                     pgas::to_site(hipmer_site));
#endif
  const int owner = owner_of(id);
  if (owner == rank.id()) {
    rank.stats().add_local_access();
    const dbg::Contig* contig = local_lookup(id);
    if (contig == nullptr || start >= contig->seq.size()) return {};
    return contig->seq.substr(start,
                              std::min<std::size_t>(len, contig->seq.size() - start));
  }

  // Remote: consult this rank's cache first (whole-contig granularity).
  auto& cache = caches_[static_cast<std::size_t>(rank.id())];
  const std::string* seq = cache.lookup(id, id);
  if (seq == nullptr) {
    std::string fetched;
    if (remote(owner)) {
      const auto resp = remote_call(kOpSeq, id, owner);
      io::wire::Reader r(resp.data(), resp.size());
      fetched = r.get_bytes_checked("contig seq");
    } else {
      const dbg::Contig* contig = local_lookup(id);
      if (contig != nullptr) fetched = contig->seq;
    }
    rank.charge_message(owner, fetched.size());
    seq = &cache.insert(id, id, std::move(fetched));
  }
  if (start >= seq->size()) return {};
  return seq->substr(start, std::min<std::size_t>(len, seq->size() - start));
}

std::string ContigStore::fetch_all(pgas::Rank& rank,
                                   std::uint64_t id HIPMER_SITE_PARAM) const {
  return fetch(rank, id, 0, 0xffffffffu HIPMER_SITE_FWD);
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

std::uint64_t ContigStore::local_bases(int rank) const {
  std::uint64_t total = 0;
  for (const auto& contig : shards_[static_cast<std::size_t>(rank)])
    total += contig.seq.size();
  return total;
}

dbg::Contig ContigStore::fetch_record(pgas::Rank& rank,
                                      std::uint64_t id
                                          HIPMER_SITE_PARAM) const {
#if defined(HIPMER_CHECKED)
  checked_.on_lookup(rank.id(), pgas::CheckedTable::Path::kFine,
                     pgas::to_site(hipmer_site));
#endif
  const int owner = owner_of(id);
  dbg::Contig copy;
  if (remote(owner)) {
    auto records = dbg::deserialize_contigs(remote_call(kOpRecord, id, owner));
    if (!records.empty()) copy = std::move(records.front());
  } else {
    const dbg::Contig* contig = local_lookup(id);
    if (contig != nullptr) copy = *contig;
  }
  rank.charge_message(owner, copy.seq.size() + 64);
  return copy;
}

}  // namespace hipmer::align
