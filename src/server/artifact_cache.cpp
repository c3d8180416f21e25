#include "server/artifact_cache.hpp"

#include <cstdio>
#include <cstring>
#include <system_error>

#include "io/fs_faults.hpp"
#include "io/wire.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hipmer::server {

namespace fs = std::filesystem;

namespace {

std::string key_name(std::uint64_t key) {
  char name[24];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(key));
  return name;
}

}  // namespace

// wire-schema: cache_meta writer
std::vector<std::byte> encode_cache_meta(const CacheMeta& meta) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(kCacheMetaMagic);  // wire: magic kCacheMetaMagic
  w.put_u32(kCacheMetaVersion);
  w.put_u64(meta.key);
  w.put_u64(meta.distinct_kmers);
  w.put_pod(meta.singleton_fraction);  // wire: pod double
  w.put_u64(meta.heavy_hitters);
  w.put_u32(static_cast<std::uint32_t>(meta.shards.size()));
  for (const auto& [bytes, crc] : meta.shards) {
    w.put_u64(bytes);
    w.put_u32(crc);
  }
  w.put_u32(util::crc32c(buf.data(), buf.size()));  // wire: crc32
  return buf;
}

// wire-schema: cache_meta reader
std::optional<CacheMeta> decode_cache_meta(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return std::nullopt;
  // Verify the trailing CRC over everything before it, first: no field of
  // a corrupt meta is worth interpreting.
  // wire: crc32
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof stored);
  if (util::crc32c(bytes.data(), body) != stored) return std::nullopt;

  io::wire::Reader r(bytes.data(), body);
  try {
    const auto magic =
        r.get_u32_checked("cache magic");  // wire: magic kCacheMetaMagic
    if (magic != kCacheMetaMagic) return std::nullopt;
    if (r.get_u32_checked("cache version") != kCacheMetaVersion)
      return std::nullopt;
    CacheMeta meta;
    meta.key = r.get_u64_checked("cache key");
    meta.distinct_kmers = r.get_u64_checked("cache distinct");
    meta.singleton_fraction = r.get_pod_checked<double>("cache singletons");
    meta.heavy_hitters = r.get_u64_checked("cache hh");
    const auto count = r.get_u32_checked("cache shard count");
    if (count > 4096) return std::nullopt;
    meta.shards.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto shard_size = r.get_u64_checked("cache shard bytes");
      const auto shard_crc = r.get_u32_checked("cache shard crc");
      meta.shards.emplace_back(shard_size, shard_crc);
    }
    if (!r.done()) return std::nullopt;
    return meta;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

ArtifactCache::ArtifactCache(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    util::log_warn("artifact cache: cannot create " + dir_.string() + ": " +
                   ec.message());
  // A producer that died mid-store leaves torn `.tmp` siblings; entries
  // without a committed meta.bin are ordinary misses, but the temp files
  // themselves would leak forever without this sweep.
  io::sweep_tmp_files(dir_);
}

fs::path ArtifactCache::entry_dir(std::uint64_t key) const {
  return dir_ / key_name(key);
}

std::optional<ArtifactCache::UfxArtifact> ArtifactCache::lookup_ufx(
    std::uint64_t key) {
  const fs::path entry = entry_dir(key);
  const auto miss = [&](const char* why) -> std::optional<UfxArtifact> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (why != nullptr) {
      // A validation failure (as opposed to a plain absence) leaves a
      // poisoned entry behind; drop it so the next producer repopulates.
      util::log_warn("artifact cache: dropping " + entry.string() + ": " +
                     why);
      std::error_code ec;
      fs::remove_all(entry, ec);
    }
    return std::nullopt;
  };

  const auto meta_bytes = io::read_file(entry / "meta.bin");
  if (!meta_bytes) return miss(nullptr);

  const auto meta = decode_cache_meta(*meta_bytes);
  if (!meta) return miss("corrupt meta");
  if (meta->key != key) return miss("key mismatch");

  UfxArtifact artifact;
  artifact.aux.distinct_kmers = meta->distinct_kmers;
  artifact.aux.singleton_fraction = meta->singleton_fraction;
  artifact.aux.heavy_hitters = meta->heavy_hitters;
  artifact.shards.reserve(meta->shards.size());
  for (std::size_t i = 0; i < meta->shards.size(); ++i) {
    auto bytes = io::read_file(entry / ("ufx." + std::to_string(i)));
    if (!bytes || bytes->size() != meta->shards[i].first ||
        util::crc32c(bytes->data(), bytes->size()) != meta->shards[i].second)
      return miss("shard corrupt");
    artifact.shards.push_back(std::move(*bytes));
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return artifact;
}

bool ArtifactCache::store_ufx(std::uint64_t key,
                              const std::vector<std::vector<std::byte>>& shards,
                              const ckpt::AuxStats& aux) {
  const fs::path entry = entry_dir(key);
  std::error_code ec;
  fs::create_directories(entry, ec);
  if (ec) return false;

  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (io::write_file_atomic(entry / ("ufx." + std::to_string(i)),
                              shards[i].data(), shards[i].size()) !=
        io::AtomicWriteStatus::kOk)
      return false;
  }

  CacheMeta meta;
  meta.key = key;
  meta.distinct_kmers = aux.distinct_kmers;
  meta.singleton_fraction = aux.singleton_fraction;
  meta.heavy_hitters = aux.heavy_hitters;
  meta.shards.reserve(shards.size());
  for (const auto& shard : shards)
    meta.shards.emplace_back(shard.size(),
                             util::crc32c(shard.data(), shard.size()));
  const auto bytes = encode_cache_meta(meta);
  // Commit point: lookups only believe entries whose meta landed whole.
  return io::write_file_atomic(entry / "meta.bin", bytes.data(),
                               bytes.size()) == io::AtomicWriteStatus::kOk;
}

}  // namespace hipmer::server
