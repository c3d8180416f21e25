#include "ckpt/snapshot_store.hpp"

#include <system_error>

#include "io/fs_faults.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hipmer::ckpt {

namespace fs = std::filesystem;

std::size_t SnapshotStore::sweep_orphans() const {
  return io::sweep_tmp_files(dir_);
}

std::optional<Manifest> SnapshotStore::load_manifest() const {
  const auto bytes = io::read_file(fs::path(dir_) / "manifest.bin");
  if (!bytes) return std::nullopt;
  auto manifest = decode_manifest(*bytes);
  if (!manifest)
    util::log_warn("ckpt: corrupt manifest at " + dir_ +
                   "/manifest.bin; ignoring all checkpoints");
  return manifest;
}

bool SnapshotStore::write_manifest(const Manifest& manifest) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return false;
  const auto bytes = encode_manifest(manifest);
  // Exception-free: failure and simulated crash both mean "not committed";
  // the startup sweep reclaims any debris.
  return io::write_file_atomic(fs::path(dir_) / "manifest.bin", bytes.data(),
                               bytes.size()) == io::AtomicWriteStatus::kOk;
}

fs::path SnapshotStore::entry_dir(const StageEntry& entry) const {
  return fs::path(dir_) / (entry.stage + "." + std::to_string(entry.seq));
}

fs::path SnapshotStore::shard_path(const StageEntry& entry,
                                   std::uint32_t shard) const {
  return entry_dir(entry) / ("shard." + std::to_string(shard));
}

bool SnapshotStore::prepare_entry(const StageEntry& entry) const {
  std::error_code ec;
  fs::create_directories(entry_dir(entry), ec);
  return !ec;
}

bool SnapshotStore::write_shard(const StageEntry& entry, std::uint32_t shard,
                                const std::vector<std::byte>& payload) const {
  return io::write_file_atomic(shard_path(entry, shard), payload.data(),
                               payload.size()) == io::AtomicWriteStatus::kOk;
}

std::optional<std::vector<std::byte>> SnapshotStore::read_shard(
    const StageEntry& entry, std::uint32_t shard) const {
  if (shard >= entry.shard_count) return std::nullopt;
  auto bytes = io::read_file(shard_path(entry, shard));
  if (!bytes) return std::nullopt;
  if (bytes->size() != entry.shard_bytes[shard] ||
      util::crc32c(bytes->data(), bytes->size()) != entry.shard_crcs[shard]) {
    util::log_warn("ckpt: shard " + shard_path(entry, shard).string() +
                   " fails size/CRC validation");
    return std::nullopt;
  }
  return bytes;
}

void SnapshotStore::remove_entry(const StageEntry& entry) const {
  std::error_code ec;
  fs::remove_all(entry_dir(entry), ec);
}

}  // namespace hipmer::ckpt
