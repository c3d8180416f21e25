#include "kcount/ufx_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "io/fs_faults.hpp"

namespace hipmer::kcount {

namespace {

std::string shard_path(const std::string& path, int shard) {
  return path + "." + std::to_string(shard);
}

}  // namespace

bool write_ufx_shard(pgas::Rank& rank, const std::string& path,
                     const std::vector<UfxRecord>& records) {
  // Crash consistency: the whole shard commits through a temp file and an
  // atomic rename (under the fs-fault shim), so a crash leaves either the
  // old complete shard or a stray .tmp — never a torn `<path>.<rank>`.
  std::string text;
  for (const auto& [kmer, summary] : records) {
    text += kmer.to_string();
    text += '\t';
    text += std::to_string(summary.depth);
    text += '\t';
    text += summary.left_ext;
    text += summary.right_ext;
    text += '\n';
  }
  if (io::write_file_atomic(shard_path(path, rank.id()), text.data(),
                            text.size()) != io::AtomicWriteStatus::kOk)
    return false;
  rank.stats().add_io_write(text.size());
  return true;
}

std::vector<UfxRecord> read_ufx_shard(const std::string& path, int shard,
                                      std::uint64_t* io_bytes) {
  const auto file = shard_path(path, shard);
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot open UFX shard: " + file);
  if (io_bytes != nullptr) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(file, ec);
    *io_bytes = ec ? 0 : static_cast<std::uint64_t>(size);
  }
  std::vector<UfxRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kmer_str;
    std::uint32_t depth = 0;
    std::string ext;
    if (!(fields >> kmer_str >> depth >> ext) || ext.size() != 2)
      throw std::runtime_error("malformed UFX line in " + file + ": " + line);
    KmerSummary summary;
    summary.depth = depth;
    summary.left_ext = ext[0];
    summary.right_ext = ext[1];
    records.emplace_back(seq::KmerT::from_string(kmer_str), summary);
  }
  return records;
}

std::vector<UfxRecord> read_ufx_shards(pgas::Rank& rank,
                                       const std::string& path,
                                       int num_shards) {
  std::vector<UfxRecord> mine;
  for (int shard = rank.id(); shard < num_shards; shard += rank.nranks()) {
    std::uint64_t bytes = 0;
    auto records = read_ufx_shard(path, shard, &bytes);
    rank.stats().add_io_read(bytes);
    mine.insert(mine.end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
  }
  rank.barrier();
  return mine;
}

}  // namespace hipmer::kcount
