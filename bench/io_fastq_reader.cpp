// §3.3 — parallel block FASTQ reader throughput.
//
// Paper claim being reproduced: the sampling + boundary-fast-forward block
// reader "obtains close to the I/O bandwidth achieved by reading SeqDB",
// i.e. it parallelizes cleanly, unlike the serial readers of Ray/ABySS.
// We measure (a) real wall throughput of the reader on this host across
// rank counts — correctness-equivalent shards, one pread stream per rank —
// and (b) the modeled seconds including the filesystem saturation term,
// contrasting the parallel reader with a serial read of the same file.

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "io/fastq.hpp"
#include "io/parallel_fastq.hpp"
#include "io/seqdb.hpp"
#include "pgas/thread_team.hpp"
#include "seq/read_store.hpp"
#include "sim/datasets.hpp"
#include "util/timer.hpp"

namespace {
std::atomic<std::size_t> benchmark_sink{0};
}  // namespace

int main(int argc, char** argv) {
  using namespace hipmer;
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 800'000));
  const std::string workdir =
      opts.get("workdir", std::filesystem::temp_directory_path().string());

  auto ds = sim::make_human_like(genome_len, 9119, 25.0);
  if (!sim::write_dataset_fastq(ds, workdir)) return 1;
  const std::string path = ds.libraries[0].fastq_path;
  const std::string sdb_path = workdir + "/reader_bench.sdb";
  if (!io::write_seqdb(sdb_path, ds.reads[0])) return 1;
  const auto file_size = std::filesystem::file_size(path);
  const auto sdb_size = std::filesystem::file_size(sdb_path);
  std::printf("§3.3 reproduction: FASTQ %.1f MB, SeqDB %.1f MB "
              "(compression factor %.2fx)\n",
              static_cast<double>(file_size) / 1e6,
              static_cast<double>(sdb_size) / 1e6,
              static_cast<double>(file_size) / static_cast<double>(sdb_size));

  pgas::MachineModel machine;
  util::TextTable table({"ranks", "records", "wall_s", "wall_MBps",
                         "seqdb_wall_s", "seqdb_MBps", "modeled_io_s",
                         "serial_modeled_io_s", "plain_read_MB",
                         "packed_read_MB", "read_mem_ratio"});
  for (const auto& scale : bench::default_scale_axis(opts)) {
    pgas::ThreadTeam team(scale.topology());
    io::ParallelFastqReader reader(path);
    std::vector<std::size_t> counts(static_cast<std::size_t>(scale.ranks));
    const auto before = team.snapshot_all();
    util::WallTimer timer;
    team.run([&](pgas::Rank& rank) {
      seq::ReadStore mine;
      reader.read_my_records(rank, mine);
      counts[static_cast<std::size_t>(rank.id())] = mine.size();
    });
    const double wall = timer.seconds();
    // Resident read memory, plain vs packed ingest of the same shards
    // (packed arenas compacted post-ingest, as the pipeline leaves them).
    std::vector<seq::ReadStore> plain_stores(
        static_cast<std::size_t>(scale.ranks), seq::ReadStore(false));
    std::vector<seq::ReadStore> packed_stores(
        static_cast<std::size_t>(scale.ranks), seq::ReadStore(true));
    team.run([&](pgas::Rank& rank) {
      const auto r = static_cast<std::size_t>(rank.id());
      reader.read_my_records(rank, plain_stores[r]);
      reader.read_my_records(rank, packed_stores[r]);
      packed_stores[r].shrink_to_fit();
    });
    std::size_t plain_bytes = 0;
    std::size_t packed_bytes = 0;
    for (const auto& s : plain_stores) plain_bytes += s.memory_bytes();
    for (const auto& s : packed_stores) packed_bytes += s.memory_bytes();
    // SeqDB comparison: the block-indexed binary reader on the same data.
    io::ParallelSeqdbReader sdb_reader(sdb_path);
    util::WallTimer sdb_timer;
    team.run([&](pgas::Rank& rank) {
      auto mine = sdb_reader.read_my_records(rank);
      benchmark_sink += mine.size();
    });
    const double sdb_wall = sdb_timer.seconds();
    const double modeled = machine.io_phase_seconds(
        bench::snapshot_delta(before, team.snapshot_all()), scale.topology());
    // Serial comparison: all bytes on one node.
    std::vector<std::uint64_t> serial_node_bytes(
        static_cast<std::size_t>(scale.topology().num_nodes()), 0);
    serial_node_bytes[0] = file_size;
    const double serial = machine.io_seconds_distributed(serial_node_bytes);
    std::size_t records = 0;
    for (auto c : counts) records += c;
    table.add_row({std::to_string(scale.ranks), std::to_string(records),
                   util::TextTable::fmt(wall, 3),
                   util::TextTable::fmt(static_cast<double>(file_size) / 1e6 / wall, 1),
                   util::TextTable::fmt(sdb_wall, 3),
                   util::TextTable::fmt(static_cast<double>(sdb_size) / 1e6 / sdb_wall, 1),
                   util::TextTable::fmt(modeled, 4),
                   util::TextTable::fmt(serial, 4),
                   util::TextTable::fmt(static_cast<double>(plain_bytes) / 1e6, 2),
                   util::TextTable::fmt(static_cast<double>(packed_bytes) / 1e6, 2),
                   util::TextTable::fmt(static_cast<double>(plain_bytes) /
                                            static_cast<double>(packed_bytes),
                                        2)});
  }
  hipmer::bench::emit(
      "io_fastq_reader",
      "§3.3: parallel block FASTQ reader vs SeqDB-style binary reader "
      "(paper: the FASTQ reader obtains close to SeqDB bandwidth, up to "
      "compression factor differences); modeled I/O scales until the "
      "filesystem saturates, serial reading does not scale at all",
      table);
  return 0;
}
