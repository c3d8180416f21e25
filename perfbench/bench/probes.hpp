#pragma once

#include "common.hpp"
#include "workloads.hpp"

/// Direct measurements of the PGAS layer on a workload's own k-mers.
///
/// `pgas.store_Mops` times `DistHashMap::update_buffered` + `flush`;
/// `pgas.lookup_Mops` and `pgas.lookup_cached_Mops` time `find_buffered` +
/// `process_lookups` without and with the per-rank `ReadCache`. The keys
/// are every k-mer instance of the input's first library, dealt to ranks
/// by read pair exactly as ingest deals them. `pgas.team_run_ms` is an
/// empty `ThreadTeam::run` round trip and `pgas.barrier_us` one
/// `Rank::barrier`.
namespace perfbench {

[[nodiscard]] MetricTable probe_pgas(const Input& input);

}  // namespace perfbench
