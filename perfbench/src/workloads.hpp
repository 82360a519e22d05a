// The four perfbench workloads (README.md "Workloads"). Each records
// its spans into `tracer`, which is enabled only for a traced run.
#pragma once

#include <string>

#include "report.hpp"

namespace perfbench {

/// fig5 scenario on the engine::Runner: Infocom-like trace + memoryless
/// twin, estimated OPT, the 7-tau step sweep.
Outcome run_sim_infocom(const RunOptions& options, Tracer& tracer);

/// fig4 power + step sweeps through the mean-field evaluator at N = 10^6.
Outcome run_mf_million(const RunOptions& options, Tracer& tracer);

/// replicationd over a Unix socket: `snapshots` selects ingest_snapshot
/// (10^5 nodes, by-sequence snapshots, /metrics scrapes) over
/// ingest_stream (10^4 nodes, final snapshot only).
Outcome run_ingest(const RunOptions& options, bool snapshots,
                   Tracer& tracer);

/// Compares a loss-table digest with the one recorded for the seed.
/// Returns false when the seed has no recorded digest (the caller then
/// runs its own fallback check). In record mode prints the reference
/// line and returns true. Throws when the reference file is unreadable
/// or corrupt.
bool check_reference(const RunOptions& options, const std::string& params,
                     std::uint64_t digest, Outcome& outcome);

}  // namespace perfbench
