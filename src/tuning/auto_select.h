// `--sched auto`: resolve a (graph, algorithm, threads) workload to a
// registered preset via the tuning metrics table.
//
// This is the runtime half of the subsystem: fingerprint the graph,
// load the table (file path, $SMQ_TUNING_TABLE, or the embedded copy),
// and walk the nearest-neighbor lookup in metrics_table.h. The result
// always names a preset the SchedulerRegistry can create, so callers
// can feed it straight into virtual or batched dispatch.
#pragma once

#include <string>
#include <string_view>

#include "registry/graph_registry.h"
#include "tuning/metrics_table.h"

namespace smq::tuning {

/// The pseudo-scheduler name accepted by smq_run / make_service.
inline constexpr std::string_view kAutoSchedulerName = "auto";

struct AutoSelection {
  std::string preset;  // registered preset key, ready for create()
  MatchKind match = MatchKind::kDefault;
  double confidence = 0;
  std::string why;           // explanation surfaced in table/JSON output
  std::string table_origin;  // table file path, or "embedded"
  WorkloadFingerprint fingerprint;
};

/// Resolve `auto` for one workload. `table_path` empty means
/// MetricsTable::default_path() (falling back to the embedded table
/// when the file does not exist); a non-empty path must load or this
/// throws. Unknown-preset rows are skipped via the scheduler registry.
AutoSelection select_scheduler(const GraphInstance& graph,
                               std::string_view algorithm, unsigned threads,
                               const std::string& table_path = {});

/// Same lookup against an already-loaded table (tests, repeated
/// per-thread-count resolution without re-reading the file).
AutoSelection select_scheduler(const MetricsTable& table,
                               std::string_view table_origin,
                               const WorkloadFingerprint& fp,
                               std::string_view algorithm, unsigned threads);

/// One-line provenance note, printed by drivers before running:
/// "auto: sssp @ 4t on road graph -> smq-p8 [exact] (...)".
std::string describe_selection(const AutoSelection& sel,
                               std::string_view algorithm, unsigned threads);

}  // namespace smq::tuning
