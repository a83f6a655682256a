// Shared sweep execution and emission for the run driver and the figure
// suites.
//
// One (scheduler, params, threads) result row and one table/JSON
// emission path, used by both the ad-hoc `smq_run --sched ...` sweep and
// the suite expansion (`smq_run --suite fig3_6`, bench_fig*_* wrappers)
// — "the suite emits the same rows as an ad-hoc sweep" is structural,
// not a convention. run_suite() expands a SuiteDef against the
// registries; run_suite_main() is the complete CLI entry point the thin
// bench wrappers delegate to.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/numa_grid.h"
#include "registry/params.h"
#include "registry/scheduler_registry.h"
#include "registry/suites.h"

namespace smq {

class ArgParser;

/// How the run driver crosses the scheduler boundary. Both modes run the
/// same AnyScheduler handle path and differ only in `batch-size`.
enum class DispatchMode {
  kVirtual,  // one virtual call per push/pop
  kBatched,  // one virtual call per task batch
};

std::optional<DispatchMode> parse_dispatch_mode(std::string_view name);
std::string_view to_string(DispatchMode mode);

/// One result row of a sweep (ad-hoc or suite).
struct SweepRow {
  std::string label;      // display / JSON "scheduler" (unique per row)
  std::string scheduler;  // registry key (JSON "preset" when != label)
  ParamMap row_params;    // per-run overrides (suite grids; empty ad-hoc)
  unsigned requested_threads = 0;
  unsigned threads = 0;   // effective (clamped) count
  NumaGridPoint numa;     // this row's grid point (inactive w/o a grid)
  bool numa_grid = false; // row came from a --numa-grid sweep
  AlgoResult result;
  int reps = 1;
  // `--sched auto` provenance: the row ran `scheduler` because
  // resolve_auto picked it (label stays "auto"); match kind and the
  // rule's evidence are surfaced in the table and JSON.
  bool auto_selected = false;
  std::string auto_match;  // "rule" | "default"
  std::string auto_why;
};

/// Everything the table and JSON emitters need about one sweep.
struct SweepReport {
  std::string algorithm;
  GraphInstance graph;
  ParamMap params;             // global params (graph + CLI tunables)
  DispatchMode dispatch = DispatchMode::kVirtual;
  std::string numa_grid_spec;  // empty without a grid
  std::string suite;           // suite name; empty for ad-hoc sweeps
  const AlgoReference* reference = nullptr;  // null without validation
  std::vector<SweepRow> rows;
};

/// The paper-style fixed-width table over the report's rows.
void print_sweep_table(std::ostream& os, const SweepReport& report);

/// The machine-readable report (tools/perf_check.py's input format).
void write_sweep_json(std::ostream& os, const SweepReport& report);

/// Route the report per `json_path`: "" = no JSON, "-" = onto `out`
/// after the table, else a file (noting the write on `out`). Returns
/// false when the file cannot be opened.
bool emit_sweep_json(const SweepReport& report, const std::string& json_path,
                     std::ostream& out, std::ostream& err);

/// The sequential oracle with its wall time taken best-of-`reps`: it is
/// the speedup normalizer the CI perf gate compares, so it must not be
/// a single noisy sample.
AlgoReference measure_reference(const AlgorithmEntry& algo,
                                const GraphInstance& graph,
                                const ParamMap& params, int reps);

/// Best-of-`reps` measurement of one sweep row under `entry`'s factory.
/// Prefers valid results, then the fastest wall time. `threads` must
/// already be clamped via effective_threads().
AlgoResult measure_sweep_row(const SchedulerEntry& entry,
                             const AlgorithmEntry& algo,
                             const GraphInstance& graph, unsigned threads,
                             const ParamMap& run_params,
                             const AlgoReference* ref, int reps);

/// Normalize --dispatch/--batch-size into the mode that will actually
/// run: the executor picks its loop from batch-size alone, so
/// `--batch-size 64` without `--dispatch` IS a batched run and
/// `--dispatch batched` defaults batch-size to 64. Returns nullopt (and
/// explains on `err`) for an unknown mode name. The perf gate keys
/// baseline rows on this label; it must not lie.
std::optional<DispatchMode> resolve_dispatch_mode(const ArgParser& args,
                                                  ParamMap& params,
                                                  std::ostream& err);

struct SuiteOptions {
  std::vector<unsigned> threads;  // empty = the suite's default sweep
  int reps = 1;
  bool validate = true;
  DispatchMode dispatch = DispatchMode::kVirtual;
  ParamMap cli_params;        // --key value tunables + graph overrides
  std::string algo_override;  // empty = suite default
  std::string graph_override;
  std::string graph_cache;    // --graph-cache DIR; empty = no cache
  std::string json_path;      // --json PATH|-; empty = table only
};

/// Expand `suite` into its preset x threads sweep, validate against the
/// sequential oracle, print the table (and JSON when requested) to
/// `out`. Returns 0 on success, 1 when any row failed validation, 2 on
/// configuration errors.
int run_suite(const SuiteDef& suite, const SuiteOptions& opts,
              std::ostream& out, std::ostream& err);

/// Full CLI entry point over run_suite(): parses --threads/--reps/
/// --dispatch/--json/--graph/--algo/--graph-cache/--no-validate plus
/// scheduler tunables from argv. The bench figure binaries are thin
/// wrappers over this.
int run_suite_main(std::string_view suite_name, int argc, char** argv);

}  // namespace smq
