// smq_run — the unified run driver over the registry subsystem.
//
// Composes scheduler x algorithm x graph x thread-count at runtime from
// the string-keyed registries, validates every result against the
// sequential oracle, and emits both a paper-style ASCII table and
// machine-readable JSON.
//
//   smq_run --list
//   smq_run --sched smq --algo sssp --graph rand --threads 8
//   smq_run --sched all --algo sssp --graph road --vertices 20000
//           --threads 1,4 --reps 3 --json results.json
//   smq_run --sched smq,mq-opt --dispatch batched --graph-cache /tmp/graphs
//   smq_run --sched smq --algo sssp --numa-grid nodes=1,2,4:k=1,4,8,16
//   smq_run --suite fig3_6 --threads 4 --json fig3_6.json
//
// Scheduler/algorithm/graph tunables (see --list) are passed as plain
// --key value options: --sched smq --steal-size 4 --p-steal 1/8 --numa k=8
//
// --suite expands one of the paper's figure sweeps (registry/suites.h)
// over its scheduler presets — same table, same JSON rows; the suite
// pins the preset grid, the CLI still controls graph/threads/reps.
//
// --numa-grid crosses a simulated-NUMA sweep (virtual node counts x
// remote-weight divisors K, Section 4 / Tables 16-27) with the
// scheduler x threads sweep: the Topology is rebuilt per grid point and
// every row reports the measured remote-access fraction next to the
// analytic expectation E.
//
// --dispatch selects how the executor crosses the scheduler boundary:
//   virtual  one AnyScheduler virtual call per push/pop (default)
//   batched  one virtual call per task batch (--batch-size, default 64)
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/listing.h"
#include "registry/numa_grid.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "registry/suite_runner.h"
#include "registry/suites.h"
#include "service/service_driver.h"
#include "support/cli.h"
#include "tuning/auto_select.h"

namespace {

using namespace smq;

/// Every flag this driver (and the suite runner it delegates to)
/// understands: the built-ins plus every registered tunable of every
/// scheduler, graph source and algorithm. Unknown flags are fatal —
/// a silently ignored "--steal-sice 8" measures the wrong config.
std::vector<std::string> known_flags() {
  std::vector<std::string> known = {
      "help",       "h",         "list",      "suite",    "sched",
      "algo",       "graph",     "threads",   "reps",     "json",
      "no-validate", "dispatch", "batch-size", "numa-grid", "graph-cache",
      "service",    "qps",       "queries",   "lanes",    "query-seed"};
  const auto add = [&known](const std::vector<Tunable>& tunables) {
    for (const Tunable& t : tunables) known.push_back(t.name);
  };
  for (const std::string& n : SchedulerRegistry::instance().names()) {
    add(SchedulerRegistry::instance().find(n)->tunables);
  }
  for (const std::string& n : GraphRegistry::instance().names()) {
    add(GraphRegistry::instance().find(n)->tunables);
  }
  for (const std::string& n : AlgorithmRegistry::instance().names()) {
    add(AlgorithmRegistry::instance().find(n)->tunables);
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());
  return known;
}

/// Reject misspelled flags with a nearest-name suggestion. Returns
/// false (after explaining on stderr) when any option is unknown.
bool check_flags(const ArgParser& args) {
  const std::vector<std::string> known = known_flags();
  bool ok = true;
  for (const auto& [key, value] : args.options()) {
    if (!std::binary_search(known.begin(), known.end(), key)) {
      std::cerr << unknown_flag_message(key, known) << "\n";
      ok = false;
    }
  }
  return ok;
}

/// "unknown scheduler: X (did you mean 'Y'?)" over the registry names
/// plus the "auto" pseudo-scheduler.
std::string unknown_scheduler_message(const std::string& name) {
  std::vector<std::string> known = SchedulerRegistry::instance().names();
  known.emplace_back(tuning::kAutoSchedulerName);
  std::string msg = "unknown scheduler: " + name;
  const std::string near = nearest_name(name, known);
  if (!near.empty()) msg += " (did you mean '" + near + "'?)";
  msg += " (see smq_run --list)";
  return msg;
}

bool is_auto_sched(const std::string& name) {
  return name == tuning::kAutoSchedulerName;
}

void print_suite_listing(std::ostream& os) {
  os << "\nsuites (--suite NAME reproduces the paper artifact):\n";
  for (const SuiteDef& suite : suites()) {
    os << "  " << suite.name << " - " << suite.figure << ": "
       << suite.description << " (" << suite.runs.size() << " configs)\n";
  }
}

/// `smq_run --service`: drive a query stream through a persistent
/// SchedulerService pool instead of one spawn/join sweep per row.
/// Closed loop by default; `--qps R` switches to open-loop Poisson
/// arrivals. Latency percentiles come from the service's lock-free
/// histogram and always include queue wait.
int run_service_mode(const ArgParser& args) {
  ParamMap params = ParamMap::from_args(args);

  const std::string graph_name = args.get("graph", "rand");
  const std::string graph_cache = args.get("graph-cache");
  GraphInstance graph;
  try {
    graph = graph_cache.empty()
                ? GraphRegistry::instance().create(graph_name, params)
                : GraphRegistry::instance().create_cached(graph_name, params,
                                                          graph_cache);
  } catch (const std::exception& e) {
    std::cerr << e.what() << " (see smq_run --list)\n";
    return 2;
  }

  std::vector<std::string> sched_names =
      split_list(args.get("sched", "smq"), ',');
  if (sched_names.size() == 1 && sched_names[0] == "all") {
    sched_names = SchedulerRegistry::instance().names();
  }
  for (const std::string& name : sched_names) {
    if (!is_auto_sched(name) &&
        SchedulerRegistry::instance().find(name) == nullptr) {
      std::cerr << unknown_scheduler_message(name) << "\n";
      return 2;
    }
  }

  std::vector<unsigned> thread_counts;
  try {
    thread_counts = parse_thread_list(args.get("threads", "4"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const std::string warn = oversubscription_warning(
      thread_counts, std::thread::hardware_concurrency());
  if (!warn.empty()) std::cerr << warn << "\n";

  const auto num_queries =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("queries", 100)));
  const double qps = args.get_double("qps", 0);
  const std::uint64_t seed = params.get_uint("query-seed", 1);
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 1)));
  const bool validate = !args.has_flag("no-validate");

  ServiceOptions opts;
  opts.lanes = static_cast<unsigned>(args.get_int("lanes", 0));
  opts.batch_size =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch-size", 8)));

  const std::vector<Query> queries =
      make_query_set(graph, num_queries, seed);

  std::cout << "graph: " << graph.name << " (" << graph.graph->num_vertices()
            << " vertices, " << graph.graph->num_edges() << " edges)\n"
            << "mode: service (" << num_queries << " queries, "
            << (qps > 0 ? "poisson @" + TablePrinter::fmt(qps, 0) + " qps"
                        : std::string("closed loop"))
            << ", batch-size " << opts.batch_size << ")\n";

  ServiceReport report;
  report.graph = graph;
  report.params = params;
  report.queries = num_queries;
  report.seed = seed;

  ServiceReference reference;
  if (validate) {
    reference = measure_service_reference(graph, queries, reps);
    report.reference = &reference;
    std::cout << "reference: " << num_queries << " sequential queries, "
              << TablePrinter::fmt(reference.seconds * 1e3) << " ms total\n";
  }
  std::cout << '\n';

  bool any_invalid = false;
  for (const std::string& name : sched_names) {
    for (const unsigned requested : thread_counts) {
      // The row keeps "auto" as its scheduler and reports the preset
      // resolve_auto picked.
      tuning::AutoSelection selection;
      std::string create_name = name;
      if (is_auto_sched(name)) {
        selection = tuning::resolve_auto(kServiceAlgorithm);
        create_name = selection.preset;
        std::cout << tuning::describe_selection(selection, kServiceAlgorithm,
                                                requested)
                  << "\n";
      }
      const unsigned threads = service_effective_threads(create_name, requested);
      ServiceRow best;
      for (int rep = 0; rep < reps; ++rep) {
        std::unique_ptr<QueryService> service =
            make_service(create_name, threads, params, graph, opts);
        const DriveResult drive = drive_service(*service, queries, qps, seed);
        service->stop();
        ServiceRow row;
        row.scheduler = name;
        if (is_auto_sched(name)) {
          row.preset = selection.preset;
          row.auto_match = selection.match;
          row.auto_why = selection.why;
        }
        row.threads = threads;
        row.lanes = service->num_lanes();
        row.batch_size = opts.batch_size;
        row.offered_qps = qps;
        row.reps = reps;
        row.stats = service->worker_stats();
        row.memory_footprint = service->memory_footprint();
        finalize_service_row(row, drive, service->latency_histogram(),
                             report.reference);
        const bool better = rep == 0 ||
                            (row.valid && !best.valid) ||
                            (row.valid == best.valid && row.seconds < best.seconds);
        if (better) best = std::move(row);
      }
      if (best.validated && !best.valid) any_invalid = true;
      report.rows.push_back(std::move(best));
    }
  }

  print_service_table(std::cout, report);
  if (!emit_service_json(report, args.get("json"), std::cout, std::cerr)) {
    return 2;
  }
  if (any_invalid) {
    std::cerr << "\nERROR: at least one service run produced a wrong answer\n";
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);

  if (args.has_flag("help") || args.has_flag("h")) {
    std::cout
        << "usage: smq_run [--list] [--sched NAMES|all] [--suite NAME] "
           "[--algo NAME]\n"
           "               [--graph NAME] [--threads N[,N...]] [--reps N] "
           "[--json PATH|-]\n"
           "               [--no-validate] [--dispatch "
           "virtual|batched] [--batch-size N]\n"
           "               [--numa-grid nodes=N,..:k=K,..] "
           "[--graph-cache DIR]\n"
           "               [--service [--qps R] [--queries N] [--lanes N] "
           "[--query-seed S]]\n"
           "               [--<tunable> VALUE ...]\n\n"
           "Runs algorithm x scheduler x threads sweeps over a graph and "
           "prints a table\nplus optional JSON. `--list` shows every "
           "registered scheduler, algorithm,\ngraph source and figure suite "
           "with its tunables. `--suite` expands one of\nthe paper's figure "
           "sweeps over its scheduler presets. `--dispatch` picks\nthe "
           "scheduler-boundary mode (one virtual call per task, or per "
           "batch);\n`--graph-cache DIR` caches "
           "generated graphs as binary\nCSR keyed by their parameters so "
           "repeated sweeps skip generation;\n`--numa-grid` crosses the "
           "sweep with simulated-NUMA grid points (nodes x K),\neach row "
           "reporting its measured remote-access fraction.\n\n"
           "`--sched auto` runs the paper's smq unless a measured rule names "
           "a preset\nthat beat it on both road and power-law graphs for the "
           "algorithm (bfs ->\npmod-d4); every row reports the chosen preset "
           "and the rule's evidence.\n\n"
           "`--service` runs point-to-point queries through a persistent "
           "worker-pool\nservice instead of one spawn/join run per row: "
           "`--queries N` random (s,t)\npairs (seeded by --query-seed) are "
           "submitted closed-loop, or open-loop at\nPoisson rate `--qps R`; "
           "rows report throughput plus p50/p90/p99 latency\n(queue wait "
           "included) from the service's lock-free histogram.\n";
    return 0;
  }
  if (args.has_flag("list")) {
    print_registry_listing(std::cout);
    print_suite_listing(std::cout);
    return 0;
  }

  if (!check_flags(args)) return 2;

  // ---- service mode ----------------------------------------------------
  // A persistent worker pool serving the query stream; none of the
  // sweep axes below (dispatch modes, numa grids) apply to it.
  if (args.has_flag("service")) {
    if (args.has_flag("suite") || args.has_flag("numa-grid")) {
      std::cerr << "--service cannot be combined with --suite or "
                   "--numa-grid\n";
      return 2;
    }
    return run_service_mode(args);
  }

  // ---- suite delegation ------------------------------------------------
  // A suite is a pinned sweep; the shared runner owns its whole CLI.
  if (args.has_flag("suite")) {
    if (args.has_flag("numa-grid")) {
      std::cerr << "--suite and --numa-grid cannot be combined (suites pin "
                   "their own sweep axes)\n";
      return 2;
    }
    if (args.has_flag("sched")) {
      std::cerr << "--suite and --sched cannot be combined (the suite "
                   "names its schedulers)\n";
      return 2;
    }
    const std::string suite_name = args.get("suite");
    if (find_suite(suite_name) == nullptr) {
      std::cerr << unknown_suite_message(suite_name) << "\n";
      return 2;
    }
    return run_suite_main(suite_name, argc, argv);
  }

  ParamMap params = ParamMap::from_args(args);

  // ---- dispatch mode ---------------------------------------------------
  const std::optional<DispatchMode> dispatch =
      resolve_dispatch_mode(args, params, std::cerr);
  if (!dispatch) return 2;
  const DispatchMode mode = *dispatch;

  // ---- resolve the three registry axes --------------------------------
  const std::string algo_name = args.get("algo", "sssp");
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
  if (algo == nullptr) {
    std::cerr << "unknown algorithm: " << algo_name
              << " (see smq_run --list)\n";
    return 2;
  }

  const std::string graph_name = args.get("graph", "rand");
  const std::string graph_cache = args.get("graph-cache");
  GraphInstance graph;
  try {
    graph = graph_cache.empty()
                ? GraphRegistry::instance().create(graph_name, params)
                : GraphRegistry::instance().create_cached(graph_name, params,
                                                          graph_cache);
  } catch (const std::exception& e) {
    std::cerr << e.what() << " (see smq_run --list)\n";
    return 2;
  }

  std::vector<std::string> sched_names = split_list(args.get("sched", "smq"), ',');
  if (sched_names.size() == 1 && sched_names[0] == "all") {
    sched_names = SchedulerRegistry::instance().names();
  }
  for (const std::string& name : sched_names) {
    if (!is_auto_sched(name) &&
        SchedulerRegistry::instance().find(name) == nullptr) {
      std::cerr << unknown_scheduler_message(name) << "\n";
      return 2;
    }
  }

  std::vector<unsigned> thread_counts;
  try {
    thread_counts = parse_thread_list(args.get("threads", "4"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const std::string warn = oversubscription_warning(
      thread_counts, std::thread::hardware_concurrency());
  if (!warn.empty()) std::cerr << warn << "\n";
  const int reps = static_cast<int>(args.get_int("reps", 1));
  const bool validate = !args.has_flag("no-validate");

  // ---- NUMA grid -------------------------------------------------------
  // Without --numa-grid the sweep has a single inactive point that
  // leaves the params (and any manual --numa) untouched.
  const std::string numa_grid_spec = args.get("numa-grid");
  std::vector<NumaGridPoint> numa_grid{NumaGridPoint{}};
  const bool grid_active = !numa_grid_spec.empty();
  if (grid_active) {
    try {
      numa_grid = parse_numa_grid(numa_grid_spec);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  if (grid_active &&
      std::any_of(sched_names.begin(), sched_names.end(), is_auto_sched)) {
    std::cerr << "--sched auto cannot be combined with --numa-grid (the "
                 "grid sweeps a scheduler axis auto has already pinned)\n";
    return 2;
  }

  std::cout << "graph: " << graph.name << " (" << graph.graph->num_vertices()
            << " vertices, " << graph.graph->num_edges() << " edges)\n"
            << "algorithm: " << algo_name << "\n"
            << "dispatch: " << to_string(mode);
  if (mode == DispatchMode::kBatched) {
    std::cout << " (batch-size " << params.get("batch-size") << ")";
  }
  std::cout << "\n";
  if (grid_active) {
    std::cout << "numa grid: " << numa_grid_spec << " (" << numa_grid.size()
              << " points)\n";
  }

  SweepReport report;
  report.algorithm = algo_name;
  report.graph = graph;
  report.params = params;
  report.dispatch = mode;
  report.numa_grid_spec = numa_grid_spec;

  // ---- sequential oracle ----------------------------------------------
  AlgoReference reference;
  if (validate) {
    reference = measure_reference(*algo, graph, params, reps);
    report.reference = &reference;
    std::cout << "reference: " << reference.reference_tasks << " tasks, "
              << TablePrinter::fmt(reference.seconds * 1e3)
              << " ms sequential\n";
  }
  std::cout << '\n';

  // ---- the sweep -------------------------------------------------------
  bool any_invalid = false;
  for (const std::string& name : sched_names) {
    if (is_auto_sched(name)) {
      // The row runs the resolved preset under whatever dispatch mode
      // was requested (same path as naming it by hand) and carries the
      // provenance into table/JSON.
      const tuning::AutoSelection sel = tuning::resolve_auto(algo_name);
      for (const unsigned requested : thread_counts) {
        const SchedulerEntry* entry =
            SchedulerRegistry::instance().find(sel.preset);
        std::cout << tuning::describe_selection(sel, algo_name, requested)
                  << "\n";
        SweepRow row;
        row.label = name;
        row.scheduler = sel.preset;
        row.auto_selected = true;
        row.auto_match = sel.match;
        row.auto_why = sel.why;
        row.requested_threads = requested;
        row.threads = effective_threads(*entry, requested);
        row.reps = std::max(1, reps);
        row.result = measure_sweep_row(*entry, *algo, graph, row.threads,
                                       params, report.reference, reps);
        if (row.result.validated && !row.result.valid) any_invalid = true;
        report.rows.push_back(std::move(row));
      }
      continue;
    }
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(name);
    // Schedulers that do not take the `numa` tunable (their factories
    // ignore it) run once, not once per grid point — rows claiming a
    // topology that never applied would poison the trajectory.
    const bool supports_numa =
        std::any_of(entry->tunables.begin(), entry->tunables.end(),
                    [](const Tunable& t) { return t.name == "numa"; });
    if (grid_active && !supports_numa) {
      std::cerr << "note: '" << name << "' takes no numa tunable; running "
                << "it once without the grid\n";
    }
    bool ran_without_grid = false;
    for (const NumaGridPoint& point : numa_grid) {
      const bool apply_grid = grid_active && supports_numa;
      if (grid_active && !supports_numa) {
        if (ran_without_grid) break;
        ran_without_grid = true;
      }
      // Each grid point rewrites the `numa` tunable, so the scheduler
      // factory rebuilds the simulated Topology for it.
      ParamMap run_params = params;
      if (apply_grid) apply_numa_point(run_params, point);
      for (const unsigned requested : thread_counts) {
        const unsigned threads = effective_threads(*entry, requested);
        SweepRow row;
        row.label = name;
        row.scheduler = name;
        row.requested_threads = requested;
        row.threads = threads;
        row.numa = apply_grid ? point : NumaGridPoint{};
        // The topology clamps nodes to the thread count (no empty
        // nodes); report the configuration that actually ran, so the
        // row's analytic E and measured remote_frac stay consistent.
        if (row.numa.nodes > threads) row.numa.nodes = threads;
        row.numa_grid = apply_grid;
        row.reps = std::max(1, reps);
        row.result = measure_sweep_row(*entry, *algo, graph, threads,
                                       run_params, report.reference, reps);
        if (row.result.validated && !row.result.valid) any_invalid = true;
        report.rows.push_back(std::move(row));
      }
    }
  }

  // ---- ASCII table + JSON ---------------------------------------------
  print_sweep_table(std::cout, report);
  if (!emit_sweep_json(report, args.get("json"), std::cout, std::cerr)) {
    return 2;
  }

  if (any_invalid) {
    std::cerr << "\nERROR: at least one scheduler produced a wrong answer\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "smq_run: " << e.what() << "\n";
    return 2;
  }
}
