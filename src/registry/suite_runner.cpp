#include "registry/suite_runner.h"

#include <fstream>
#include <iostream>
#include <ostream>

#include "registry/scheduler_registry.h"
#include "support/cli.h"
#include "support/json_writer.h"

namespace smq {

void print_sweep_table(std::ostream& os, const SweepReport& report) {
  const AlgoReference* ref = report.reference;
  TablePrinter table({"scheduler", "threads", "dispatch", "numa", "time ms",
                      "tasks", "wasted", "work inc", "speedup", "remote",
                      "valid"});
  for (const SweepRow& row : report.rows) {
    const ThreadStats& stats = row.result.run.stats;
    const double work_inc =
        ref != nullptr && ref->reference_tasks > 0
            ? row.result.run.work_increase(ref->reference_tasks)
            : 0;
    const double speedup = ref != nullptr && row.result.run.seconds > 0
                               ? ref->seconds / row.result.run.seconds
                               : 0;
    // Auto rows show the preset resolve_auto picked, not just "auto" —
    // the chosen config must be readable off the table.
    const std::string label =
        row.auto_selected ? row.label + ":" + row.scheduler : row.label;
    table.add_row(
        {label, std::to_string(row.threads),
         std::string(to_string(report.dispatch)),
         row.numa_grid ? row.numa.label() : report.params.get("numa", "-"),
         TablePrinter::fmt(row.result.run.seconds * 1e3),
         std::to_string(stats.pops), std::to_string(stats.wasted),
         ref != nullptr ? TablePrinter::fmt(work_inc) : "-",
         ref != nullptr ? TablePrinter::fmt(speedup) : "-",
         stats.sampled_accesses > 0 ? TablePrinter::fmt(stats.remote_frac())
                                    : "-",
         row.result.validated ? (row.result.valid ? "yes" : "NO") : "-"});
  }
  table.print(os);
}

void write_sweep_json(std::ostream& os, const SweepReport& report) {
  const AlgoReference* ref = report.reference;
  JsonWriter json(os);
  json.begin_object();
  json.member("tool", "smq_run");
  if (!report.suite.empty()) json.member("suite", report.suite);
  json.member("algorithm", report.algorithm);
  json.member("dispatch", std::string(to_string(report.dispatch)));
  if (!report.numa_grid_spec.empty()) {
    json.member("numa_grid", report.numa_grid_spec);
  }

  json.key("graph").begin_object();
  json.member("name", report.graph.name);
  json.member("vertices",
              static_cast<std::uint64_t>(report.graph.graph->num_vertices()));
  json.member("edges",
              static_cast<std::uint64_t>(report.graph.graph->num_edges()));
  json.end_object();

  json.key("params").begin_object();
  for (const auto& [key, value] : report.params.entries()) {
    json.member(key, value);
  }
  json.end_object();

  if (ref != nullptr) {
    json.key("reference").begin_object();
    json.member("tasks", ref->reference_tasks);
    json.member("answer", ref->reference_answer);
    json.member("seconds", ref->seconds);
    json.end_object();
  }

  json.key("results").begin_array();
  for (const SweepRow& row : report.rows) {
    const ThreadStats& stats = row.result.run.stats;
    json.begin_object();
    json.member("scheduler", row.label);
    if (row.label != row.scheduler) json.member("preset", row.scheduler);
    if (row.auto_selected) {
      json.member("auto", true);
      json.member("auto_match", row.auto_match);
      json.member("auto_why", row.auto_why);
    }
    if (!row.row_params.entries().empty()) {
      json.key("params").begin_object();
      for (const auto& [key, value] : row.row_params.entries()) {
        json.member(key, value);
      }
      json.end_object();
    }
    json.member("threads", row.threads);
    if (row.threads != row.requested_threads) {
      json.member("requested_threads", row.requested_threads);
    }
    json.member("dispatch", std::string(to_string(report.dispatch)));
    if (row.numa_grid) {
      json.member("numa_nodes", row.numa.nodes);
      if (row.numa.k_set) json.member("numa_k", row.numa.k);
      json.member("internal_frac_expected",
                  expected_internal_fraction(row.numa, row.threads));
    }
    json.member("seconds", row.result.run.seconds);
    json.member("tasks", stats.pops);
    json.member("wasted", stats.wasted);
    json.member("pushes", stats.pushes);
    json.member("empty_pops", stats.empty_pops);
    json.member("steals", stats.steals);
    if (stats.sampled_accesses > 0) {
      json.member("sampled_accesses", stats.sampled_accesses);
      json.member("remote_accesses", stats.remote_accesses);
      json.member("remote_frac", stats.remote_frac());
    }
    if (ref != nullptr && ref->reference_tasks > 0) {
      json.member("work_increase",
                  row.result.run.work_increase(ref->reference_tasks));
    }
    if (ref != nullptr && ref->seconds > 0 && row.result.run.seconds > 0) {
      json.member("speedup_vs_seq", ref->seconds / row.result.run.seconds);
    }
    json.member("reps", row.reps);
    if (row.result.validated) {
      json.member("valid", row.result.valid);
    }
    json.member("answer", row.result.answer);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

bool emit_sweep_json(const SweepReport& report, const std::string& json_path,
                     std::ostream& out, std::ostream& err) {
  if (json_path.empty()) return true;
  if (json_path == "-") {
    write_sweep_json(out, report);
    return true;
  }
  std::ofstream file(json_path);
  if (!file) {
    err << "cannot write " << json_path << "\n";
    return false;
  }
  write_sweep_json(file, report);
  out << "\nwrote " << json_path << "\n";
  return true;
}

AlgoReference measure_reference(const AlgorithmEntry& algo,
                                const GraphInstance& graph,
                                const ParamMap& params, int reps) {
  AlgoReference reference = algo.make_reference(graph, params);
  for (int rep = 1; rep < reps; ++rep) {
    const AlgoReference again = algo.make_reference(graph, params);
    if (again.seconds < reference.seconds) reference.seconds = again.seconds;
  }
  return reference;
}

AlgoResult measure_sweep_row(const SchedulerEntry& entry,
                             const AlgorithmEntry& algo,
                             const GraphInstance& graph, unsigned threads,
                             const ParamMap& run_params,
                             const AlgoReference* ref, int reps) {
  AlgoResult best;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    AnyScheduler sched = entry.make(threads, run_params);
    const AlgoResult result = algo.run(graph, sched, threads, run_params, ref);
    const bool better = rep == 0 || (result.valid && !best.valid) ||
                        (result.valid == best.valid &&
                         result.run.seconds < best.run.seconds);
    if (better) best = result;
  }
  return best;
}

std::optional<DispatchMode> parse_dispatch_mode(std::string_view name) {
  if (name == "virtual") return DispatchMode::kVirtual;
  if (name == "batched") return DispatchMode::kBatched;
  return std::nullopt;
}

std::string_view to_string(DispatchMode mode) {
  return mode == DispatchMode::kBatched ? "batched" : "virtual";
}

std::optional<DispatchMode> resolve_dispatch_mode(const ArgParser& args,
                                                  ParamMap& params,
                                                  std::ostream& err) {
  const std::string dispatch_name = args.get("dispatch", "virtual");
  const std::optional<DispatchMode> dispatch =
      parse_dispatch_mode(dispatch_name);
  if (!dispatch) {
    err << "unknown dispatch mode: " << dispatch_name
        << " (expected virtual or batched)\n";
    return std::nullopt;
  }
  // Batched dispatch amortizes the erasure boundary over --batch-size
  // tasks; default it so `--dispatch batched` alone does something.
  if (*dispatch == DispatchMode::kBatched && !params.has("batch-size")) {
    params.set("batch-size", "64");
  }
  const DispatchMode mode = params.get_int("batch-size", 1) > 1
                                ? DispatchMode::kBatched
                                : DispatchMode::kVirtual;
  if (mode != *dispatch) {
    err << "note: --batch-size " << params.get("batch-size", "1")
        << " makes this a " << to_string(mode) << " run\n";
  }
  return mode;
}

int run_suite(const SuiteDef& suite, const SuiteOptions& opts,
              std::ostream& out, std::ostream& err) {
  const std::string algo_name =
      opts.algo_override.empty() ? suite.algo : opts.algo_override;
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
  if (algo == nullptr) {
    err << "unknown algorithm: " << algo_name << " (see smq_run --list)\n";
    return 2;
  }

  // Graph: suite defaults under the CLI's overrides.
  const std::string graph_name =
      opts.graph_override.empty() ? suite.graph : opts.graph_override;
  ParamMap params = suite.graph_params;
  for (const auto& [key, value] : opts.cli_params.entries()) {
    params.set(key, value);
  }
  SweepReport report;
  try {
    report.graph =
        opts.graph_cache.empty()
            ? GraphRegistry::instance().create(graph_name, params)
            : GraphRegistry::instance().create_cached(graph_name, params,
                                                      opts.graph_cache);
  } catch (const std::exception& e) {
    err << e.what() << " (see smq_run --list)\n";
    return 2;
  }
  report.algorithm = algo_name;
  report.params = params;
  report.dispatch = opts.dispatch;
  report.suite = suite.name;

  const std::vector<unsigned>& thread_counts =
      opts.threads.empty() ? suite.threads : opts.threads;
  const int reps = std::max(1, opts.reps);

  out << "suite: " << suite.name << " (" << suite.figure << ": "
      << suite.description << ")\n"
      << "graph: " << report.graph.name << " ("
      << report.graph.graph->num_vertices() << " vertices, "
      << report.graph.graph->num_edges() << " edges)\n"
      << "algorithm: " << algo_name << "\n"
      << "dispatch: " << to_string(opts.dispatch);
  if (opts.dispatch == DispatchMode::kBatched) {
    out << " (batch-size " << params.get("batch-size") << ")";
  }
  out << "\n";

  AlgoReference reference;
  if (opts.validate) {
    reference = measure_reference(*algo, report.graph, params, reps);
    report.reference = &reference;
    out << "reference: " << reference.reference_tasks << " tasks, "
        << TablePrinter::fmt(reference.seconds * 1e3) << " ms sequential\n";
  }
  out << '\n';

  bool any_invalid = false;
  for (const SuiteRun& run : suite.runs) {
    const SchedulerEntry* entry =
        SchedulerRegistry::instance().find(run.scheduler);
    if (entry == nullptr) {
      err << "suite " << suite.name << " names unknown scheduler: "
          << run.scheduler << "\n";
      return 2;
    }
    // The run's grid point wins over conflicting CLI tunables — it IS
    // the suite's sweep axis.
    ParamMap run_params = params;
    for (const auto& [key, value] : run.params.entries()) {
      run_params.set(key, value);
    }
    for (const unsigned requested : thread_counts) {
      SweepRow row;
      row.label = suite_run_label(run);
      row.scheduler = run.scheduler;
      row.row_params = run.params;
      row.requested_threads = requested;
      row.threads = effective_threads(*entry, requested);
      row.reps = reps;
      row.result = measure_sweep_row(*entry, *algo, report.graph, row.threads,
                                     run_params, report.reference, reps);
      if (row.result.validated && !row.result.valid) any_invalid = true;
      report.rows.push_back(std::move(row));
    }
  }

  print_sweep_table(out, report);
  if (!emit_sweep_json(report, opts.json_path, out, err)) return 2;

  if (any_invalid) {
    err << "\nERROR: at least one scheduler produced a wrong answer\n";
    return 1;
  }
  return 0;
}

int run_suite_main(std::string_view suite_name, int argc, char** argv) {
  const ArgParser args(argc, argv);
  const SuiteDef* suite = find_suite(suite_name);
  if (suite == nullptr) {
    std::cerr << unknown_suite_message(suite_name) << "\n";
    return 2;
  }

  if (args.has_flag("help") || args.has_flag("h")) {
    std::cout << "usage: reproduce " << suite->figure << " ("
              << suite->description << ")\n"
                 "  [--threads N[,N...]] [--reps N] [--json PATH|-]\n"
                 "  [--dispatch virtual|batched] [--batch-size N]\n"
                 "  [--graph NAME] [--algo NAME] [--graph-cache DIR]\n"
                 "  [--no-validate] [--<tunable> VALUE ...]\n\n"
                 "Expands the suite's preset sweep through the registry "
                 "runners; every row\nis validated against the sequential "
                 "oracle. See also: smq_run --suite "
              << suite->name << "\n";
    return 0;
  }

  SuiteOptions opts;
  opts.cli_params = ParamMap::from_args(args);

  const std::optional<DispatchMode> mode =
      resolve_dispatch_mode(args, opts.cli_params, std::cerr);
  if (!mode) return 2;
  opts.dispatch = *mode;

  if (args.has_flag("threads")) {
    try {
      opts.threads = parse_thread_list(args.get("threads"));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  opts.reps = static_cast<int>(args.get_int("reps", 1));
  opts.validate = !args.has_flag("no-validate");
  opts.algo_override = args.get("algo");
  opts.graph_override = args.get("graph");
  opts.graph_cache = args.get("graph-cache");
  opts.json_path = args.get("json");

  try {
    return run_suite(*suite, opts, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "suite " << suite->name << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace smq
