// smq_tune — the offline tuner behind `--sched auto`.
//
// Sweeps a declarative preset grid per (graph, algorithm, threads),
// takes best-of-reps measurements through the same suite_runner
// primitives as smq_run, and records the winner per (graph class,
// algorithm, threads) key in the tuning metrics table
// (data/tuning/metrics_table.json). Merges are atomic (tmp + rename)
// and resumable, so a time-budgeted run can be continued later.
//
//   smq_tune --dry-run                      # show the planned grid
//   smq_tune --reps 5                       # measure + merge the table
//   smq_tune --graphs "rand,vertices=50000,seed=7" --algos sssp
//   smq_tune --verify-only --skip-missing   # CI staleness check
//
// The default grid covers the three graph classes with the two small
// checked-in DIMACS samples plus a seeded synthetic; everything about
// the emitted table except the measured timings is deterministic.
//
// --verify-only re-measures each table row on the graph spec it was
// recorded from and fails when the row's speedup_vs_seq (the
// machine-transferable metric, same as tools/perf_check.py) regressed
// past the budget — the CI staleness gate for the checked-in table.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/suite_runner.h"
#include "support/cli.h"
#include "tuning/fingerprint.h"
#include "tuning/metrics_table.h"

namespace {

using namespace smq;
using tuning::MetricsRow;
using tuning::MetricsTable;

constexpr const char* kDefaultGraphs =
    "dimacs:data/tuning/road_sample.gr"
    ";dimacs:data/tuning/social_sample.gr"
    ";rand,vertices=6000,edges=48000";

constexpr const char* kDefaultAlgos = "sssp,bfs,astar";
constexpr const char* kDefaultThreads = "1,2,4";

// One representative preset per family axis the paper sweeps — wide
// enough that every class has a plausible winner, small enough that a
// full regeneration stays in CI budget. --presets overrides.
constexpr const char* kDefaultPresets =
    "smq,smq-p4,smq-p16,smq-sl-p4,mq-c4,mq-tl-p16,mq-opt-none,mq-opt-full,"
    "obim-d4,pmod-d4,reld-c4";

struct GraphSpec {
  std::string display;  // the spec text, recorded as row provenance
  std::string name;     // registry key (possibly "dimacs:PATH" inline)
  ParamMap params;
};

/// "name[,k=v...]" — the list form of --graphs, ';'-separated so graph
/// tunables can keep their ','-free k=v syntax.
GraphSpec parse_graph_spec(const std::string& text, std::uint64_t seed) {
  GraphSpec spec;
  spec.display = text;
  const std::vector<std::string> parts = split_list(text, ',');
  if (parts.empty()) throw std::invalid_argument("empty graph spec");
  spec.name = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("graph spec '" + text +
                                  "': expected key=value, got '" + parts[i] +
                                  "'");
    }
    spec.params.set(parts[i].substr(0, eq), parts[i].substr(eq + 1));
  }
  // Synthetic sources default their generator seed from --seed so a
  // regeneration is reproducible without every spec spelling one; the
  // recorded provenance keeps the resolved value.
  if (spec.name.find(':') == std::string::npos && !spec.params.has("seed")) {
    spec.params.set("seed", std::to_string(seed));
    spec.display += ",seed=" + std::to_string(seed);
  }
  return spec;
}

GraphInstance create_graph(const GraphSpec& spec, const std::string& cache_dir) {
  return cache_dir.empty()
             ? GraphRegistry::instance().create(spec.name, spec.params)
             : GraphRegistry::instance().create_cached(spec.name, spec.params,
                                                       cache_dir);
}

double tasks_per_sec(const AlgoResult& result) {
  return result.run.seconds > 0
             ? static_cast<double>(result.run.stats.pops) / result.run.seconds
             : 0;
}

std::vector<std::string> known_flags() {
  return {"help",       "h",          "graphs",     "algos",
          "threads",    "presets",    "reps",       "seed",
          "table",      "json",       "graph-cache", "time-budget",
          "resume",     "dry-run",    "verify-only", "skip-missing",
          "max-regression", "max-regression-mt"};
}

bool check_flags(const ArgParser& args) {
  std::vector<std::string> known = known_flags();
  std::sort(known.begin(), known.end());
  bool ok = true;
  for (const auto& [key, value] : args.options()) {
    if (!std::binary_search(known.begin(), known.end(), key)) {
      std::cerr << unknown_flag_message(key, known) << "\n";
      ok = false;
    }
  }
  return ok;
}

// ---- tuning ---------------------------------------------------------------

struct TuneOptions {
  std::vector<GraphSpec> graphs;
  std::vector<std::string> algos;
  std::vector<unsigned> threads;
  std::vector<std::string> presets;
  int reps = 3;
  std::string table_path;
  std::string json_path;
  std::string graph_cache;
  double time_budget_sec = 0;  // 0 = unlimited
  bool resume = false;
  bool dry_run = false;
};

int run_tune(const TuneOptions& opts) {
  const auto& schedulers = SchedulerRegistry::instance();
  const auto& algorithms = AlgorithmRegistry::instance();

  for (const std::string& preset : opts.presets) {
    if (schedulers.find(preset) == nullptr) {
      std::cerr << "smq_tune: unknown preset '" << preset << "'";
      const std::string near = nearest_name(preset, schedulers.names());
      if (!near.empty()) std::cerr << " (did you mean '" << near << "'?)";
      std::cerr << "\n";
      return 2;
    }
  }
  for (const std::string& algo : opts.algos) {
    if (algorithms.find(algo) == nullptr) {
      std::cerr << "smq_tune: unknown algorithm '" << algo << "'\n";
      return 2;
    }
  }

  // Merge over the existing file when present; a missing file starts a
  // fresh table (the embedded copy is a runtime fallback, not a merge
  // base — merging it in would resurrect rows the user deleted).
  MetricsTable table;
  std::string origin;
  try {
    table = MetricsTable::load_or_embedded(opts.table_path, &origin);
  } catch (const std::exception& e) {
    std::cerr << "smq_tune: " << e.what() << "\n";
    return 2;
  }
  if (origin == "embedded") table = MetricsTable{};
  std::cout << "table: " << opts.table_path << " ("
            << (origin == "embedded"
                    ? "new"
                    : std::to_string(table.rows.size()) + " existing rows")
            << ")\n";

  if (opts.dry_run) {
    std::cout << "planned grid (dry run):\n";
    for (const GraphSpec& spec : opts.graphs) {
      for (const std::string& algo : opts.algos) {
        for (const unsigned t : opts.threads) {
          std::cout << "  " << spec.display << " x " << algo << " x " << t
                    << "t  (" << opts.presets.size() << " presets, best of "
                    << opts.reps << ")\n";
        }
      }
    }
    std::cout << opts.graphs.size() * opts.algos.size() * opts.threads.size()
              << " cells; nothing measured, nothing written\n";
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto budget_exceeded = [&] {
    if (opts.time_budget_sec <= 0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() > opts.time_budget_sec;
  };

  // One smq_run-format report per (graph, algorithm), emitted as a JSON
  // list at the end (perf_check.py accepts the list form directly).
  std::vector<std::string> json_reports;
  bool stopped = false;
  int measured_cells = 0, skipped_cells = 0;

  for (const GraphSpec& spec : opts.graphs) {
    if (stopped) break;
    GraphInstance graph;
    try {
      graph = create_graph(spec, opts.graph_cache);
    } catch (const std::exception& e) {
      std::cerr << "smq_tune: graph '" << spec.display << "': " << e.what()
                << "\n";
      return 2;
    }
    const tuning::WorkloadFingerprint fp = tuning::fingerprint_graph(*graph.graph);
    const std::string cls(tuning::to_string(fp.cls));
    std::cout << "\ngraph " << spec.display << ": " << graph.graph->num_vertices()
              << " vertices, " << graph.graph->num_edges() << " edges, class "
              << cls << " (avg degree " << TablePrinter::fmt(fp.avg_degree)
              << ", cv " << TablePrinter::fmt(fp.degree_cv) << ", max weight "
              << fp.max_weight << ")\n";

    for (const std::string& algo_name : opts.algos) {
      if (stopped) break;
      const AlgorithmEntry* algo = algorithms.find(algo_name);

      SweepReport report;
      report.algorithm = algo_name;
      report.graph = graph;
      report.params = spec.params;
      AlgoReference reference;
      bool have_reference = false;

      for (const unsigned threads : opts.threads) {
        if (opts.resume && table.find(cls, algo_name, threads) != nullptr) {
          std::cout << "  " << cls << '/' << algo_name << " @ " << threads
                    << "t: already in table (resume), skipping\n";
          ++skipped_cells;
          continue;
        }
        if (budget_exceeded()) {
          std::cout << "  time budget (" << opts.time_budget_sec
                    << "s) exhausted; stopping (rerun with --resume to "
                       "continue)\n";
          stopped = true;
          break;
        }
        if (!have_reference) {
          reference = measure_reference(*algo, graph, spec.params, opts.reps);
          report.reference = &reference;
          have_reference = true;
        }

        // Best preset for this cell: measure every candidate, prefer
        // valid results, rank by tasks/s. Best-of-reps inside
        // measure_sweep_row is the noise filter.
        struct Candidate {
          std::string preset;
          AlgoResult result;
          double tps = 0;
        };
        std::vector<Candidate> candidates;
        for (const std::string& preset : opts.presets) {
          const SchedulerEntry* entry = schedulers.find(preset);
          if (effective_threads(*entry, threads) != threads) continue;
          Candidate c;
          c.preset = preset;
          c.result = measure_sweep_row(*entry, *algo, graph, threads,
                                       spec.params, &reference, opts.reps);
          c.tps = tasks_per_sec(c.result);
          SweepRow row;
          row.label = preset;
          row.scheduler = preset;
          row.requested_threads = threads;
          row.threads = threads;
          row.reps = opts.reps;
          row.result = c.result;
          report.rows.push_back(std::move(row));
          candidates.push_back(std::move(c));
        }
        if (candidates.empty()) {
          std::cerr << "  " << cls << '/' << algo_name << " @ " << threads
                    << "t: no preset supports this thread count, skipping\n";
          continue;
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                           if (a.result.valid != b.result.valid) return a.result.valid;
                           return a.tps > b.tps;
                         });
        const Candidate& winner = candidates.front();
        if (winner.result.validated && !winner.result.valid) {
          std::cerr << "  " << cls << '/' << algo_name << " @ " << threads
                    << "t: every candidate failed validation; cell not "
                       "recorded\n";
          continue;
        }
        MetricsRow row;
        row.graph_class = cls;
        row.algorithm = algo_name;
        row.threads = threads;
        row.preset = winner.preset;
        row.tasks_per_sec = winner.tps;
        row.speedup_vs_seq = winner.result.run.seconds > 0
                                 ? reference.seconds / winner.result.run.seconds
                                 : 0;
        // Winner margin over the runner-up; 0 when uncontested.
        row.confidence =
            candidates.size() > 1 && winner.tps > 0
                ? std::max(0.0, 1.0 - candidates[1].tps / winner.tps)
                : 0.0;
        row.graph = spec.display;
        row.vertices = fp.vertices;
        row.edges = fp.edges;
        row.avg_degree = fp.avg_degree;
        row.max_weight = fp.max_weight;
        row.reps = opts.reps;
        if (const MetricsRow* existing = table.find(cls, algo_name, threads);
            existing != nullptr && existing->graph != row.graph) {
          std::cout << "  note: overwriting " << cls << '/' << algo_name
                    << " @ " << threads << "t previously measured on "
                    << existing->graph << "\n";
        }
        table.upsert(std::move(row));
        ++measured_cells;
        std::cout << "  " << cls << '/' << algo_name << " @ " << threads
                  << "t -> " << winner.preset << " ("
                  << TablePrinter::fmt(winner.tps / 1e6, 3) << " Mtasks/s, "
                  << candidates.size() << " candidates)\n";
      }

      if (!report.rows.empty() && !opts.json_path.empty()) {
        std::ostringstream os;
        write_sweep_json(os, report);
        json_reports.push_back(os.str());
      }
    }
  }

  table.save(opts.table_path);
  std::cout << "\nwrote " << opts.table_path << " (" << table.rows.size()
            << " rows; " << measured_cells << " measured";
  if (skipped_cells > 0) std::cout << ", " << skipped_cells << " resumed";
  std::cout << ")\n";

  if (!opts.json_path.empty()) {
    std::ostringstream joined;
    joined << "[\n";
    for (std::size_t i = 0; i < json_reports.size(); ++i) {
      if (i > 0) joined << ",\n";
      // Strip the trailing newline write_sweep_json appends.
      std::string text = json_reports[i];
      while (!text.empty() && text.back() == '\n') text.pop_back();
      joined << text;
    }
    joined << "\n]\n";
    if (opts.json_path == "-") {
      std::cout << joined.str();
    } else {
      std::ofstream file(opts.json_path);
      if (!file) {
        std::cerr << "smq_tune: cannot write " << opts.json_path << "\n";
        return 2;
      }
      file << joined.str();
      std::cout << "wrote " << opts.json_path << " (" << json_reports.size()
                << " reports)\n";
    }
  }
  return 0;
}

// ---- verification ---------------------------------------------------------

struct VerifyOptions {
  std::string table_path;
  int reps = 3;
  bool skip_missing = false;
  double max_regression = 0.15;
  std::optional<double> max_regression_mt;
  std::string graph_cache;
};

int run_verify(const VerifyOptions& opts) {
  MetricsTable table;
  try {
    table = MetricsTable::load(opts.table_path);
  } catch (const std::exception& e) {
    std::cerr << "smq_tune: " << e.what() << "\n";
    return 2;
  }
  const double mt_budget = opts.max_regression_mt.value_or(2 * opts.max_regression);
  std::cout << "verifying " << opts.table_path << " (" << table.rows.size()
            << " rows, best of " << opts.reps << ", budget "
            << 100 * opts.max_regression << "% single-thread, " << 100 * mt_budget
            << "% multi-thread)\n\n";

  const auto& schedulers = SchedulerRegistry::instance();
  const auto& algorithms = AlgorithmRegistry::instance();

  std::vector<std::string> failures;
  int compared = 0, skipped = 0;

  // Graphs and references are shared across rows: a (spec) maps to one
  // instance, a (spec, algorithm) to one sequential oracle.
  std::map<std::string, std::optional<GraphInstance>> graphs;
  std::map<std::string, AlgoReference> references;

  TablePrinter out({"row", "preset", "recorded", "current", "ratio", "status"});
  for (const MetricsRow& row : table.rows) {
    const std::string name = row.graph_class + "/" + row.algorithm + "/" +
                             std::to_string(row.threads) + "t";
    // Stale-key conformance is part of the gate: a table naming a
    // preset or algorithm this binary lost must fail loudly.
    const SchedulerEntry* entry = schedulers.find(row.preset);
    if (entry == nullptr) {
      failures.push_back(name + ": preset '" + row.preset + "' is not registered");
      out.add_row({name, row.preset, "-", "-", "-", "UNREGISTERED"});
      continue;
    }
    const AlgorithmEntry* algo = algorithms.find(row.algorithm);
    if (algo == nullptr) {
      failures.push_back(name + ": algorithm '" + row.algorithm +
                         "' is not registered");
      out.add_row({name, row.preset, "-", "-", "-", "UNREGISTERED"});
      continue;
    }

    // Recreate the measurement graph from the recorded spec.
    auto it = graphs.find(row.graph);
    if (it == graphs.end()) {
      std::optional<GraphInstance> instance;
      try {
        instance = create_graph(parse_graph_spec(row.graph, 0), opts.graph_cache);
      } catch (const std::exception& e) {
        if (!opts.skip_missing) {
          failures.push_back(name + ": cannot recreate graph '" + row.graph +
                             "': " + e.what());
        }
      }
      it = graphs.emplace(row.graph, std::move(instance)).first;
    }
    if (!it->second.has_value()) {
      out.add_row({name, row.preset, "-", "-", "-",
                   opts.skip_missing ? "SKIP (graph missing)" : "NO GRAPH"});
      if (opts.skip_missing) ++skipped;
      continue;
    }
    const GraphInstance& graph = *it->second;
    const GraphSpec spec = parse_graph_spec(row.graph, 0);

    const std::string ref_key = row.graph + "|" + row.algorithm;
    if (references.find(ref_key) == references.end()) {
      references[ref_key] =
          measure_reference(*algo, graph, spec.params, opts.reps);
    }
    const AlgoReference& reference = references[ref_key];

    const AlgoResult result =
        measure_sweep_row(*entry, *algo, graph, row.threads, spec.params,
                          &reference, opts.reps);
    if (result.validated && !result.valid) {
      failures.push_back(name + ": preset '" + row.preset +
                         "' produced an INVALID result");
      out.add_row({name, row.preset, "-", "-", "-", "INVALID"});
      continue;
    }
    const double current = result.run.seconds > 0
                               ? reference.seconds / result.run.seconds
                               : 0;
    if (row.speedup_vs_seq <= 0 || current <= 0) {
      failures.push_back(name + ": no comparable speedup metric");
      out.add_row({name, row.preset, "-", "-", "-", "NO METRIC"});
      continue;
    }
    ++compared;
    const double ratio = current / row.speedup_vs_seq;
    const double budget = row.threads > 1 ? mt_budget : opts.max_regression;
    const bool regressed = ratio < 1 - budget;
    out.add_row({name, row.preset, TablePrinter::fmt(row.speedup_vs_seq),
                 TablePrinter::fmt(current), TablePrinter::fmt(ratio),
                 regressed ? "REGRESSION" : "ok"});
    if (regressed) {
      failures.push_back(name + ": speedup_vs_seq fell " +
                         TablePrinter::fmt(100 * (1 - ratio), 1) + "% (" +
                         TablePrinter::fmt(row.speedup_vs_seq) + " -> " +
                         TablePrinter::fmt(current) + "), budget " +
                         TablePrinter::fmt(100 * budget, 0) + "%");
    }
  }
  out.print(std::cout);
  std::cout << "\ncompared " << compared << "/" << table.rows.size() << " rows";
  if (skipped > 0) std::cout << ", skipped " << skipped;
  std::cout << "\n";
  if (!failures.empty()) {
    std::cout << "\nsmq_tune --verify-only: FAIL\n";
    for (const std::string& f : failures) std::cout << "  - " << f << "\n";
    return 1;
  }
  std::cout << "smq_tune --verify-only: OK\n";
  return 0;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.has_flag("help") || args.has_flag("h")) {
    std::cout
        << "usage: smq_tune [--graphs SPEC[;SPEC...]] [--algos A,B] "
           "[--threads N,N...]\n"
           "                [--presets P,P...] [--reps N] [--seed S] "
           "[--table PATH]\n"
           "                [--json PATH|-] [--graph-cache DIR] "
           "[--time-budget SEC]\n"
           "                [--resume] [--dry-run]\n"
           "       smq_tune --verify-only [--table PATH] [--reps N] "
           "[--skip-missing]\n"
           "                [--max-regression R] [--max-regression-mt R]\n\n"
           "Measures the preset grid per (graph, algorithm, threads) cell "
           "(best of\n--reps, validated against the sequential oracle) and "
           "records the winning\npreset per (graph class, algorithm, threads) "
           "key in the tuning metrics\ntable consumed by `smq_run --sched "
           "auto`. Merging is atomic; --resume\nskips keys already present "
           "(continuing a --time-budget run); --dry-run\nprints the grid and "
           "exits. Graph specs are ';'-separated "
           "\"name[,key=value...]\"\nregistry specs.\n\n"
           "--verify-only re-measures every table row on its recorded graph "
           "spec and\nfails when speedup_vs_seq regressed past the budget "
           "(the CI staleness\ngate); --skip-missing turns absent graphs "
           "into SKIP rows.\n";
    return 0;
  }
  if (!check_flags(args)) return 2;

  const std::string table_path =
      args.get("table", MetricsTable::default_path());

  if (args.has_flag("verify-only")) {
    VerifyOptions opts;
    opts.table_path = table_path;
    opts.reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));
    opts.skip_missing = args.has_flag("skip-missing");
    opts.max_regression = args.get_double("max-regression", 0.15);
    if (args.has_flag("max-regression-mt")) {
      opts.max_regression_mt = args.get_double("max-regression-mt", 0.3);
    }
    opts.graph_cache = args.get("graph-cache");
    return run_verify(opts);
  }

  TuneOptions opts;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  for (const std::string& text :
       split_list(args.get("graphs", kDefaultGraphs), ';')) {
    try {
      opts.graphs.push_back(parse_graph_spec(text, seed));
    } catch (const std::exception& e) {
      std::cerr << "smq_tune: " << e.what() << "\n";
      return 2;
    }
  }
  opts.algos = split_list(args.get("algos", kDefaultAlgos), ',');
  try {
    opts.threads = parse_thread_list(args.get("threads", kDefaultThreads));
  } catch (const std::exception& e) {
    std::cerr << "smq_tune: " << e.what() << "\n";
    return 2;
  }
  opts.presets = split_list(args.get("presets", kDefaultPresets), ',');
  opts.reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));
  opts.table_path = table_path;
  opts.json_path = args.get("json");
  opts.graph_cache = args.get("graph-cache");
  opts.time_budget_sec = args.get_double("time-budget", 0);
  opts.resume = args.has_flag("resume");
  opts.dry_run = args.has_flag("dry-run");
  return run_tune(opts);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "smq_tune: " << e.what() << "\n";
    return 2;
  }
}
