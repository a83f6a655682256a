// Closed-loop SSSP: one client solves from a seeded source, and the next
// solve starts only after the previous one has drained. Runs the
// registry entry points the way `smq_run` does with no flags: scheduler
// "smq", virtual dispatch, batch size 1, a fresh scheduler per solve.
//
// Untraced run: interleaved pairs of (sequential oracle, parallel solve),
// alternating which side goes first, every parallel result checked
// against the oracle's full distance vector.
// Traced run: alternating untraced and traced parallel solves; the traced
// ones run the registry's scheduler behind TracedScheduler, erased again
// as an AnyScheduler so the algorithm entry runs unchanged.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "algorithms/relax.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "report.h"
#include "support/rng.h"
#include "traced_scheduler.h"

namespace perfbench {

namespace {

using smq::AlgoReference;
using smq::AlgoResult;
using smq::AnyScheduler;

constexpr int kSetupReps = 21;
constexpr int kMinSolves = 3;
constexpr const char* kScheduler = "smq";

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// One parallel solve through the registry; counts it in the report.
struct Solve {
  bool ok = false;
  AlgoResult result;
};

template <typename MakeScheduler>
Solve solve_once(const smq::AlgorithmEntry& algo, const smq::GraphInstance& g,
                 unsigned threads, const smq::ParamMap& params,
                 const AlgoReference& oracle, MakeScheduler&& make,
                 Report& report, SpanLog& spans, const char* span_name) {
  Solve s;
  const std::uint32_t span = spans.begin(span_name, SpanLog::kRoot);
  try {
    AnyScheduler sched = make();
    s.result = algo.run(g, sched, threads, params, &oracle);
    s.ok = s.result.validated && s.result.valid;
  } catch (const std::exception& e) {
    report.note(std::string("solve threw: ") + e.what());
  }
  spans.end(span);
  report.count(s.ok);
  return s;
}

}  // namespace

bool run_sssp_workload(const Options& opt, Report& report, SpanLog& spans) {
  const WorkloadSpec& w = opt.spec;
  const auto& graphs = smq::GraphRegistry::instance();
  const auto& schedulers = smq::SchedulerRegistry::instance();
  const smq::AlgorithmEntry* algo = smq::AlgorithmRegistry::instance().find("sssp");
  if (algo == nullptr) return false;

  // Untimed: build the binary CSR cache if it is missing, so set-up
  // measures the mmap load users pay on every run.
  graphs.create_cached(w.graph, w.graph_params, opt.cache_dir);

  const std::uint32_t setup_span = spans.begin("setup", SpanLog::kRoot);
  std::vector<double> setup_s, load_s;
  std::uint64_t paged = 0;  // keeps the page-in reads
  smq::GraphInstance g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g = {};  // unmap the previous load first, or peak RSS counts two
    const std::int64_t t0 = now_ns();
    g = graphs.create_cached(w.graph, w.graph_params, opt.cache_dir);
    paged += page_in(*g.graph);
    const std::int64_t t1 = now_ns();
    AnyScheduler sched = schedulers.create(kScheduler, w.threads);
    const std::int64_t t2 = now_ns();
    spans.add("graph.load", setup_span, t0, t1);
    spans.add("scheduler.create", setup_span, t1, t2);
    load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  spans.end(setup_span);
  if (paged == 0) report.note("graph arrays read as all zero");
  const std::uint64_t vertices = g.graph->num_vertices();

  // Seeded source: the first candidate whose oracle settles at least a
  // quarter of the graph (RMAT has many vertices with tiny reach). The
  // accepted oracle run also pages the mapped graph in.
  const std::uint32_t oracle_span = spans.begin("oracle", SpanLog::kRoot);
  smq::Xoshiro256 rng(opt.seed);
  smq::ParamMap params;
  AlgoReference oracle;
  for (int attempt = 0;; ++attempt) {
    if (attempt == 64) {
      report.note("no source with a large enough reach in 64 draws");
      return false;
    }
    params.set("source", std::to_string(rng.next_below(vertices)));
    oracle = algo->make_reference(g, params);
    if (oracle.reference_tasks * 4 >= vertices) break;
  }
  spans.end(oracle_span);
  const auto& oracle_dist =
      *static_cast<const std::vector<std::uint64_t>*>(oracle.oracle.get());
  const auto settled = static_cast<double>(oracle.reference_tasks);

  report.note("workload " + w.name + ": " + g.name + ", " +
              std::to_string(vertices) + " vertices, " +
              std::to_string(g.graph->num_edges()) + " edges; source " +
              params.get("source") + " settles " +
              std::to_string(oracle.reference_tasks) + "; scheduler " +
              kScheduler + " x " + std::to_string(w.threads) +
              " threads, virtual dispatch, batch size 1");

  const auto make_plain = [&] { return schedulers.create(kScheduler, w.threads); };
  const std::int64_t start = now_ns();
  const auto keep_going = [&](std::size_t done) {
    return static_cast<int>(done) < kMinSolves || seconds_since(start) < opt.seconds;
  };

  if (!opt.trace) {
    std::vector<double> solve_ms, ratios;
    double solve_total_s = 0;
    for (std::size_t pair = 0; keep_going(pair); ++pair) {
      double seq_s = 0;
      const auto sequential = [&] {
        const std::uint32_t span = spans.begin("sequential", SpanLog::kRoot);
        const AlgoReference r = algo->make_reference(g, params);
        spans.end(span);
        seq_s = r.seconds;
        if (r.reference_answer != oracle.reference_answer) {
          report.fail_check("sequential oracle disagrees with itself");
        }
      };
      if (pair % 2 == 0) sequential();
      const Solve s = solve_once(*algo, g, w.threads, params, oracle, make_plain,
                                 report, spans, "solve");
      if (pair % 2 == 1) sequential();
      if (!s.ok) continue;
      solve_ms.push_back(s.result.run.seconds * 1e3);
      solve_total_s += s.result.run.seconds;
      ratios.push_back(seq_s / s.result.run.seconds);
    }
    report.vector("solve_ms_samples", solve_ms, "ms");
    report.vector("speedup_samples", ratios, "x");
    report.metric("solve_ms", median(solve_ms), "ms",
                  std::to_string(solve_ms.size()) + " solves, q1 " + fmt(quantile(solve_ms, 0.25)) +
                      " q3 " + fmt(quantile(solve_ms, 0.75)));
    report.metric("speedup_vs_seq", median(ratios), "x",
                  "median of " + std::to_string(ratios.size()) +
                      " interleaved pairs, q1 " +
                      fmt(quantile(ratios, 0.25)) + " q3 " +
                      fmt(quantile(ratios, 0.75)));
    report.metric("goodput_qps",
                  solve_total_s > 0 ? static_cast<double>(solve_ms.size()) / solve_total_s : 0,
                  "1/s", "correct solves per second of solve time");
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetupReps) +
                      " x (mmap graph load and page-in + scheduler construction)");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return true;
  }

  // ---- traced run ------------------------------------------------------
  const std::size_t llc = llc_bytes();
  const std::size_t stream_bytes =
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const std::uint32_t probe_span = spans.begin("mem.stream", SpanLog::kRoot);
  const double stream_gbps = stream_read_gbps(stream_bytes, w.threads);
  spans.end(probe_span);

  TraceLog log(w.threads);
  const auto make_traced = [&] {
    return AnyScheduler::make<TracedScheduler>(
        schedulers.create(kScheduler, w.threads), log);
  };
  std::vector<double> plain_ms, traced_ms;
  std::vector<RunShape> shapes;
  std::uint64_t tasks = 0, wasted = 0, traced_solves = 0;
  for (std::size_t i = 0; keep_going(i / 2); ++i) {
    if (i % 2 == 0) {
      const Solve s = solve_once(*algo, g, w.threads, params, oracle, make_plain,
                                 report, spans, "solve");
      if (s.ok) plain_ms.push_back(s.result.run.seconds * 1e3);
      continue;
    }
    const std::vector<ThreadTrace> before = log.snapshot();
    const Solve s = solve_once(*algo, g, w.threads, params, oracle, make_traced,
                               report, spans, "solve.traced");
    log.close_leases();
    std::uint64_t pushed = 0, popped = 0;
    for (unsigned t = 0; t < log.size(); ++t) {
      pushed += log.of(t).pushed - before[t].pushed;
      popped += log.of(t).popped - before[t].popped;
    }
    if (!s.ok) continue;
    shapes.push_back(shape_since(before, log));
    const smq::ThreadStats& st = s.result.run.stats;
    if (pushed != st.pushes || popped != st.pops) {
      report.fail_check("wrapper counts (push " + std::to_string(pushed) +
                        ", pop " + std::to_string(popped) +
                        ") differ from RunResult (push " + std::to_string(st.pushes) +
                        ", pop " + std::to_string(st.pops) + ")");
    }
    traced_ms.push_back(s.result.run.seconds * 1e3);
    tasks += st.pops;
    wasted += st.wasted;
    ++traced_solves;
  }
  if (traced_solves == 0) return false;
  const double solves = static_cast<double>(traced_solves);

  // Computed bytes of one solve: every settled vertex reads its offset
  // entry, its adjacency and its label once.
  double solve_bytes = 0;
  for (std::uint64_t v = 0; v < vertices; ++v) {
    if (oracle_dist[v] == smq::DistanceArray::kUnreached) continue;
    solve_bytes += computed_task_bytes(
        static_cast<double>(g.graph->out_degree(static_cast<smq::VertexId>(v))),
        sizeof(std::uint64_t));
  }
  const double plain_s = median(plain_ms) * 1e-3;
  const double useful =
      tasks > 0 ? 1.0 - static_cast<double>(wasted) / static_cast<double>(tasks) : 0;

  report.metric("graph.load_s", median(load_s), "s", "median mmap load and page-in");
  report.metric("graph.bytes_per_task", solve_bytes / settled, "B",
                "computed from the CSR layout per settled vertex");
  report.metric("mem.stream_gbps", stream_gbps, "GB/s",
                "read of " + std::to_string(stream_bytes >> 20) + " MiB by " +
                    std::to_string(w.threads) + " threads; LLC " +
                    std::to_string(llc >> 20) + " MiB");
  report.metric("graph.roofline_frac",
                stream_gbps > 0 && plain_s > 0
                    ? solve_bytes / plain_s / (stream_gbps * 1e9)
                    : 0,
                "ratio", "computed bytes / untraced solve time / stream bandwidth");
  report.metric("algorithms.work_increase",
                static_cast<double>(tasks) / (solves * settled), "ratio",
                "executed tasks / oracle-settled vertices");
  report.metric("algorithms.useful_frac", useful, "ratio", "1 - wasted / executed");
  RunShape shape;
  {
    std::vector<double> share, imbalance;
    for (const RunShape& r : shapes) {
      share.push_back(r.pop_share_max);
      imbalance.push_back(r.busy_imbalance);
    }
    shape.pop_share_max = median(share);
    shape.busy_imbalance = median(imbalance);
  }
  report_layer_totals(log, solves, shape, report);
  report.note("core.pop_share_max and sched.busy_imbalance are medians over the " +
              std::to_string(shapes.size()) + " traced solves; the vectors sum them");
  report.metric("service.inflight_max", 1, "count",
                "closed loop: one solve in flight by construction");
  report.metric("service.backlog_max", 0, "count", "closed loop: no queue");
  report.metric("service.tasks_per_query", static_cast<double>(tasks) / solves,
                "count", "tasks per solve");
  report.metric("service.useful_frac", useful, "ratio", "per solve");
  report.metric("loadgen.lag_ms_p99", 0, "ms", "closed loop: no schedule to lag");
  report.metric("trace.overhead_frac",
                plain_ms.empty() ? 0 : median(traced_ms) / median(plain_ms) - 1,
                "ratio",
                "median traced " + fmt(median(traced_ms)) +
                    " ms vs untraced " + fmt(median(plain_ms)) +
                    " ms over " + std::to_string(traced_ms.size()) + "/" +
                    std::to_string(plain_ms.size()) + " solves");
  return true;
}

}  // namespace perfbench
