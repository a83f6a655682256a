// Point-to-point A* through the query service, in two phases on one
// long-lived service:
//  * a closed loop of one client: each query is submitted after the
//    previous one completed, paired with a sequential A* of the same query
//    (solve_ms, speedup_vs_seq);
//  * an open-loop ladder: the benchmark's own generator submits seeded
//    queries at Poisson arrival times at fixed offered rates (ascending;
//    each rung drains before the next). A query's latency runs from its
//    due time, not its submit: (submit - due) + QueryResult latency, so a
//    late generator is charged to the queries it delayed.
// Every query is checked against its own sequential point-to-point
// Dijkstra once the service has stopped.
//
// Untraced run: the service comes from make_service("smq", workers, ...)
// with default options, as `smq_run --service` builds it.
// Traced run: the closed loop on that service (the overhead baseline),
// then the closed loop and the ladder on SchedulerService<TracedScheduler>.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/astar.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "report.h"
#include "service/scheduler_service.h"
#include "service/service_driver.h"
#include "support/rng.h"
#include "traced_scheduler.h"

namespace perfbench {

namespace {

using smq::Query;
using smq::QueryResult;

constexpr int kSetupReps = 21;
constexpr const char* kScheduler = "smq";
constexpr double kDrainSeconds = 15;  // per rung, after its last due time

struct Rung {
  double rate = 0;  // 0: all queries due at once (warm-up)
  std::vector<Query> queries;
  std::vector<double> offsets_s;  // due time after the rung starts
};

struct QueryOutcome {
  bool finished = false;
  QueryResult result;
  std::int64_t due = 0;
  std::int64_t submit = 0;
  double latency_s() const {
    return static_cast<double>(submit - due) * 1e-9 + result.latency_seconds;
  }
  std::int64_t done() const {
    return submit + static_cast<std::int64_t>(result.latency_seconds * 1e9);
  }
};

struct RungResult {
  std::int64_t start = 0;  // the rung's time zero
  std::vector<QueryOutcome> outcomes;
  std::vector<std::uint8_t> ok;  // finished and matching the oracle (set later;
                                // bytes, as oracle threads write distinct slots)
  std::uint64_t inflight_max = 0;
  std::uint64_t backlog_max = 0;
  std::size_t unfinished = 0;

  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (ok[i]) out.push_back(outcomes[i].latency_s() * 1e3);
    }
    return out;
  }
  std::vector<double> lags_ms() const {
    std::vector<double> out;
    for (const QueryOutcome& o : outcomes) {
      out.push_back(static_cast<double>(o.submit - o.due) * 1e-6);
    }
    return out;
  }
  /// Correct completions per second from the rung's start to its last
  /// completion.
  double achieved_qps() const {
    std::int64_t last = start;
    for (const QueryOutcome& o : outcomes) last = std::max(last, o.done());
    const double span = static_cast<double>(last - start) * 1e-9;
    std::size_t good = 0;
    for (const std::uint8_t b : ok) good += b;
    return span > 0 ? static_cast<double>(good) / span : 0;
  }
  std::uint64_t tasks() const {
    std::uint64_t t = 0;
    for (const QueryOutcome& o : outcomes) t += o.result.tasks;
    return t;
  }
  std::uint64_t wasted() const {
    std::uint64_t t = 0;
    for (const QueryOutcome& o : outcomes) t += o.result.wasted;
    return t;
  }
};

/// Seeded queries whose target lies 1/4 to 1/3 of the graph's extent
/// from the source in a straight line: trips of alike length, so a run's
/// latency statistics are not dominated by which few very long or very
/// short trips its seed happened to draw.
std::vector<Query> make_queries(const smq::GraphInstance& g, std::size_t n,
                                std::uint64_t seed) {
  const smq::Coordinates& c = g.graph->coordinates();
  const std::uint64_t vertices = g.graph->num_vertices();
  if (c.empty() || vertices < 2) return smq::make_query_set(g, n, seed);
  const auto [xmin, xmax] = std::minmax_element(c.x.begin(), c.x.end());
  const auto [ymin, ymax] = std::minmax_element(c.y.begin(), c.y.end());
  const double extent = std::max(*xmax - *xmin, *ymax - *ymin);
  const double lo = extent / 4, hi = extent / 3;
  smq::Xoshiro256 rng(seed);
  std::vector<Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Query q;
    q.source = static_cast<smq::VertexId>(rng.next_below(vertices));
    for (int tries = 0; tries < 100000; ++tries) {
      q.target = static_cast<smq::VertexId>(rng.next_below(vertices));
      const double d = std::hypot(c.x[q.target] - c.x[q.source], c.y[q.target] - c.y[q.source]);
      if (d >= lo && d <= hi) break;
    }
    if (q.target == q.source) q.target = static_cast<smq::VertexId>((q.source + 1) % vertices);
    out.push_back(q);
  }
  return out;
}

/// n queries at Poisson arrivals conditioned on exactly n arrivals in
/// n / rate seconds (uniform order statistics), so every rung offers its
/// nominal rate exactly; rate 0 makes every query due at once.
Rung make_rung(const smq::GraphInstance& g, double rate, std::size_t n,
               std::uint64_t seed) {
  Rung r;
  r.rate = rate;
  r.queries = make_queries(g, n, seed);
  smq::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<double> cum;
  double t = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    const double u = std::max(static_cast<double>(rng() >> 11) * 0x1.0p-53, 1e-12);
    t += -std::log(u);
    cum.push_back(t);
  }
  const double span = rate > 0 ? static_cast<double>(n) / rate : 0;
  for (std::size_t i = 0; i < n; ++i) r.offsets_s.push_back(cum[i] / cum[n] * span);
  return r;
}

/// The generator owns a core (workers + generator = nproc), so it sleeps
/// only until shortly before a due time and spins the rest: waking from a
/// sleep on an idle core can take milliseconds on a virtual machine, and
/// that lateness would be charged to the service.
void wait_until_due(std::int64_t due) {
  constexpr std::int64_t kSpinNs = 1'000'000;
  if (due - now_ns() > kSpinNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due - kSpinNs)));
  }
  while (now_ns() < due) {
  }
}

RungResult run_rung(smq::QueryService& svc, const Rung& rung, SpanLog& spans,
                    const std::string& label) {
  const std::size_t n = rung.queries.size();
  RungResult out;
  out.outcomes.resize(n);
  out.ok.assign(n, 0);
  std::vector<smq::QueryTicket> tickets(n);
  const std::uint64_t completed_before = svc.queries_completed();
  const std::int64_t base = now_ns() + 2'000'000;
  out.start = base;
  for (std::size_t i = 0; i < n; ++i) {
    QueryOutcome& o = out.outcomes[i];
    o.due = base + static_cast<std::int64_t>(rung.offsets_s[i] * 1e9);
    wait_until_due(o.due);
    o.submit = now_ns();
    try {
      tickets[i] = svc.submit(rung.queries[i]);
    } catch (const std::exception&) {
      continue;  // a failed query: no ticket to wait for
    }
    const std::uint64_t inflight = (i + 1) - (svc.queries_completed() - completed_before);
    out.inflight_max = std::max(out.inflight_max, inflight);
    if (inflight > svc.num_lanes()) {
      out.backlog_max = std::max<std::uint64_t>(out.backlog_max, inflight - svc.num_lanes());
    }
  }
  const auto deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
      out.outcomes.empty() ? now_ns() : out.outcomes.back().due +
                                             static_cast<std::int64_t>(kDrainSeconds * 1e9)));
  for (std::size_t i = 0; i < n; ++i) {
    if (!tickets[i].valid()) continue;  // submit threw: a failed query
    if (tickets[i].wait_until(deadline) != std::future_status::ready) {
      ++out.unfinished;
      continue;
    }
    try {
      out.outcomes[i].result = tickets[i].get();
      out.outcomes[i].finished = true;
    } catch (const std::exception&) {
    }
  }
  if (!out.outcomes.empty()) {
    const std::uint32_t rung_span = spans.add(label, SpanLog::kRoot, out.outcomes.front().due,
                                              now_ns());
    for (const QueryOutcome& o : out.outcomes) {
      if (!o.finished) continue;
      const std::uint32_t q = spans.add("query", rung_span, o.due, o.done());
      spans.add("loadgen.lag", q, o.due, o.submit);
      spans.add("service", q, o.submit, o.done());
    }
  }
  return out;
}

/// Check every finished query against a sequential p2p Dijkstra, on all
/// cores (after the measurement, so it competes with nothing).
void check_against_oracle(const smq::GraphInstance& g, const std::vector<Rung*>& rungs,
                          const std::vector<RungResult*>& results) {
  struct Item {
    const Query* q;
    RungResult* r;
    std::size_t i;
  };
  std::vector<Item> items;
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    for (std::size_t i = 0; i < rungs[k]->queries.size(); ++i) {
      items.push_back(Item{&rungs[k]->queries[i], results[k], i});
    }
  }
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::jthread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t j = t; j < items.size(); j += threads) {
        const Item& it = items[j];
        const QueryOutcome& o = it.r->outcomes[it.i];
        if (!o.finished) continue;
        const std::uint64_t expect =
            smq::sequential_astar(*g.graph, it.q->source, it.q->target, 0.0).distance;
        it.r->ok[it.i] = o.result.distance == expect ? 1 : 0;
      }
    });
  }
}

void count_queries(const RungResult& r, Report& report) {
  for (const std::uint8_t ok : r.ok) report.count(ok != 0);
}

bool passes(const RungResult& r, double limit_ms) {
  if (r.unfinished > 0) return false;
  for (const std::uint8_t ok : r.ok) {
    if (ok == 0) return false;  // a failed query misses every limit
  }
  const std::vector<double> lat = r.latencies_ms();
  if (quantile(lat, tail_quantile(lat.size())) > limit_ms) return false;
  // No growing backlog: the last query due must not wait past the limit
  // for the queue ahead of it to drain.
  std::int64_t last_done = 0;
  for (const QueryOutcome& o : r.outcomes) last_done = std::max(last_done, o.done());
  return static_cast<double>(last_done - r.outcomes.back().due) * 1e-6 <= limit_ms;
}

/// Closed loop, one client: each query is submitted only after the
/// previous one completed, paired with a sequential A* of the same query
/// (alternating which runs first). Runs until `seconds` have passed.
struct ClosedLoop {
  Rung rung;  // the queries that ran
  RungResult result;
  std::vector<double> seq_s;  // sequential A* time of each query
  std::uint64_t expanded = 0;  // sequential A* expansions, summed
};

ClosedLoop closed_loop(smq::QueryService& svc, const smq::GraphInstance& g,
                       const std::vector<Query>& pool, double seconds,
                       SpanLog& spans, const std::string& label) {
  ClosedLoop c;
  const std::int64_t start = now_ns();
  c.result.start = start;
  const std::uint32_t span = spans.begin(label, SpanLog::kRoot);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i >= 3 && static_cast<double>(now_ns() - start) * 1e-9 >= seconds) break;
    const Query& q = pool[i];
    double seq_s = 0;
    const auto sequential = [&] {
      const std::int64_t t0 = now_ns();
      c.expanded +=
          smq::sequential_astar(*g.graph, q.source, q.target, g.weight_scale).expanded;
      seq_s = static_cast<double>(now_ns() - t0) * 1e-9;
    };
    if (i % 2 == 0) sequential();
    QueryOutcome o;
    o.due = o.submit = now_ns();
    bool stuck = false;
    try {
      smq::QueryTicket ticket = svc.submit(q);
      stuck = ticket.wait_for(std::chrono::duration<double>(kDrainSeconds)) !=
              std::future_status::ready;
      if (!stuck) {
        o.result = ticket.get();
        o.finished = true;
      }
    } catch (const std::exception&) {
    }
    if (i % 2 == 1) sequential();
    c.rung.queries.push_back(q);
    c.rung.offsets_s.push_back(0);
    c.result.outcomes.push_back(o);
    c.result.ok.push_back(0);
    c.seq_s.push_back(seq_s);
    if (stuck) {
      ++c.result.unfinished;  // a stuck service would stall every later query
      break;
    }
    if (o.finished) spans.add("query", span, o.due, o.done());
  }
  spans.end(span);
  return c;
}

/// Per-query sequential time / service latency, for the queries that
/// matched the oracle.
std::vector<double> speedups(const ClosedLoop& c) {
  std::vector<double> out;
  for (std::size_t i = 0; i < c.seq_s.size(); ++i) {
    if (c.result.ok[i]) out.push_back(c.seq_s[i] / c.result.outcomes[i].latency_s());
  }
  return out;
}

}  // namespace

bool run_service_workload(const Options& opt, Report& report, SpanLog& spans) {
  const WorkloadSpec& w = opt.spec;
  const auto& graphs = smq::GraphRegistry::instance();
  graphs.create_cached(w.graph, w.graph_params, opt.cache_dir);  // warm the cache

  const unsigned workers = smq::service_effective_threads(kScheduler, w.threads);
  const smq::ParamMap no_params;
  const smq::ServiceOptions defaults;
  const std::uint32_t setup_span = spans.begin("setup", SpanLog::kRoot);
  std::vector<double> setup_s, load_s;
  std::uint64_t paged = 0;  // keeps the page-in reads
  smq::GraphInstance g;
  std::unique_ptr<smq::QueryService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    g = {};  // unmap the previous load first, or peak RSS counts two
    const std::int64_t t0 = now_ns();
    g = graphs.create_cached(w.graph, w.graph_params, opt.cache_dir);
    paged += page_in(*g.graph);
    const std::int64_t t1 = now_ns();
    svc = smq::make_service(kScheduler, workers, no_params, g, defaults);
    const std::int64_t t2 = now_ns();
    spans.add("graph.load", setup_span, t0, t1);
    spans.add("service.create", setup_span, t1, t2);
    load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  spans.end(setup_span);
  if (paged == 0) report.note("graph arrays read as all zero");

  // The closed loop gets closed_share of --seconds; rung k of the ladder
  // gets shares[k] of it at rates[k].
  const std::uint64_t base_seed = opt.seed * 1000003;
  const std::vector<Query> pool = make_queries(g, 1 << 14, base_seed + 100);
  std::vector<Rung> ladder;
  for (std::size_t k = 0; k < w.rates.size(); ++k) {
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(w.rates[k] * w.shares[k] * opt.seconds)));
    ladder.push_back(make_rung(g, w.rates[k], n, base_seed + k));
  }
  Rung warmup = make_rung(g, 0, 2 * svc->num_lanes(), base_seed + 99);
  const double closed_s = w.closed_share * opt.seconds;

  std::string rates;
  for (const double r : w.rates) {
    if (!rates.empty()) rates += "/";
    rates += fmt(r);
  }
  report.note("workload " + w.name + ": " + g.name + ", " +
              std::to_string(g.graph->num_vertices()) + " vertices, " +
              std::to_string(g.graph->num_edges()) + " edges; service " + kScheduler +
              " x " + std::to_string(workers) + " workers, " +
              std::to_string(svc->num_lanes()) + " lanes, batch size " +
              std::to_string(defaults.batch_size) + "; closed loop " + fmt(closed_s) +
              " s, then open-loop Poisson at " + rates + " qps (nominal " +
              fmt(w.rates[w.nominal]) + "), p99 limit " + fmt(w.latency_limit_ms) + " ms");

  bool hung = false;
  // Tickets that never completed would block stop() forever: leave such a
  // service running and let main() exit without destructors.
  const auto finish = [&](std::unique_ptr<smq::QueryService>& s, std::size_t unfinished) {
    if (unfinished > 0) {
      report.note(std::to_string(unfinished) + " queries never completed");
      (void)s.release();
      hung = true;
      report.abandon();
      return;
    }
    s->stop();
  };
  const auto unfinished = [](const std::vector<const RungResult*>& rs) {
    std::size_t u = 0;
    for (const RungResult* r : rs) u += r->unfinished;
    return u;
  };
  // Every finished query against its own sequential p2p Dijkstra.
  std::vector<Rung*> checked_rungs;
  std::vector<RungResult*> checked_results;
  const auto check = [&](Rung& r, RungResult& res) {
    checked_rungs.push_back(&r);
    checked_results.push_back(&res);
  };
  const auto run_oracle = [&] {
    const std::uint32_t span = spans.begin("oracle", SpanLog::kRoot);
    check_against_oracle(g, checked_rungs, checked_results);
    spans.end(span);
    for (const RungResult* r : checked_results) count_queries(*r, report);
  };

  if (!opt.trace) {
    RungResult warm = run_rung(*svc, warmup, spans, "warmup");
    ClosedLoop closed = closed_loop(*svc, g, pool, closed_s, spans, "closed");
    std::vector<RungResult> results;
    for (const Rung& rung : ladder) {
      results.push_back(run_rung(*svc, rung, spans, "rung." + fmt(rung.rate)));
    }
    std::vector<const RungResult*> all{&warm, &closed.result};
    for (const RungResult& r : results) all.push_back(&r);
    finish(svc, unfinished(all));
    check(warmup, warm);
    check(closed.rung, closed.result);
    for (std::size_t k = 0; k < ladder.size(); ++k) check(ladder[k], results[k]);
    run_oracle();

    double goodput = 0;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const RungResult& r = results[k];
      const std::vector<double> lat = r.latencies_ms();
      const double tq = tail_quantile(lat.size());
      const bool pass = passes(r, w.latency_limit_ms);
      if (pass) goodput = r.achieved_qps();
      report.note("rung " + fmt(ladder[k].rate) + " qps: " + std::to_string(lat.size()) +
                  " ok of " + std::to_string(r.outcomes.size()) + ", p50 " +
                  fmt(median(lat)) + " ms, p" + fmt(tq * 100) + " " +
                  fmt(quantile(lat, tq)) + " ms, achieved " + fmt(r.achieved_qps()) +
                  " qps, lag p99 " + fmt(quantile(r.lags_ms(), 0.99)) +
                  " ms, inflight max " + std::to_string(r.inflight_max) +
                  ", backlog max " + std::to_string(r.backlog_max) +
                  (pass ? ", meets the limit" : ", misses the limit"));
    }
    const std::vector<double> solve_lat = closed.result.latencies_ms();
    const std::vector<double> ratios = speedups(closed);
    const std::vector<double> nom_lat = results[w.nominal].latencies_ms();
    const double tq = std::min(0.9, tail_quantile(nom_lat.size()));
    report.metric("solve_ms", median(solve_lat), "ms",
                  "closed loop, one client: median query latency, " +
                      std::to_string(solve_lat.size()) + " queries, q1 " +
                      fmt(quantile(solve_lat, 0.25)) + " q3 " +
                      fmt(quantile(solve_lat, 0.75)));
    report.metric("speedup_vs_seq", median(ratios), "x",
                  "median over " + std::to_string(ratios.size()) +
                      " interleaved pairs of sequential A* time / query latency");
    // Printed, not in the result: on a VM whose host steals a tenth of its
    // cycles for minutes at a time, the p90 moved 3x and the median's
    // interquartile range reached a quarter of it between alike runs.
    report.note("query_p50_ms " + fmt(median(nom_lat)) + " ms, query_p90_ms " +
                fmt(quantile(nom_lat, tq)) + " ms: due to done at " +
                fmt(ladder[w.nominal].rate) + " qps, " + std::to_string(nom_lat.size()) +
                " queries (the p99 is on the rung line)");
    report.metric("goodput_qps", goodput, "1/s",
                  "achieved rate at the highest offered rate meeting the limit");
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetupReps) +
                      " x (mmap graph load and page-in + service construction)");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return true;
  }

  // ---- traced run ------------------------------------------------------
  const std::size_t llc = llc_bytes();
  const std::size_t stream_bytes = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const std::uint32_t probe_span = spans.begin("mem.stream", SpanLog::kRoot);
  const double stream_gbps = stream_read_gbps(stream_bytes, workers);
  spans.end(probe_span);

  RungResult warm_plain = run_rung(*svc, warmup, spans, "warmup");
  ClosedLoop closed_plain = closed_loop(*svc, g, pool, closed_s, spans, "closed");
  finish(svc, unfinished({&warm_plain, &closed_plain.result}));
  check(warmup, warm_plain);
  check(closed_plain.rung, closed_plain.result);
  if (hung) {
    run_oracle();
    return true;
  }

  TraceLog log(workers);
  smq::ServiceOptions opts = defaults;
  opts.weight_scale = g.weight_scale;  // as make_service sets it
  std::unique_ptr<smq::QueryService> traced =
      std::make_unique<smq::SchedulerService<TracedScheduler>>(
          g.graph, workers, opts,
          smq::SchedulerRegistry::instance().create(kScheduler, workers), log);
  RungResult warm_traced = run_rung(*traced, warmup, spans, "warmup.traced");
  ClosedLoop closed_traced = closed_loop(*traced, g, pool, closed_s, spans, "closed.traced");
  std::vector<RungResult> results;
  for (const Rung& rung : ladder) {
    results.push_back(run_rung(*traced, rung, spans, "rung.traced." + fmt(rung.rate)));
  }
  std::vector<const RungResult*> all{&warm_traced, &closed_traced.result};
  for (const RungResult& r : results) all.push_back(&r);
  const unsigned lanes = traced->num_lanes();
  finish(traced, unfinished(all));
  check(warmup, warm_traced);
  check(closed_traced.rung, closed_traced.result);
  for (std::size_t k = 0; k < ladder.size(); ++k) check(ladder[k], results[k]);
  run_oracle();
  if (hung) return true;  // workers still run: the log is not quiescent
  log.close_leases();

  const smq::ThreadStats st = traced->worker_stats();
  std::uint64_t pushed = 0, popped = 0;
  for (unsigned t = 0; t < log.size(); ++t) {
    pushed += log.of(t).pushed;
    popped += log.of(t).popped;
  }
  if (pushed != st.pushes || popped != st.pops) {
    report.fail_check("wrapper counts (push " + std::to_string(pushed) + ", pop " +
                      std::to_string(popped) + ") differ from worker_stats (push " +
                      std::to_string(st.pushes) + ", pop " + std::to_string(st.pops) + ")");
  }

  std::uint64_t tasks = 0, wasted = 0, queries = 0;
  for (const RungResult& r : results) {
    tasks += r.tasks();
    wasted += r.wasted();
    queries += r.outcomes.size();
  }
  const RungResult& nom = results[w.nominal];
  const double mean_degree = static_cast<double>(g.graph->num_edges()) /
                             static_cast<double>(g.graph->num_vertices());
  const double task_bytes = computed_task_bytes(mean_degree, sizeof(std::uint64_t));
  const double nom_span_s = nom.achieved_qps() > 0
                                ? static_cast<double>(nom.outcomes.size()) / nom.achieved_qps()
                                : 0;
  const double useful =
      tasks > 0 ? 1.0 - static_cast<double>(wasted) / static_cast<double>(tasks) : 0;

  report.metric("graph.load_s", median(load_s), "s", "median mmap load and page-in");
  report.metric("graph.bytes_per_task", task_bytes, "B",
                "computed from the CSR layout at the mean degree");
  report.metric("mem.stream_gbps", stream_gbps, "GB/s",
                "read of " + std::to_string(stream_bytes >> 20) + " MiB by " +
                    std::to_string(workers) + " threads; LLC " +
                    std::to_string(llc >> 20) + " MiB");
  report.metric("graph.roofline_frac",
                stream_gbps > 0 && nom_span_s > 0
                    ? static_cast<double>(nom.tasks()) * task_bytes / nom_span_s /
                          (stream_gbps * 1e9)
                    : 0,
                "ratio", "computed bytes/s at the nominal rate / stream bandwidth");
  report.metric("algorithms.work_increase",
                closed_traced.expanded > 0
                    ? static_cast<double>(closed_traced.result.tasks()) /
                          static_cast<double>(closed_traced.expanded)
                    : 0,
                "ratio", "closed-loop tasks / sequential A* expansions");
  report.metric("algorithms.useful_frac", useful, "ratio");
  report_layer_totals(log, 1.0, shape_since(std::vector<ThreadTrace>(log.size()), log),
                      report);
  report.metric("service.inflight_max", static_cast<double>(nom.inflight_max), "count",
                "at the nominal rate, sampled at each submit");
  report.metric("service.backlog_max", static_cast<double>(nom.backlog_max), "count",
                "in flight beyond the " + std::to_string(lanes) + " lanes");
  report.metric("service.tasks_per_query",
                queries > 0 ? static_cast<double>(tasks) / static_cast<double>(queries) : 0,
                "count");
  report.metric("service.useful_frac", useful, "ratio");
  report.metric("loadgen.lag_ms_p99", quantile(nom.lags_ms(), 0.99), "ms",
                "generator lateness at the nominal rate (a check, not a target)");
  const double plain_p50 = median(closed_plain.result.latencies_ms());
  const double traced_p50 = median(closed_traced.result.latencies_ms());
  report.metric("trace.overhead_frac", plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0,
                "ratio",
                "closed-loop median latency traced " + fmt(traced_p50) + " ms vs untraced " +
                    fmt(plain_p50) + " ms, same queries");
  return true;
}

}  // namespace perfbench
