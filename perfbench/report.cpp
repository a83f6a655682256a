#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "graph/graph.h"
#include "traced_scheduler.h"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool find_workload(std::string_view name, bool smoke, WorkloadSpec& out) {
  WorkloadSpec w;
  w.name = std::string(name);
  if (name == "sssp-road") {
    w.graph = "road";
    w.graph_params.set("vertices", smoke ? "20000" : "1000000");
  } else if (name == "sssp-rmat") {
    w.graph = "rmat";
    w.graph_params.set("scale", smoke ? "12" : "20");
  } else if (name == "astar-service") {
    w.graph = "road";
    w.graph_params.set("vertices", smoke ? "5000" : "250000");
    w.threads = 3;  // plus the generator thread = 4 cores
    w.service = true;
    // A closed loop of one client, then an open-loop ladder at fixed
    // rates: 110 qps (nominal), 220, 440 and 1500. The pool's capacity on
    // this graph is 650-1100 qps on a 4-core Xeon VM, depending on host
    // load, so the knee falls inside the wide 440-1500 gap in every state
    // seen, never next to a rung whose pass/fail (and so goodput) would
    // be a coin toss. At the light nominal load the p99 reflects the
    // service rather than queueing on a preempted host, whose amplified
    // tail spread 0.5 (interquartile / median) from run to run at 220 qps.
    w.closed_share = 0.25;
    w.rates = {110, 220, 440, 1500};
    w.shares = {0.5, 0.1, 0.1, 0.05};
    w.nominal = 0;
    w.latency_limit_ms = 200;
    if (smoke) {
      for (double& r : w.rates) r *= 10;
    }
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

std::vector<std::string> workload_names() {
  return {"sssp-road", "sssp-rmat", "astar-service"};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double tail_quantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n == 0) return 0.5;
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(n));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t page_in(const smq::Graph& g) {
  constexpr std::size_t kPage = 4096;
  std::uint64_t sum = 0;
  const auto offsets = g.offsets();
  for (std::size_t i = 0; i < offsets.size(); i += kPage / sizeof(offsets[0])) {
    sum += offsets[i];
  }
  const auto adjacency = g.adjacency();
  for (std::size_t i = 0; i < adjacency.size(); i += kPage / sizeof(adjacency[0])) {
    sum += adjacency[i].weight;
  }
  const smq::Coordinates& c = g.coordinates();
  for (std::size_t i = 0; i < c.x.size(); i += kPage / sizeof(double)) {
    sum += static_cast<std::uint64_t>(c.x[i] + c.y[i]);
  }
  return sum;
}

std::size_t llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return static_cast<std::size_t>(l2);
#endif
  return 0;
}

double stream_read_gbps(std::size_t bytes, unsigned threads) {
  const std::size_t words = bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> data(words);
  for (std::size_t i = 0; i < words; ++i) data[i] = i;
  threads = std::max(1u, threads);
  std::vector<std::uint64_t> sums(threads * 16);
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    {
      std::vector<std::jthread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          const std::size_t lo = words * t / threads;
          const std::size_t hi = words * (t + 1) / threads;
          std::uint64_t s = 0;
          for (std::size_t i = lo; i < hi; ++i) s += data[i];
          sums[t * 16] = s;
        });
      }
    }
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    rates.push_back(static_cast<double>(words * sizeof(std::uint64_t)) / secs / 1e9);
  }
  std::uint64_t total = 0;
  for (unsigned t = 0; t < threads; ++t) total += sums[t * 16];
  // Every pass sums 0..words-1; a mismatch means the reads were elided.
  const unsigned __int128 expect =
      static_cast<unsigned __int128>(words) * (words - 1) / 2;
  if (total != static_cast<std::uint64_t>(expect)) return 0;
  return median(rates);
}

RunShape shape_since(const std::vector<ThreadTrace>& before, const TraceLog& log) {
  std::vector<double> pops, busy;
  for (unsigned t = 0; t < log.size(); ++t) {
    const ThreadTrace& now = log.of(t);
    const ThreadTrace& was = before[t];
    pops.push_back(static_cast<double>(now.popped - was.popped));
    busy.push_back(static_cast<double>((now.wall_ticks - was.wall_ticks) -
                                       (now.idle_ticks - was.idle_ticks) -
                                       (now.empty_pop_ticks - was.empty_pop_ticks)));
  }
  RunShape shape;
  double pop_sum = 0, busy_sum = 0, pop_max = 0, busy_max = 0;
  for (std::size_t t = 0; t < pops.size(); ++t) {
    pop_sum += pops[t];
    busy_sum += busy[t];
    pop_max = std::max(pop_max, pops[t]);
    busy_max = std::max(busy_max, busy[t]);
  }
  shape.pop_share_max = pop_sum > 0 ? pop_max / pop_sum : 0;
  shape.busy_imbalance =
      busy_sum > 0 ? busy_max / (busy_sum / static_cast<double>(busy.size())) : 0;
  return shape;
}

void report_layer_totals(const TraceLog& log, double per, const RunShape& shape,
                         Report& report) {
  ThreadTrace sum;
  std::vector<double> pops, pushes, steals, fails, empty, busy_ms, idle_ms,
      relax_ms;
  const double ns = log.ns_per_tick();
  for (unsigned t = 0; t < log.size(); ++t) {
    const ThreadTrace& tr = log.of(t);
    sum.calls += tr.calls;
    sum.pushed += tr.pushed;
    sum.popped += tr.popped;
    sum.empty_pops += tr.empty_pops;
    sum.steals += tr.steals;
    sum.steal_fails += tr.steal_fails;
    sum.push_ticks += tr.push_ticks;
    sum.pop_ticks += tr.pop_ticks;
    sum.empty_pop_ticks += tr.empty_pop_ticks;
    sum.relax_ticks += tr.relax_ticks;
    sum.idle_ticks += tr.idle_ticks;
    sum.wall_ticks += tr.wall_ticks;
    const double busy =
        static_cast<double>(tr.wall_ticks - tr.idle_ticks - tr.empty_pop_ticks) * ns * 1e-6;
    pops.push_back(static_cast<double>(tr.popped));
    pushes.push_back(static_cast<double>(tr.pushed));
    steals.push_back(static_cast<double>(tr.steals));
    fails.push_back(static_cast<double>(tr.steal_fails));
    empty.push_back(static_cast<double>(tr.empty_pops));
    busy_ms.push_back(busy);
    idle_ms.push_back(static_cast<double>(tr.idle_ticks) * ns * 1e-6);
    relax_ms.push_back(static_cast<double>(tr.relax_ticks) * ns * 1e-6);
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto t = [ns](std::int64_t ticks) { return static_cast<double>(ticks) * ns; };

  report.metric("algorithms.relax_ns_per_task", ratio(t(sum.relax_ticks), d(sum.popped)),
                "ns", "self time from a successful pop to the next non-push call");
  report.metric("core.pop_ns_per_task", ratio(t(sum.pop_ticks), d(sum.popped)), "ns");
  report.metric("core.push_ns_per_task", ratio(t(sum.push_ticks), d(sum.pushed)), "ns");
  report.metric("core.empty_pop_ns", ratio(t(sum.empty_pop_ticks), d(sum.empty_pops)),
                "ns", "per empty pop");
  report.metric("core.steals", d(sum.steals) / per, "count");
  report.metric("core.steal_fails", d(sum.steal_fails) / per, "count",
                "claims that lost; attempts that bail before claiming are not "
                "visible from outside");
  report.metric("core.steal_success_frac",
                ratio(d(sum.steals), d(sum.steals + sum.steal_fails)), "ratio");
  report.metric("core.pop_share_max", shape.pop_share_max, "ratio",
                "busiest thread's share of pops; 1/T is even");
  report.metric("sched.idle_frac", ratio(d(sum.idle_ticks), d(sum.wall_ticks)), "ratio",
                "time after empty pops / worker wall time");
  report.metric("sched.empty_pops", d(sum.empty_pops) / per, "count");
  report.metric("sched.busy_imbalance", shape.busy_imbalance, "ratio",
                "max / mean per-thread non-idle time");
  report.metric("registry.calls_per_task", ratio(d(sum.calls), d(sum.popped)),
                "count", "AnyScheduler handle calls per executed task");
  report.vector("core.pops_per_thread", pops, "count");
  report.vector("core.pushes_per_thread", pushes, "count");
  report.vector("core.steals_per_thread", steals, "count");
  report.vector("core.steal_fails_per_thread", fails, "count");
  report.vector("sched.empty_pops_per_thread", empty, "count");
  report.vector("sched.busy_ms_per_thread", busy_ms, "ms");
  report.vector("sched.idle_ms_per_thread", idle_ms, "ms");
  report.vector("algorithms.relax_ms_per_thread", relax_ms, "ms");
}

double computed_task_bytes(double degree, std::size_t label_bytes) {
  return static_cast<double>(sizeof(std::size_t)) +
         degree * static_cast<double>(sizeof(smq::Graph::Neighbor)) +
         static_cast<double>(label_bytes);
}

std::uint32_t SpanLog::add(std::string name, std::uint32_t parent,
                           std::int64_t start, std::int64_t end) {
  spans_.push_back(Span{std::move(name), parent, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t SpanLog::begin(std::string name, std::uint32_t parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), parent, t, t);
}

void SpanLog::end(std::uint32_t id) {
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end = now_ns();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start
        << ", \"dur_ns\": " << (s.end - s.start) << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back(Entry{name, value, unit});
  lines_.push_back(name + " " + num(value) + " " + unit +
                   (note.empty() ? "" : "  # " + note));
}

void Report::vector(const std::string& name, const std::vector<double>& values,
                    const std::string& unit) {
  std::string line = name + " [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    line += (i == 0 ? "" : ", ") + num(values[i]);
  }
  lines_.push_back(line + "] " + unit);
}

void Report::note(const std::string& line) { lines_.push_back("# " + line); }

void Report::fail_check(const std::string& why) {
  checks_ok_ = false;
  lines_.push_back("# CHECK FAILED: " + why);
}

void Report::print(std::ostream& os) const {
  for (const std::string& line : lines_) os << line << "\n";
  os << "{\"correct\": " << (failed_ == 0 && checks_ok_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    os << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
       << num(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}}" << std::endl;
}

}  // namespace perfbench
