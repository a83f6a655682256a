// Shared vocabulary of the benchmark binary: run options, the metric
// report and its result line, in-memory phase spans, and the small
// measurement helpers (quantiles, peak RSS, the memory-bandwidth probe).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "registry/params.h"

namespace smq {
class Graph;
}

namespace perfbench {

class TraceLog;
struct ThreadTrace;

/// One workload of BENCHMARK.json, at benchmark or smoke size.
struct WorkloadSpec {
  std::string name;
  std::string graph;        // graph registry key
  smq::ParamMap graph_params;
  unsigned threads = 4;     // solver threads / service workers
  bool service = false;
  // Service: the closed loop's share of --seconds; then the open-loop
  // ladder's fixed offered rates (ascending), each rung's share of
  // --seconds, the nominal rung, and the p99 latency limit.
  double closed_share = 0;
  std::vector<double> rates;
  std::vector<double> shares;
  std::size_t nominal = 0;
  double latency_limit_ms = 0;
};

struct Options {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir;  // binary CSR cache
  std::string trace_out;  // span file (trace runs)
};

/// The workload table; `smoke` shrinks every input to a few milliseconds
/// of work. Returns false for an unknown name.
bool find_workload(std::string_view name, bool smoke, WorkloadSpec& out);
std::vector<std::string> workload_names();

/// A number for a human-readable line (6 significant digits).
std::string fmt(double v);

/// Linear-interpolation quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// The tail quantile of a sample of n latencies: p99 when at least ten
/// samples lie beyond it, else the highest quantile that still has ten
/// samples beyond it (the median at the least).
double tail_quantile(std::size_t n);

/// Read one word per 4 KiB page of the graph's arrays, so a memory-mapped
/// graph is paged in; returns a checksum so the reads are kept.
std::uint64_t page_in(const smq::Graph& g);

/// Process memory high-water mark, MiB.
double peak_rss_mb();

/// Streaming-read bandwidth over one array of `bytes`, read by `threads`
/// threads; the median of several passes, GB/s (1e9 bytes/s).
double stream_read_gbps(std::size_t bytes, unsigned threads);

/// Last-level cache size in bytes as the C library reports it (0 when
/// unknown).
std::size_t llc_bytes();

/// Phase spans with parent ids, kept in memory and written at exit.
class SpanLog {
 public:
  static constexpr std::uint32_t kRoot = 0;

  /// Record a finished span; times are now_ns() clock values. Returns its
  /// id (ids start at 1).
  std::uint32_t add(std::string name, std::uint32_t parent, std::int64_t start,
                    std::int64_t end);
  std::uint32_t begin(std::string name, std::uint32_t parent);
  void end(std::uint32_t id);
  std::size_t size() const noexcept { return spans_.size(); }

  /// One JSON object per line: id, parent, name, start_ns, dur_ns.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// Metrics by name with units, printed one per line and then as the
/// single JSON result line. Per-thread vectors are printed only.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void vector(const std::string& name, const std::vector<double>& values,
              const std::string& unit);
  void note(const std::string& line);

  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void fail_check(const std::string& why);  // a benchmark check failed

  /// A service was left running with unfinished queries; the process
  /// must exit without running destructors that would wait for them.
  void abandon() noexcept { abandoned_ = true; }
  bool abandoned() const noexcept { return abandoned_; }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable lines, then the result line as the last line.
  void print(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
  bool abandoned_ = false;
};

/// Run one workload; fills `report` (metrics for the requested mode) and
/// `spans`. Returns false when the workload could not run at all.
bool run_sssp_workload(const Options& opt, Report& report, SpanLog& spans);
bool run_service_workload(const Options& opt, Report& report, SpanLog& spans);

/// How one traced run spread over the threads: the busiest thread's share
/// of pops, and max / mean per-thread non-idle time.
struct RunShape {
  double pop_share_max = 0;
  double busy_imbalance = 0;
};

/// The shape of the work `log` recorded since the snapshot `before`.
RunShape shape_since(const std::vector<ThreadTrace>& before, const TraceLog& log);

/// The wrapper-derived layer metrics (relax, core, sched, registry) from
/// `log`'s totals, plus the per-thread vectors. Count metrics are divided
/// by `per` (solves for SSSP; 1 for the service's whole ladder); `shape`
/// supplies the distribution metrics.
void report_layer_totals(const TraceLog& log, double per, const RunShape& shape,
                         Report& report);

/// Computed memory traffic of one task that settles vertex v: its offset
/// entry, its adjacency (degree x sizeof(Neighbor)) and its label.
double computed_task_bytes(double degree, std::size_t label_bytes);

}  // namespace perfbench
