// perfbench — the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cache-dir DIR [--trace-out FILE] [--smoke]
//             [--git-commit REV]
//
// Prints the run's environment, one line per metric (name, value, unit,
// note), and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the phase spans to --trace-out). perfbench/run.py builds
// this binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "report.h"
#include "support/cli.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache-dir DIR [--trace-out FILE] [--smoke] "
               "[--git-commit REV]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  const smq::ArgParser args(argc, argv);
  Options opt;
  const std::string name = args.get("workload");
  const bool smoke = args.has_flag("smoke");
  if (!find_workload(name, smoke, opt.spec)) {
    return usage("unknown workload '" + name + "'");
  }
  if (!args.has_flag("seed") || !args.has_flag("seconds") ||
      !args.has_flag("cache-dir")) {
    return usage("--seed, --seconds and --cache-dir are required");
  }
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.cache_dir = args.get("cache-dir");
  opt.trace_out = args.get("trace-out");
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimized = build_type == "Release";
#ifndef NDEBUG
  optimized = false;
#endif
  if (!optimized) {
    return usage("refusing a '" + build_type +
                 "' build (assertions on or not Release): its timings are not comparable");
  }

  Report report;
  report.note("perfbench " + name + (smoke ? " (smoke size)" : "") + ", seed " +
              std::to_string(opt.seed) + ", " + fmt(opt.seconds) +
              " s, trace " + (opt.trace ? "on" : "off"));
  report.note("env: nproc " + std::to_string(std::thread::hardware_concurrency()) +
              ", threads " + std::to_string(opt.spec.threads) +
              (opt.spec.service ? " workers + 1 generator" : "") + ", LLC " +
              std::to_string(llc_bytes() >> 20) + " MiB, build " + build_type +
              ", compiler " + __VERSION__ +
              ", commit " + args.get("git-commit", "unknown"));

  SpanLog spans;
  const bool ran = opt.spec.service ? run_service_workload(opt, report, spans)
                                    : run_sssp_workload(opt, report, spans);
  if (!ran) {
    report.print(std::cerr);
    return 1;
  }
  report.note("error_rate " +
              fmt(report.attempted() == 0
                      ? 0.0
                      : static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted())) +
              " ratio (" + std::to_string(report.failed()) + " wrong, threw or "
              "unfinished of " + std::to_string(report.attempted()) + ")");
  if (opt.trace && !opt.trace_out.empty()) {
    if (spans.write(opt.trace_out)) {
      report.note("spans: " + std::to_string(spans.size()) + " written to " + opt.trace_out);
    } else {
      report.fail_check("cannot write spans to " + opt.trace_out);
    }
  }
  report.print(std::cout);
  if (report.abandoned()) {
    std::fflush(stdout);
    std::_Exit(0);  // a service still holds unfinished queries
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
