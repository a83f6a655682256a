// The erased service boundary: build a QueryService over any registered
// scheduler (presets included) by name, the way smq_run and the benches
// resolve every other axis. One SchedulerService<AnyScheduler>
// instantiation serves the whole registry; static instantiation of a
// concrete SchedulerService<S> remains available to code that names S
// (tests do).
#pragma once

#include <memory>
#include <string_view>

#include "registry/graph_registry.h"
#include "registry/params.h"
#include "service/query.h"
#include "tuning/auto_select.h"

namespace smq {

/// The algorithm `--sched auto` resolves a service for: the service
/// answers point-to-point A* queries (Dijkstra without coordinates).
inline constexpr std::string_view kServiceAlgorithm = "astar";

/// Build a running service for `sched_name` x `threads` over `graph`.
/// The worker count is clamped to the scheduler's thread capacity
/// (effective_threads), the heuristic scale comes from the graph
/// instance, and `params` reaches the scheduler factory untouched —
/// presets resolve exactly as in a sweep. "auto" runs the preset
/// tuning::resolve_auto picks for kServiceAlgorithm.
/// Throws std::invalid_argument on an unknown scheduler.
std::unique_ptr<QueryService> make_service(std::string_view sched_name,
                                           unsigned threads,
                                           const ParamMap& params,
                                           const GraphInstance& graph,
                                           ServiceOptions opts = {});

/// The worker count make_service will actually run with ("auto" is
/// resolved first).
unsigned service_effective_threads(std::string_view sched_name,
                                   unsigned requested);

}  // namespace smq
