#include "registry/service_factory.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "registry/any_scheduler.h"
#include "registry/scheduler_registry.h"
#include "service/scheduler_service.h"

namespace smq {

unsigned service_effective_threads(std::string_view sched_name,
                                   unsigned requested) {
  if (sched_name == tuning::kAutoSchedulerName) {
    sched_name = tuning::resolve_auto(kServiceAlgorithm).preset;
  }
  const SchedulerEntry* entry =
      SchedulerRegistry::instance().find(sched_name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown scheduler: " +
                                std::string(sched_name));
  }
  return effective_threads(*entry, requested);
}

std::unique_ptr<QueryService> make_service(std::string_view sched_name,
                                           unsigned threads,
                                           const ParamMap& params,
                                           const GraphInstance& graph,
                                           ServiceOptions opts) {
  std::string resolved(sched_name);
  if (sched_name == tuning::kAutoSchedulerName) {
    resolved = tuning::resolve_auto(kServiceAlgorithm).preset;
  }
  const unsigned workers = service_effective_threads(resolved, threads);
  opts.weight_scale = graph.weight_scale;
  AnyScheduler sched =
      SchedulerRegistry::instance().create(resolved, workers, params);
  return std::make_unique<SchedulerService<AnyScheduler>>(
      graph.graph, workers, opts, std::move(sched));
}

}  // namespace smq
