// Concrete scheduler configuration builders: ParamMap -> config struct,
// used by the scheduler registry's factories (which wrap the scheduler
// built from the config in AnyScheduler) and by tests that check a
// factory's config. Each builder also hands back the simulated-NUMA
// Topology (when requested) as a shared_ptr the caller must keep alive
// for the scheduler's lifetime — the configs hold a raw pointer into it.
#pragma once

#include <memory>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "registry/params.h"
#include "sched/topology.h"

namespace smq {

/// NUMA options accepted in three spellings: "--numa 2" (node count),
/// "--numa nodes=2,k=8", "--numa k=8" (implies 2 nodes), plus the
/// separate "--numa-k 8". Simulated topology, see sched/topology.h.
struct NumaOptions {
  unsigned nodes = 0;
  double k = 1.0;
};

NumaOptions parse_numa(const ParamMap& params, unsigned threads,
                       double default_k);

/// Build the simulated topology when requested; the caller ties its
/// lifetime to the scheduler (configs hold a raw pointer into it).
std::shared_ptr<Topology> make_topology(const NumaOptions& numa,
                                        unsigned threads);

const std::vector<Tunable>& numa_tunables();

/// Parse "--reclaim {none,epoch}" into a scheduler's cfg.reclaim flag.
/// Shared by every scheduler that owns an EpochManager so the spelling
/// (and the error message) is uniform. Throws std::invalid_argument on
/// any other value.
bool parse_reclaim(const ParamMap& params);

/// The registry row for the shared "--reclaim" knob.
const Tunable& reclaim_tunable();

// Each builder fills `topology` (possibly with nullptr) with the object
// its returned config points into.
SmqConfig make_smq_config(unsigned threads, const ParamMap& params,
                          std::shared_ptr<Topology>& topology);
ClassicMqConfig make_classic_mq_config(unsigned threads, const ParamMap& params,
                                       std::shared_ptr<Topology>& topology);
OptimizedMqConfig make_optimized_mq_config(unsigned threads,
                                           const ParamMap& params,
                                           std::shared_ptr<Topology>& topology);
ReldConfig make_reld_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);
ObimConfig make_obim_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);
/// Obim config plus the PMOD adaptation knobs.
ObimConfig make_pmod_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);

}  // namespace smq
