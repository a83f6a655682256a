#include "registry/scheduler_registry.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"
#include "registry/scheduler_configs.h"
#include "sched/topology.h"
#include "support/cli.h"

namespace smq {

ParamMap ParamMap::from_args(const ArgParser& args) {
  ParamMap params;
  for (const auto& [key, value] : args.options()) params.set(key, value);
  return params;
}

namespace {

/// `params` with `defaults` filled in where unset and `pinned` forced.
ParamMap resolve_preset_params(const ParamMap& params, const ParamMap& defaults,
                               const ParamMap& pinned) {
  ParamMap resolved = params;
  for (const auto& [key, value] : defaults.entries()) {
    if (!resolved.has(key)) resolved.set(key, value);
  }
  for (const auto& [key, value] : pinned.entries()) {
    resolved.set(key, value);
  }
  return resolved;
}

void append(std::vector<Tunable>& dst, const std::vector<Tunable>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Register `name` as a preset over the already-registered `family`
/// entry: a config family plus a fixed knob assignment. The preset
/// reuses the family's factory; `pinned` knobs always win over caller
/// params (that is what makes the key a preset), `defaults` fill in only
/// when the caller left the key unset. The preset inherits the family's
/// tunables minus the pinned keys (those are no longer knobs) with
/// preset defaults substituted in.
void add_preset(SchedulerRegistry& reg, std::string name,
                std::string description, const std::string& family,
                ParamMap pinned, ParamMap defaults = {}) {
  const SchedulerEntry* base = reg.find(family);
  if (base == nullptr) {
    throw std::logic_error("preset '" + name + "' names unknown family '" +
                           family + "'");
  }
  SchedulerEntry entry;
  entry.name = std::move(name);
  entry.description = std::move(description);
  entry.max_threads = base->max_threads;
  for (const Tunable& t : base->tunables) {
    if (pinned.has(t.name)) continue;
    Tunable preset_t = t;
    if (defaults.has(t.name)) preset_t.default_value = defaults.get(t.name);
    entry.tunables.push_back(std::move(preset_t));
  }
  entry.make = [base_make = base->make, pinned = std::move(pinned),
                defaults = std::move(defaults)](unsigned threads,
                                                const ParamMap& params) {
    return base_make(threads, resolve_preset_params(params, defaults, pinned));
  };
  reg.add(std::move(entry));
}

template <typename LocalPQ>
AnyScheduler make_smq(unsigned threads, const ParamMap& params) {
  std::shared_ptr<Topology> topo;
  const SmqConfig cfg = make_smq_config(threads, params, topo);
  auto any = AnyScheduler::make<StealingMultiQueue<LocalPQ>>(threads, cfg);
  if (topo) any.attach(std::move(topo));
  return any;
}

std::vector<Tunable> smq_tunables() {
  std::vector<Tunable> t = {
      {"steal-size", "4", "batch size SIZE_steal"},
      {"p-steal", "1/8", "stealing probability (decimal or fraction)"},
      {"seed", "1", "RNG seed"},
  };
  append(t, numa_tunables());
  return t;
}

void register_builtins(SchedulerRegistry& reg) {
  reg.add({
      .name = "smq",
      .description = "Stealing Multi-Queue, d-ary heap local queues "
                     "(the paper's contribution)",
      .tunables = smq_tunables(),
      .make = make_smq<DAryHeap<Task, 4>>,
  });

  reg.add({
      .name = "smq-skiplist",
      .description = "Stealing Multi-Queue with skip-list local queues "
                     "(Appendix D)",
      .tunables = smq_tunables(),
      .make = make_smq<SequentialSkipList>,
  });

  {
    std::vector<Tunable> t = {
        {"c", "4", "queues per thread (m = C*T)"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "mq",
        .description = "classic Multi-Queue (Rihani et al.; paper Listing 1)",
        .tunables = std::move(t),
        .make =
            [](unsigned threads, const ParamMap& params) {
              std::shared_ptr<Topology> topo;
              const ClassicMqConfig cfg =
                  make_classic_mq_config(threads, params, topo);
              auto any = AnyScheduler::make<ClassicMultiQueue>(threads, cfg);
              if (topo) any.attach(std::move(topo));
              return any;
            },
    });
  }

  {
    std::vector<Tunable> t = {
        {"c", "4", "queues per thread"},
        {"insert-policy", "batch", "\"batch\" or \"local\" (temporal locality)"},
        {"delete-policy", "batch", "\"batch\" or \"local\""},
        {"insert-batch", "16", "insert buffer size (batch policy)"},
        {"delete-batch", "16", "delete batch size (batch policy)"},
        {"p-insert", "1", "probability of re-sampling the insert queue"},
        {"p-delete", "1", "probability of re-sampling the delete queue"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "mq-opt",
        .description = "optimized Multi-Queue: task batching / temporal "
                       "locality (Section 2.1, Appendix C)",
        .tunables = std::move(t),
        .make =
            [](unsigned threads, const ParamMap& params) {
              std::shared_ptr<Topology> topo;
              const OptimizedMqConfig cfg =
                  make_optimized_mq_config(threads, params, topo);
              auto any = AnyScheduler::make<OptimizedMultiQueue>(threads, cfg);
              if (topo) any.attach(std::move(topo));
              return any;
            },
    });
  }

  {
    std::vector<Tunable> t = {
        {"chunk-size", "64", "tasks per chunk"},
        {"delta-shift", "10", "log2(delta): priority bits merged per level"},
    };
    append(t, numa_tunables());
    t.push_back(reclaim_tunable());
    reg.add({
        .name = "obim",
        .description = "Ordered By Integer Metric (Galois; Nguyen et al.)",
        .tunables = t,
        .make =
            [](unsigned threads, const ParamMap& params) {
              std::shared_ptr<Topology> topo;
              const ObimConfig cfg = make_obim_config(threads, params, topo);
              auto any = AnyScheduler::make<Obim>(threads, cfg);
              if (topo) any.attach(std::move(topo));
              return any;
            },
    });

    t.push_back({"adapt-interval", "64", "chunk-pops between delta checks"});
    t.push_back({"split-threshold", "4096",
                 "tasks in the lowest level that force a delta split"});
    reg.add({
        .name = "pmod",
        .description = "OBIM with runtime delta adaptation (Yesil et al.)",
        .tunables = std::move(t),
        .make =
            [](unsigned threads, const ParamMap& params) {
              std::shared_ptr<Topology> topo;
              const ObimConfig cfg = make_pmod_config(threads, params, topo);
              auto any = AnyScheduler::make<Pmod>(threads, cfg);
              if (topo) any.attach(std::move(topo));
              return any;
            },
    });
  }

  reg.add({
      .name = "spraylist",
      .description = "SprayList relaxed skip-list PQ (Alistarh et al.)",
      .tunables = {{"seed", "1", "RNG seed"},
                   {"height-offset", "1", "spray height = log T + offset"},
                   {"jump-scale", "1", "max jump multiplier"},
                   reclaim_tunable()},
      .make =
          [](unsigned threads, const ParamMap& params) {
            SprayConfig cfg;
            cfg.seed = params.get_uint("seed", 1);
            cfg.height_offset =
                static_cast<int>(params.get_int("height-offset", 1));
            cfg.jump_scale = static_cast<int>(params.get_int("jump-scale", 1));
            cfg.reclaim = parse_reclaim(params);
            return AnyScheduler::make<SprayList>(threads, cfg);
          },
  });

  {
    std::vector<Tunable> t = {
        {"c", "1", "queues per thread"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "reld",
        .description = "Random Enqueue, Local Dequeue (Jeffrey et al.)",
        .tunables = std::move(t),
        .make =
            [](unsigned threads, const ParamMap& params) {
              std::shared_ptr<Topology> topo;
              const ReldConfig cfg = make_reld_config(threads, params, topo);
              auto any = AnyScheduler::make<ReldQueue>(threads, cfg);
              if (topo) any.attach(std::move(topo));
              return any;
            },
    });
  }

  reg.add({
      .name = "lockfree-skiplist",
      .description = "exact delete-min over the lock-free skip list "
                     "(SprayList without the spray)",
      .tunables = {{"seed", "1", "RNG seed"}, reclaim_tunable()},
      .make =
          [](unsigned threads, const ParamMap& params) {
            GlobalSkipListScheduler::Config cfg;
            cfg.seed = params.get_uint("seed", 1);
            cfg.reclaim = parse_reclaim(params);
            return AnyScheduler::make<GlobalSkipListScheduler>(threads, cfg);
          },
  });

  reg.add({
      .name = "dary-heap",
      .description = "one global spinlocked d-ary heap (strict concurrent "
                     "PQ anchor)",
      .tunables = {},
      .make =
          [](unsigned threads, const ParamMap&) {
            return AnyScheduler::make<GlobalHeapScheduler>(threads);
          },
  });

  reg.add({
      .name = "chunk-bag",
      .description = "single unordered chunk bag (no priorities; "
                     "throughput anchor)",
      .tunables = {{"chunk-size", "64", "tasks per chunk"}, reclaim_tunable()},
      .make =
          [](unsigned threads, const ParamMap& params) {
            ChunkBagScheduler::Config cfg;
            cfg.chunk_size =
                static_cast<std::size_t>(params.get_int("chunk-size", 64));
            cfg.reclaim = parse_reclaim(params);
            return AnyScheduler::make<ChunkBagScheduler>(threads, cfg);
          },
  });

  reg.add({
      .name = "sequential",
      .description = "exact single-thread d-ary heap (speedup baseline)",
      .max_threads = 1,
      .tunables = {},
      .make =
          [](unsigned, const ParamMap&) {
            return AnyScheduler::make<SequentialScheduler>(1u);
          },
  });

  // ---- named sweep presets -------------------------------------------
  //
  // The paper's parameter grids as first-class registry keys, so
  // `--sched`, the NUMA grid and the figure suites (registry/suites.h)
  // can enumerate them like any other scheduler instead of benches
  // hand-rolling the loops. Pinned knobs win over conflicting CLI
  // tunables — that is what makes the key a preset; everything else
  // (c, seed, numa, steal-size, chunk-size, ...) still flows through.

  // mq-tl-p<D>: optimized MQ, temporal locality on insert AND delete
  // with p_change = 1/D (Figures 7-14's stickiness sweep; p = 1
  // reproduces the classic MQ behaviour).
  for (const int denom : {1, 4, 16, 64, 256, 1024}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "mq-tl-p" + std::to_string(denom),
               "preset: mq-opt, temporal locality, p = " + p, "mq-opt",
               params_of({{"insert-policy", "local"},
                          {"delete-policy", "local"},
                          {"p-insert", p},
                          {"p-delete", p}}));
  }

  // reld-c<C>: RELD with C queues per thread (the C-sweep anchor).
  for (const unsigned c : {1u, 2u, 4u, 8u}) {
    add_preset(reg, "reld-c" + std::to_string(c),
               "preset: RELD with " + std::to_string(c) + " queues per thread",
               "reld", params_of({{"c", std::to_string(c)}}));
  }

  // obim-d<S> / pmod-d<S>: the Figures 3-6 delta sweep, delta = 2^S.
  // chunk-size stays tunable (the figures' other axis).
  for (const unsigned shift : {0u, 2u, 4u, 8u, 12u, 16u}) {
    const std::string s = std::to_string(shift);
    add_preset(reg, "obim-d" + s, "preset: OBIM with delta = 2^" + s, "obim",
               params_of({{"delta-shift", s}}));
    add_preset(reg, "pmod-d" + s,
               "preset: PMOD starting from delta = 2^" + s, "pmod",
               params_of({{"delta-shift", s}}));
  }

  // mq-c<C>: the classic-MQ queue-multiplier sweep (Tables 2-3).
  for (const unsigned c : {1u, 2u, 4u, 8u, 16u}) {
    add_preset(reg, "mq-c" + std::to_string(c),
               "preset: classic MQ with C = " + std::to_string(c),
               "mq", params_of({{"c", std::to_string(c)}}));
  }

  // smq-p<D> / smq-sl-p<D>: the SMQ ablation pair (Figure 1 and
  // Figures 19-20), p_steal = 1/D; steal-size stays tunable (the
  // figures' other axis).
  for (const int denom : {2, 4, 8, 16, 32, 64}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "smq-p" + std::to_string(denom),
               "preset: SMQ (heap), p_steal = " + p, "smq",
               params_of({{"p-steal", p}}));
  }
  for (const int denom : {2, 4, 8, 16, 32}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "smq-sl-p" + std::to_string(denom),
               "preset: SMQ (skip list), p_steal = " + p, "smq-skiplist",
               params_of({{"p-steal", p}}));
  }

  // The MQ-Optimized ablation stack (Figures 7-16): which optimization
  // family is on. `none` degenerates to the classic MQ (buffers of 1);
  // `buf` is task batching on both sides (buffer-size sub-sweep via
  // insert-batch/delete-batch); `stick` is temporal locality on both
  // sides (stickiness sub-sweep via p-insert/p-delete); `full` combines
  // the families at the paper's representative settings — insertion
  // batching plus deletion temporal locality.
  add_preset(reg, "mq-opt-none",
             "preset: mq-opt with every optimization off (classic MQ)",
             "mq-opt",
             params_of({{"insert-policy", "batch"},
                        {"delete-policy", "batch"},
                        {"insert-batch", "1"},
                        {"delete-batch", "1"}}));
  add_preset(reg, "mq-opt-buf",
             "preset: mq-opt, task batching on insert and delete", "mq-opt",
             params_of({{"insert-policy", "batch"}, {"delete-policy", "batch"}}),
             params_of({{"insert-batch", "16"}, {"delete-batch", "16"}}));
  add_preset(reg, "mq-opt-stick",
             "preset: mq-opt, temporal locality on insert and delete",
             "mq-opt",
             params_of({{"insert-policy", "local"}, {"delete-policy", "local"}}),
             params_of({{"p-insert", "1/16"}, {"p-delete", "1/16"}}));
  add_preset(reg, "mq-opt-full",
             "preset: mq-opt, insert batching + delete temporal locality",
             "mq-opt",
             params_of({{"insert-policy", "batch"}, {"delete-policy", "local"}}),
             params_of({{"insert-batch", "16"}, {"p-delete", "1/16"}}));
}

}  // namespace

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry* reg = [] {
    auto* r = new SchedulerRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

AnyScheduler SchedulerRegistry::create(std::string_view name, unsigned threads,
                                       const ParamMap& params) const {
  const SchedulerEntry* entry = find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown scheduler: " + std::string(name));
  }
  return entry->make(effective_threads(*entry, threads), params);
}

}  // namespace smq
