// `--sched auto` conformance: every rule in tuning::kAutoRules names a
// registered algorithm and a registered preset that runs at the thread
// counts the drivers use and matches the sequential oracle, and
// resolution returns the rule's preset, or `smq` for an algorithm
// without a rule, through both the sweep and the service paths.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algorithms/astar.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "service/service_driver.h"
#include "tuning/auto_select.h"

namespace smq::tuning {
namespace {

constexpr unsigned kThreadCounts[] = {1u, 4u};

GraphInstance rand_instance() {
  ParamMap gparams;
  gparams.set("vertices", "500");
  gparams.set("seed", "3");
  return GraphRegistry::instance().create("rand", gparams);
}

TEST(TuningConformance, RulesNameOnlyRegisteredKeys) {
  std::set<std::string_view> algorithms;
  for (const AutoRule& rule : kAutoRules) {
    SCOPED_TRACE(std::string(rule.algorithm) + " -> " + std::string(rule.preset));
    EXPECT_TRUE(algorithms.insert(rule.algorithm).second)
        << "a second row for the same algorithm is never reached";
    EXPECT_NE(AlgorithmRegistry::instance().find(rule.algorithm), nullptr);
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(rule.preset);
    ASSERT_NE(entry, nullptr);
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(effective_threads(*entry, threads), threads)
          << "the rule's preset cannot run at " << threads << " threads";
    }
    EXPECT_FALSE(rule.evidence.empty());
  }
  EXPECT_NE(SchedulerRegistry::instance().find(kAutoDefaultPreset), nullptr);
}

/// Every (preset, algorithm) pair a rule endorses must execute and match
/// the oracle — the drivers run these rows without a second look.
TEST(TuningConformance, EndorsedPresetAlgorithmPairsPassTheOracle) {
  const GraphInstance inst = rand_instance();
  for (const AutoRule& rule : kAutoRules) {
    const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(rule.algorithm);
    ASSERT_NE(algo, nullptr);
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(rule.preset);
    ASSERT_NE(entry, nullptr);
    const AlgoReference ref = algo->make_reference(inst, {});
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(std::string(rule.preset) + '/' + std::string(rule.algorithm) +
                   " @ " + std::to_string(threads) + 't');
      AnyScheduler sched = entry->make(threads, {});
      const AlgoResult result = algo->run(inst, sched, threads, {}, &ref);
      EXPECT_TRUE(result.validated);
      EXPECT_TRUE(result.valid);
    }
  }
}

/// `--sched auto` resolves every rule's algorithm, and one without a
/// rule, to a registered preset that matches the oracle at 1 and 4
/// threads, with provenance attached.
TEST(TuningConformance, AutoSelectionResolvesAndPassesTheOracle) {
  const GraphInstance inst = rand_instance();
  std::vector<std::string_view> algorithms = {"sssp"};
  for (const AutoRule& rule : kAutoRules) algorithms.push_back(rule.algorithm);
  for (const std::string_view algo_name : algorithms) {
    const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
    ASSERT_NE(algo, nullptr);
    const AlgoReference ref = algo->make_reference(inst, {});
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(std::string(algo_name) + " @ " + std::to_string(threads) + 't');
      const AutoSelection sel = resolve_auto(algo_name);
      const SchedulerEntry* entry = SchedulerRegistry::instance().find(sel.preset);
      ASSERT_NE(entry, nullptr) << "auto resolved to unknown '" << sel.preset << "'";
      EXPECT_FALSE(sel.why.empty());
      const unsigned eff = effective_threads(*entry, threads);
      AnyScheduler sched = entry->make(eff, {});
      const AlgoResult result = algo->run(inst, sched, eff, {}, &ref);
      EXPECT_TRUE(result.validated);
      EXPECT_TRUE(result.valid) << sel.preset << " failed the oracle";
    }
  }
}

TEST(TuningConformance, RuleAlgorithmsResolveToTheirPreset) {
  for (const AutoRule& rule : kAutoRules) {
    const AutoSelection sel = resolve_auto(rule.algorithm);
    EXPECT_EQ(sel.preset, rule.preset);
    EXPECT_EQ(sel.match, "rule");
    EXPECT_EQ(sel.why, rule.evidence);
  }
}

TEST(TuningConformance, AlgorithmWithoutRuleResolvesToSmq) {
  for (const char* algo : {"sssp", "astar", "pagerank", "no-such-algorithm"}) {
    const AutoSelection sel = resolve_auto(algo);
    EXPECT_EQ(sel.preset, "smq") << algo;
    EXPECT_EQ(sel.match, "default") << algo;
  }
}

/// make_service("auto", ...) resolves through the same rule list and
/// answers point-to-point queries like the sequential A* oracle.
TEST(TuningConformance, AutoServiceAnswersQueriesCorrectly) {
  ParamMap params;
  params.set("vertices", "1500");
  params.set("seed", "9");
  const GraphInstance gi = GraphRegistry::instance().create("road", params);
  const std::vector<Query> queries = make_query_set(gi, 32, /*seed=*/5);
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string_view preset = resolve_auto(kServiceAlgorithm).preset;
    EXPECT_EQ(service_effective_threads(kAutoSchedulerName, threads),
              service_effective_threads(preset, threads));
    auto service = make_service(kAutoSchedulerName, threads, params, gi);
    for (const Query& q : queries) {
      const auto ref =
          sequential_astar(*gi.graph, q.source, q.target, gi.weight_scale);
      EXPECT_EQ(service->run(q).distance, ref.distance)
          << q.source << " -> " << q.target;
    }
    service->stop();
  }
}

}  // namespace
}  // namespace smq::tuning
