// Steal liveness of the Stealing Multi-Queue: under a single-source
// workload every task starts on the seeding thread, so the other threads
// get work only by stealing. Four handles are driven from one thread in a
// seeded interleaving, which makes the test deterministic, lets it run on
// a single CPU and needs no sleeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/skiplist.h"
#include "sched/task.h"
#include "support/rng.h"

namespace smq {
namespace {

template <typename Q>
class SmqLiveness : public ::testing::Test {};

using SmqTypes = ::testing::Types<StealingMultiQueue<DAryHeap<Task, 4>>,
                                  StealingMultiQueue<SequentialSkipList>>;
TYPED_TEST_SUITE(SmqLiveness, SmqTypes);

// A complete kFanOut-ary tree numbered breadth-first: node n's children
// are n * kFanOut + 1 ... n * kFanOut + kFanOut, and a node's priority is
// its depth.
constexpr std::uint64_t kFanOut = 4;
constexpr std::uint64_t kDepth = 6;

std::uint64_t tree_size() {
  std::uint64_t total = 0, level = 1;
  for (std::uint64_t d = 0; d <= kDepth; ++d, level *= kFanOut) total += level;
  return total;
}

std::uint64_t depth_of(std::uint64_t node) {
  std::uint64_t depth = 0;
  while (node != 0) {
    node = (node - 1) / kFanOut;
    ++depth;
  }
  return depth;
}

TYPED_TEST(SmqLiveness, SingleSourceFanOutReachesEveryHandle) {
  constexpr unsigned kHandles = 4;
  // The paper's defaults: SIZE_steal 4, p_steal 1/8.
  TypeParam smq(kHandles, SmqConfig{.seed = 3});
  std::vector<typename TypeParam::Handle> handles;
  for (unsigned tid = 0; tid < kHandles; ++tid) {
    handles.push_back(smq.handle(tid));
  }

  const std::uint64_t total = tree_size();
  std::vector<int> executed(total, 0);
  std::vector<std::uint64_t> pops(kHandles, 0);
  std::uint64_t pushed = 1, popped = 0, empty = 0;
  handles[0].push(Task{0, 0});
  Xoshiro256 rng(11);
  while (popped < pushed) {
    const auto tid = static_cast<unsigned>(rng.next_below(kHandles));
    const std::optional<Task> task = handles[tid].try_pop();
    if (!task) {
      ASSERT_LT(++empty, 100 * total) << "tasks stranded in the queues";
      continue;
    }
    ++pops[tid];
    ++popped;
    ASSERT_LT(task->payload, total);
    ++executed[task->payload];
    EXPECT_EQ(task->priority, depth_of(task->payload));
    if (task->priority == kDepth) continue;
    for (std::uint64_t c = 1; c <= kFanOut; ++c) {
      handles[tid].push(Task{task->priority + 1, task->payload * kFanOut + c});
      ++pushed;
    }
  }

  EXPECT_EQ(pushed, total);
  EXPECT_EQ(popped, total);
  for (std::uint64_t node = 0; node < total; ++node) {
    EXPECT_EQ(executed[node], 1) << "node " << node;
  }
  for (unsigned tid = 0; tid < kHandles; ++tid) {
    EXPECT_TRUE(handles[tid].try_pop() == std::nullopt);
  }
  std::uint64_t steals = 0;
  for (unsigned tid = 0; tid < kHandles; ++tid) steals += smq.steals(tid);
  EXPECT_GT(steals, 0u);
  for (unsigned tid = 0; tid < kHandles; ++tid) {
    EXPECT_GT(pops[tid], 0u) << "handle " << tid << " never popped";
  }
}

}  // namespace
}  // namespace smq
