// Tests for the parallel executor: termination detection, stats, and the
// scheduler concept plumbing.
#include "sched/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/sequential_scheduler.h"

namespace smq {
namespace {

static_assert(PriorityScheduler<SequentialScheduler>);
static_assert(PriorityScheduler<ClassicMultiQueue>);
static_assert(PriorityScheduler<OptimizedMultiQueue>);
static_assert(PriorityScheduler<StealingMultiQueue<>>);

TEST(Executor, RunsAllSeedTasksOnce) {
  SequentialScheduler sched;
  std::vector<Task> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(Task{i, i});
  std::atomic<std::uint64_t> executed{0};
  const RunResult run = run_parallel(
      sched, seeds, [&](Task, auto&) { executed.fetch_add(1); }, 1);
  EXPECT_EQ(executed.load(), 100u);
  EXPECT_EQ(run.stats.pops, 100u);
  EXPECT_EQ(run.stats.pushes, 100u);  // the seeds
}

TEST(Executor, CascadingTasksAllExecute) {
  // Each task with priority p < depth spawns two children; total task
  // count is 2^(depth+1) - 1.
  constexpr std::uint64_t kDepth = 10;
  StealingMultiQueue<> sched(4, {.p_steal = 0.5});
  const Task seed{0, 0};
  std::atomic<std::uint64_t> executed{0};
  const RunResult run = run_parallel(
      sched, std::span<const Task>(&seed, 1),
      [&](Task t, auto& ctx) {
        executed.fetch_add(1);
        if (t.priority < kDepth) {
          ctx.push(Task{t.priority + 1, 2 * t.payload + 1});
          ctx.push(Task{t.priority + 1, 2 * t.payload + 2});
        }
      },
      4);
  EXPECT_EQ(executed.load(), (1u << (kDepth + 1)) - 1);
  EXPECT_EQ(run.stats.pops, executed.load());
}

TEST(Executor, FlushableSchedulerTerminates) {
  // With insert batching, tasks may sit in local buffers; termination
  // must flush them instead of hanging.
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 64;  // large: guaranteed partially-filled buffers
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.delete_batch = 4;
  OptimizedMultiQueue sched(2, cfg);
  std::vector<Task> seeds{Task{0, 0}};
  std::atomic<std::uint64_t> executed{0};
  run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        executed.fetch_add(1);
        if (t.priority < 6) {
          for (int i = 0; i < 3; ++i) {
            ctx.push(Task{t.priority + 1, t.payload * 3 + i});
          }
        }
      },
      2);
  // 1 + 3 + 9 + ... + 3^6 tasks.
  std::uint64_t expected = 0, power = 1;
  for (int level = 0; level <= 6; ++level, power *= 3) expected += power;
  EXPECT_EQ(executed.load(), expected);
}

TEST(Executor, WastedWorkCounted) {
  SequentialScheduler sched;
  std::vector<Task> seeds{Task{1, 1}, Task{2, 2}, Task{3, 3}};
  const RunResult run = run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        if (t.priority > 1) ctx.mark_wasted();
      },
      1);
  EXPECT_EQ(run.stats.wasted, 2u);
  EXPECT_EQ(run.work_increase(1), 3.0);
}

TEST(Executor, EmptySeedsReturnImmediately) {
  StealingMultiQueue<> sched(2);
  const RunResult run = run_parallel(
      sched, std::span<const Task>{}, [](Task, auto&) { FAIL(); }, 2);
  EXPECT_EQ(run.stats.pops, 0u);
}

TEST(Executor, ManyThreadsManySeeds) {
  constexpr unsigned kThreads = 8;
  StealingMultiQueue<> sched(kThreads, {.p_steal = 0.25});
  std::vector<Task> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) seeds.push_back(Task{i, i});
  std::atomic<std::uint64_t> sum{0};
  run_parallel(
      sched, seeds, [&](Task t, auto&) { sum.fetch_add(t.payload); },
      kThreads);
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(Executor, SingleThreadStatsExact) {
  SequentialScheduler sched;
  std::vector<Task> seeds{Task{5, 5}};
  const RunResult run = run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        if (t.priority > 0) ctx.push(Task{t.priority - 1, 0});
      },
      1);
  EXPECT_EQ(run.stats.pops, 6u);    // 5,4,3,2,1,0
  EXPECT_EQ(run.stats.pushes, 6u);  // seed + 5 children
  EXPECT_GE(run.seconds, 0.0);
}

// ---- pending-count reserves ------------------------------------------------

TEST(PendingReserve, GlobalCountIsReservesPlusLiveTasks) {
  // A long chain driven from one thread: the producer executes each link
  // and pushes the next one plus two leaves; the retirer only executes
  // leaves, so its reserve grows until the cap sends the excess back.
  std::atomic<std::int64_t> global{1};  // the seed link
  PendingReserve producer(global);
  PendingReserve retirer(global);
  std::int64_t live = 1;
  std::int64_t retirer_peak = 0;
  std::int64_t retirer_returns = 0;
  for (int link = 0; link < 5000; ++link) {
    producer.spend(3);
    live += 3;
    producer.retire(1);
    live -= 1;
    const std::int64_t before = retirer.held();
    retirer.retire(2);
    live -= 2;
    if (retirer.held() < before) ++retirer_returns;
    retirer_peak = std::max(retirer_peak, retirer.held());
    ASSERT_EQ(global.load(std::memory_order_relaxed),
              producer.held() + retirer.held() + live);
    ASSERT_GE(producer.held(), 0);
  }
  EXPECT_LE(retirer_peak, PendingReserve::kCap);
  EXPECT_GT(retirer_returns, 0);
  // The last link retires; every reserve handed back reads as drained.
  producer.retire(1);
  live -= 1;
  EXPECT_EQ(live, 0);
  EXPECT_GT(global.load(std::memory_order_relaxed), 0);
  producer.release_all();
  EXPECT_GT(global.load(std::memory_order_relaxed), 0) << "retirer still holds";
  retirer.release_all();
  EXPECT_EQ(global.load(std::memory_order_relaxed), 0);
}

TEST(PendingReserve, SpendDrawsWholeChunks) {
  std::atomic<std::int64_t> global{0};
  PendingReserve r(global);
  r.spend(1);
  EXPECT_EQ(global.load(std::memory_order_relaxed), PendingReserve::kChunk);
  EXPECT_EQ(r.held(), PendingReserve::kChunk - 1);
  r.spend(3 * PendingReserve::kChunk);  // a flush wider than one chunk
  EXPECT_EQ(global.load(std::memory_order_relaxed), 4 * PendingReserve::kChunk);
  EXPECT_EQ(r.held(), PendingReserve::kChunk - 1);
  r.retire(3 * PendingReserve::kChunk + 1);
  EXPECT_EQ(r.held(), PendingReserve::kChunk);  // cap exceeded: back to a chunk
  EXPECT_EQ(global.load(std::memory_order_relaxed), PendingReserve::kChunk);
  r.release_all();
  EXPECT_EQ(global.load(std::memory_order_relaxed), 0);
}

/// Two-thread scheduler with fixed roles: thread 0 pops only chain links,
/// thread 1 only leaves. Thread 1 then never pushes, and retires every
/// leaf, which drives its pending reserve through the cap path.
class RoleSplitScheduler {
 public:
  static constexpr std::uint64_t kLeafBit = std::uint64_t{1} << 63;

  explicit RoleSplitScheduler(unsigned /*num_threads*/) {}
  unsigned num_threads() const noexcept { return 2; }

  class Handle {
   public:
    Handle(RoleSplitScheduler& s, unsigned tid) noexcept : s_(&s), tid_(tid) {}
    void push(Task t) {
      std::lock_guard<std::mutex> lk(s_->mutex_);
      ((t.payload & kLeafBit) != 0 ? s_->leaves_ : s_->links_).push_back(t);
    }
    void push_batch(std::span<const Task> tasks) {
      for (const Task& t : tasks) push(t);
    }
    std::optional<Task> try_pop() {
      std::lock_guard<std::mutex> lk(s_->mutex_);
      std::deque<Task>& mine = tid_ == 0 ? s_->links_ : s_->leaves_;
      if (mine.empty()) return std::nullopt;
      const Task t = mine.front();
      mine.pop_front();
      return t;
    }
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }
    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    RoleSplitScheduler* s_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  std::mutex mutex_;
  std::deque<Task> links_;
  std::deque<Task> leaves_;
};
static_assert(PriorityScheduler<RoleSplitScheduler>);

TEST(ExecutorReserves, LongChainWithARetireOnlyThread) {
  // Link i (priority i) pushes link i + 1 and kLeaves leaves of priority
  // i + 1. Every task records its priority as its distance: one write
  // per task, each equal to the node's depth in the chain.
  constexpr std::uint64_t kLinks = 2000;
  constexpr std::uint64_t kLeaves = 3;
  const std::uint64_t total = kLinks + (kLinks - 1) * kLeaves;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    RoleSplitScheduler sched(2);
    std::vector<std::atomic<std::uint64_t>> link_dist(kLinks);
    std::vector<std::atomic<std::uint64_t>> leaf_dist(kLinks * kLeaves);
    for (auto& d : link_dist) d.store(0, std::memory_order_relaxed);
    for (auto& d : leaf_dist) d.store(0, std::memory_order_relaxed);
    const Task seed{0, 0};
    const RunResult run = run_parallel(
        sched, std::span<const Task>(&seed, 1),
        [&](Task t, auto& ctx) {
          if ((t.payload & RoleSplitScheduler::kLeafBit) != 0) {
            leaf_dist[t.payload & ~RoleSplitScheduler::kLeafBit].fetch_add(
                t.priority, std::memory_order_relaxed);
            return;
          }
          link_dist[t.payload].fetch_add(t.priority, std::memory_order_relaxed);
          if (t.payload + 1 == kLinks) return;
          ctx.push(Task{t.priority + 1, t.payload + 1});
          for (std::uint64_t j = 0; j < kLeaves; ++j) {
            ctx.push(Task{t.priority + 1,
                          RoleSplitScheduler::kLeafBit | (t.payload * kLeaves + j)});
          }
        },
        2, ExecutorOptions{.batch_size = batch});
    EXPECT_EQ(run.stats.pops, total) << "batch " << batch;
    EXPECT_EQ(run.stats.pushes, run.stats.pops) << "batch " << batch;
    for (std::uint64_t i = 0; i < kLinks; ++i) {
      ASSERT_EQ(link_dist[i].load(std::memory_order_relaxed), i) << "link " << i;
    }
    for (std::uint64_t i = 0; i + 1 < kLinks; ++i) {
      for (std::uint64_t j = 0; j < kLeaves; ++j) {
        ASSERT_EQ(leaf_dist[i * kLeaves + j].load(std::memory_order_relaxed), i + 1)
            << "leaf " << i << "." << j;
      }
    }
  }
}

TEST(ExecutorReserves, WideFanOutTerminatesExactlyAtBatchSizes) {
  // One seed fans out to more children than one reserve chunk per
  // thread, each child to two grandchildren. Every node records its
  // priority (its depth) once; pops and pushes match exactly.
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kWide = 4 * PendingReserve::kChunk * kThreads + 7;
  const std::uint64_t total = 1 + kWide + 2 * kWide;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    StealingMultiQueue<> sched(kThreads, {.seed = 5});
    std::vector<std::atomic<std::uint64_t>> dist(total);
    std::vector<std::atomic<int>> hits(total);
    for (std::uint64_t i = 0; i < total; ++i) {
      dist[i].store(0, std::memory_order_relaxed);
      hits[i].store(0, std::memory_order_relaxed);
    }
    const Task seed{0, 0};
    const RunResult run = run_parallel(
        sched, std::span<const Task>(&seed, 1),
        [&](Task t, auto& ctx) {
          hits[t.payload].fetch_add(1, std::memory_order_relaxed);
          dist[t.payload].store(t.priority, std::memory_order_relaxed);
          if (t.payload == 0) {
            for (std::uint64_t c = 1; c <= kWide; ++c) ctx.push(Task{1, c});
          } else if (t.payload <= kWide) {
            ctx.push(Task{2, kWide + 2 * t.payload - 1});
            ctx.push(Task{2, kWide + 2 * t.payload});
          }
        },
        kThreads, ExecutorOptions{.batch_size = batch});
    EXPECT_EQ(run.stats.pops, total) << "batch " << batch;
    EXPECT_EQ(run.stats.pushes, run.stats.pops) << "batch " << batch;
    for (std::uint64_t i = 0; i < total; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "node " << i;
      const std::uint64_t depth = i == 0 ? 0 : i <= kWide ? 1 : 2;
      ASSERT_EQ(dist[i].load(std::memory_order_relaxed), depth) << "node " << i;
    }
  }
}

}  // namespace
}  // namespace smq
