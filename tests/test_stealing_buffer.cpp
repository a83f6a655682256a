// Tests for the seqlock stealing buffer (paper Listing 4 metadata word).
#include "core/stealing_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sched/task.h"

namespace smq {
namespace {

std::vector<Task> tasks_upto(std::size_t n) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) tasks.push_back(Task{i, i * 10});
  return tasks;
}

TEST(StealingBuffer, StartsStolen) {
  StealingBuffer buf(4);
  EXPECT_TRUE(buf.is_stolen());
  EXPECT_EQ(buf.top_priority(), Task::kInfinity);
  std::vector<Task> out;
  EXPECT_EQ(buf.try_claim(out), 0u);
}

TEST(StealingBuffer, PublishThenClaim) {
  StealingBuffer buf(4);
  const auto tasks = tasks_upto(4);
  buf.publish(tasks.data(), tasks.size());
  EXPECT_FALSE(buf.is_stolen());
  EXPECT_EQ(buf.top_priority(), 0u);

  std::vector<Task> out;
  EXPECT_EQ(buf.try_claim(out), 4u);
  EXPECT_TRUE(buf.is_stolen());
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].priority, i);
    EXPECT_EQ(out[i].payload, i * 10);
  }
}

TEST(StealingBuffer, SecondClaimFails) {
  StealingBuffer buf(4);
  const auto tasks = tasks_upto(2);
  buf.publish(tasks.data(), tasks.size());
  std::vector<Task> out1, out2;
  EXPECT_EQ(buf.try_claim(out1), 2u);
  EXPECT_EQ(buf.try_claim(out2), 0u);
  EXPECT_TRUE(out2.empty());
}

TEST(StealingBuffer, EpochAdvancesPerPublish) {
  StealingBuffer buf(2);
  const auto tasks = tasks_upto(2);
  const std::uint64_t e0 = buf.epoch();
  buf.publish(tasks.data(), 2);
  EXPECT_EQ(buf.epoch(), e0 + 1);
  std::vector<Task> out;
  buf.try_claim(out);
  buf.publish(tasks.data(), 1);
  EXPECT_EQ(buf.epoch(), e0 + 2);
}

TEST(StealingBuffer, EmptyPublishClaimable) {
  StealingBuffer buf(4);
  buf.publish(nullptr, 0);
  EXPECT_FALSE(buf.is_stolen());
  EXPECT_EQ(buf.top_priority(), Task::kInfinity);  // empty batch
  std::vector<Task> out;
  EXPECT_EQ(buf.try_claim(out), 0u);  // claims 0 tasks...
  EXPECT_TRUE(buf.is_stolen());       // ...but flips the flag
}

TEST(StealingBuffer, ClaimAppendsToOut) {
  StealingBuffer buf(2);
  const auto tasks = tasks_upto(2);
  buf.publish(tasks.data(), 2);
  std::vector<Task> out{Task{99, 99}};
  EXPECT_EQ(buf.try_claim(out), 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].priority, 99u);
  EXPECT_EQ(out[1].priority, 0u);
}

// Concurrency: exactly one of N claimers wins each published batch, and
// every published task is claimed exactly once overall.
TEST(StealingBuffer, ExactlyOneClaimerWins) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  StealingBuffer buf(3);
  std::atomic<int> winners{0};
  std::atomic<std::uint64_t> claimed_sum{0};
  std::atomic<int> round_done{0};

  std::uint64_t expected_sum = 0;

  std::vector<std::jthread> threads;
  std::atomic<std::uint64_t> round_epoch{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (true) {
        const std::uint64_t e = round_epoch.load(std::memory_order_acquire);
        if (e == ~0ull) return;
        if (e == last_seen) {
          std::this_thread::yield();  // 4 claimers + main on few cores
          continue;
        }
        last_seen = e;
        std::vector<Task> out;
        if (buf.try_claim(out) > 0) {
          winners.fetch_add(1);
          std::uint64_t sum = 0;
          for (const Task& task : out) sum += task.priority;
          claimed_sum.fetch_add(sum);
        }
        round_done.fetch_add(1);
      }
    });
  }
  for (int round = 1; round <= kRounds; ++round) {
    const std::uint64_t base = static_cast<std::uint64_t>(round) * 100;
    Task batch[3] = {Task{base, 0}, Task{base + 1, 0}, Task{base + 2, 0}};
    expected_sum += 3 * base + 3;
    buf.publish(batch, 3);
    round_done.store(0);
    round_epoch.store(static_cast<std::uint64_t>(round),
                      std::memory_order_release);
    while (round_done.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(buf.is_stolen()) << "someone must have claimed";
  }
  round_epoch.store(~0ull);
  threads.clear();

  EXPECT_EQ(winners.load(), kRounds);
  EXPECT_EQ(claimed_sum.load(), expected_sum);
}

}  // namespace
}  // namespace smq
