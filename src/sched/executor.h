// Parallel priority-task executor — the Galois-substitute runtime.
//
// Runs a fixed pool of threads against one scheduler instance through its
// per-thread handles (scheduler_traits.h): each worker acquires
// `sched.handle(tid)` once, so the thread's scheduler state (local queue,
// RNG, stickiness slots, buffers) is resolved a single time per run
// instead of on every push/pop. Each thread then
// loops: pop work, run the user functor (which may push follow-up tasks),
// repeat. Termination uses a global pending-task counter that counts
// every pushed-but-unretired task exactly. The per-task updates go to a
// thread-local PendingReserve, not to the shared atomic: a push spends one
// unit of the reserve, a retire returns one to it, and the reserve trades
// with the global counter only in fixed chunks. A thread may only exit
// when its pop failed *after flushing its buffers through the handle and
// returning its whole reserve*, and the counter reads zero. This is exact
// for the monotone workloads in the paper (tasks only create tasks while
// being executed).
//
// One worker loop serves both execution styles, templated on kBatched:
//  * per-task (batch_size == 1): the classic pop/run/retire loop; the
//    push-buffer machinery compiles away entirely.
//  * batched (batch_size > 1): pops up to batch_size tasks with one
//    handle call, buffers pushes thread-locally and publishes them with
//    one handle call + one reserve update per flush. This amortizes the
//    dispatch boundary (e.g. AnyScheduler's virtual HandleView) the same
//    way the paper's Optimization 1 amortizes queue locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/spinlock.h"
#include "support/timer.h"

namespace smq {

/// Knobs of run_parallel that are independent of the scheduler.
struct ExecutorOptions {
  /// Tasks popped per handle call and buffered per push flush.
  /// 1 selects the classic per-task loop.
  std::size_t batch_size = 1;
};

/// One worker's private share of the global pending-task counter.
///
/// Termination needs an exact count of unretired tasks, but one shared
/// atomic updated on every push and every retire puts all workers on one
/// cache line twice per task. Instead each worker draws units from the
/// global counter kChunk at a time into its reserve: a push spends one
/// unit (before the task becomes visible), a retire returns one (after
/// the task's children were counted). The shared counter is touched only
/// by those draws, by returning the reserve down to kChunk once it
/// exceeds kCap, and by release_all() before an idle thread reads it.
///
/// Invariant: global == sum of all reserves + pushed-but-unretired tasks.
/// Reserves never go negative, so once every reader returns its own
/// reserve before its read, a global reading of 0 still means drained.
/// A unit is returned only after (in happens-before, hence in the
/// counter's modification order) it was drawn and every task it counted
/// was retired, so the counter's modification order alone still rules
/// out a phantom zero, exactly as with per-task updates.
class PendingReserve {
 public:
  static constexpr std::int64_t kChunk = 64;
  static constexpr std::int64_t kCap = 2 * kChunk;

  explicit PendingReserve(std::atomic<std::int64_t>& global) noexcept
      : global_(global) {}

  PendingReserve(const PendingReserve&) = delete;
  PendingReserve& operator=(const PendingReserve&) = delete;

  /// Count `n` tasks about to be pushed; call before they are visible.
  void spend(std::int64_t n) {
    if (held_ < n) {
      const std::int64_t draw = (n - held_ + kChunk - 1) / kChunk * kChunk;
      global_.fetch_add(draw, std::memory_order_relaxed);
      held_ += draw;
    }
    held_ -= n;
  }

  /// Retire `n` executed tasks; call after their children were counted.
  void retire(std::int64_t n) {
    held_ += n;
    if (held_ > kCap) give_back(held_ - kChunk);
  }

  /// Return the whole reserve: before reading the global counter, or
  /// when this worker may stop running tasks for a while (parking).
  void release_all() {
    if (held_ != 0) give_back(held_);
  }

  std::int64_t held() const noexcept { return held_; }

 private:
  // acq_rel as the per-task retire was: the release hands the retired
  // tasks' effects to whichever thread reads zero with an acquire load.
  void give_back(std::int64_t n) {
    global_.fetch_sub(n, std::memory_order_acq_rel);
    held_ -= n;
  }

  std::atomic<std::int64_t>& global_;
  std::int64_t held_ = 0;
};

/// Per-thread view given to the task functor; the only way user code
/// interacts with the scheduler during a run. Pushes go straight through
/// the thread's handle, each counted from the thread's PendingReserve.
template <SchedulerHandle H>
class WorkContext {
 public:
  WorkContext(H& handle, PendingReserve& reserve, ThreadStats& stats) noexcept
      : handle_(handle), reserve_(reserve), stats_(stats) {}

  void push(Task t) {
    reserve_.spend(1);
    handle_.push(t);
    ++stats_.pushes;
  }

  /// Nothing buffered; exists so the worker loop's termination protocol
  /// is identical for both context flavours.
  void flush() noexcept {}

  /// Mark the task being executed as wasted (stale) work.
  void mark_wasted() noexcept { ++stats_.wasted; }

  unsigned thread_id() const noexcept { return handle_.thread_id(); }

 private:
  H& handle_;
  PendingReserve& reserve_;
  ThreadStats& stats_;
};

/// Batched counterpart of WorkContext: pushes accumulate in a per-thread
/// buffer and reach the scheduler via one handle push_batch, counted by
/// one reserve spend per flush. Safe for termination because the tasks
/// are counted *before* they become visible, and the executed tasks that
/// created them are not retired until after flush() (see worker_loop).
template <SchedulerHandle H>
class BatchWorkContext {
 public:
  BatchWorkContext(H& handle, PendingReserve& reserve, ThreadStats& stats,
                   std::vector<Task>& buffer, std::size_t capacity) noexcept
      : handle_(handle),
        reserve_(reserve),
        stats_(stats),
        buffer_(buffer),
        capacity_(capacity == 0 ? 1 : capacity) {
    buffer_.clear();
    buffer_.reserve(capacity_);
  }

  void push(Task t) {
    buffer_.push_back(t);
    ++stats_.pushes;
    if (buffer_.size() >= capacity_) flush();
  }

  /// Publish every buffered task. Count first, then tasks: a task must
  /// never be poppable before it is counted, or another thread could read
  /// pending == 0 with work still in flight.
  void flush() {
    if (buffer_.empty()) return;
    reserve_.spend(static_cast<std::int64_t>(buffer_.size()));
    handle_.push_batch(std::span<const Task>(buffer_));
    buffer_.clear();
  }

  void mark_wasted() noexcept { ++stats_.wasted; }

  unsigned thread_id() const noexcept { return handle_.thread_id(); }

 private:
  H& handle_;
  PendingReserve& reserve_;
  ThreadStats& stats_;
  std::vector<Task>& buffer_;
  std::size_t capacity_;
};

/// Per-thread scratch of the batched loop (pop batch + push buffer),
/// cache-padded as an array slot so neighbouring threads' buffer headers
/// never false-share. Shared with the service worker loop
/// (service/scheduler_service.h), which runs the same protocol on a
/// persistent pool.
struct WorkerBuffers {
  std::vector<Task> pop;   // tasks taken from the scheduler this round
  std::vector<Task> push;  // children awaiting the next flush
};

namespace detail {

/// The worker loop, shared by both execution styles. kBatched only
/// changes how work enters and leaves the thread (handle batch ops +
/// push buffering vs. direct calls); the termination protocol is written
/// once:
///
/// Children first, then retire the executed work. The executed tasks'
/// units cover their still-buffered children, so the count cannot dip to
/// zero while work sits in this thread's buffer. Pushes and retires move
/// units within this thread's PendingReserve; the global counter sees
/// only chunked draws and returns (PendingReserve states the invariant).
/// On an empty pop, everything this thread still buffers (context push
/// buffer, scheduler-internal insert buffers) must be published through
/// the handle, and then the whole reserve returned, before the counter
/// read is allowed to conclude the system has drained.
template <bool kBatched, SchedulerHandle H, typename Fn>
void worker_loop(H& handle, std::atomic<std::int64_t>& pending,
                 ThreadStats& stats, Fn& fn, std::size_t batch_size,
                 WorkerBuffers* bufs) {
  using Ctx =
      std::conditional_t<kBatched, BatchWorkContext<H>, WorkContext<H>>;
  PendingReserve reserve(pending);
  Ctx ctx = [&] {
    if constexpr (kBatched) {
      bufs->pop.reserve(batch_size);
      return Ctx(handle, reserve, stats, bufs->push, batch_size);
    } else {
      (void)bufs;
      (void)batch_size;
      return Ctx(handle, reserve, stats);
    }
  }();
  Backoff backoff;
  while (true) {
    std::size_t taken = 0;
    if constexpr (kBatched) {
      bufs->pop.clear();
      taken = handle.try_pop_batch(bufs->pop, batch_size);
      if (taken > 0) {
        backoff.reset();
        stats.pops += taken;
        for (std::size_t i = 0; i < bufs->pop.size(); ++i) fn(bufs->pop[i], ctx);
      }
    } else {
      if (std::optional<Task> task = handle.try_pop()) {
        taken = 1;
        backoff.reset();
        ++stats.pops;
        fn(*task, ctx);
      }
    }
    if (taken > 0) {
      ctx.flush();  // children visible before their parents retire
      reserve.retire(static_cast<std::int64_t>(taken));
      continue;
    }
    ++stats.empty_pops;
    // Nothing popped: publish our buffered children and the scheduler's
    // buffered inserts, and hand back our reserve, before trusting the
    // counter.
    ctx.flush();
    handle.flush();
    reserve.release_all();
    if (pending.load(std::memory_order_acquire) == 0) return;
    backoff.pause();
    // Oversubscribed pools (threads > cores) must hand the core to
    // whoever holds the tasks instead of burning the timeslice.
    std::this_thread::yield();
  }
}

}  // namespace detail

/// Seeds `initial` tasks round-robin through per-thread handles, then
/// runs `fn(task, ctx)` on `num_threads` threads until the task graph
/// drains.
template <PriorityScheduler S, typename Fn>
RunResult run_parallel(S& sched, std::span<const Task> initial, Fn fn,
                       unsigned num_threads, const ExecutorOptions& opts = {}) {
  StatsRegistry stats(num_threads);
  std::atomic<std::int64_t> pending{0};
  const std::size_t batch_size = opts.batch_size == 0 ? 1 : opts.batch_size;

  // Seed from "thread 0"'s perspective; one handle acquisition per tid
  // covers the whole seeding pass (for AnyScheduler this is also one
  // erased-handle allocation per tid instead of one virtual per push).
  {
    // smq-lint: no-pad seeding runs on this one thread only; workers
    // construct their own handles on their own stacks below
    std::vector<typename S::Handle> handles;
    handles.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      handles.push_back(sched.handle(tid));
    }
    pending.store(static_cast<std::int64_t>(initial.size()),
                  std::memory_order_relaxed);
    for (std::size_t i = 0; i < initial.size(); ++i) {
      const unsigned tid = static_cast<unsigned>(i % num_threads);
      handles[tid].push(initial[i]);
      ++stats.of(tid).pushes;
    }
    for (auto& handle : handles) handle.flush();
  }

  std::vector<Padded<WorkerBuffers>> buffers(
      batch_size > 1 ? num_threads : 0);
  auto work = [&](unsigned tid) {
    auto handle = sched.handle(tid);
    if (batch_size > 1) {
      detail::worker_loop<true>(handle, pending, stats.of(tid), fn, batch_size,
                                &buffers[tid].value);
    } else {
      detail::worker_loop<false>(handle, pending, stats.of(tid), fn, batch_size,
                                 nullptr);
    }
  };

  Timer timer;
  if (num_threads == 1) {
    work(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      pool.emplace_back([&work, tid] { work(tid); });
    }
  }  // jthreads join here

  RunResult result;
  result.seconds = timer.seconds();
  // Scheduler-private counters (steal and NUMA-remote tallies) merge
  // into the per-thread slots only now, after the workers have joined.
  for (unsigned tid = 0; tid < num_threads; ++tid) {
    sched.handle(tid).collect_stats(stats.of(tid));
  }
  result.stats = stats.total();
  return result;
}

}  // namespace smq
