// A scheduler wrapper that times the scheduler-handle boundary from
// outside the program.
//
// TracedScheduler owns the AnyScheduler the registry built and forwards
// every handle call to it. Around each call it reads the clock twice and
// books, per thread:
//  * the time inside the call, by call kind and outcome (push, successful
//    pop, empty pop; a flush made while idle counts as idle time);
//  * the time between calls, by the outcome of the previous call:
//      relax  after a successful pop, until the next non-push call
//             (the relax functor plus executor bookkeeping; the pushes
//             it makes are booked as push time, not relax time);
//      idle   after an empty pop (flush, termination check, backoff,
//             yield, and in the service parking and admission);
//      other  after handle acquisition (seeding, thread start) or a
//             flush outside an idle spell; part of wall time only.
// Because it models HandleScheduler it can be erased again with
// AnyScheduler::make<TracedScheduler> (the registry's algorithm entries
// run it unchanged) or hosted as SchedulerService<TracedScheduler>.
//
// Each tid's slot is written only by the thread using that tid's handle;
// seeding (before the workers start) and stat collection (after they
// join) run on the driving thread, ordered by thread start and join.
#pragma once

#include <chrono>
#include <cstdint>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "registry/any_scheduler.h"
#include "sched/scheduler_traits.h"
#include "support/padding.h"

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The wrapper's clock: the time-stamp counter where there is one (about
/// half the cost of a steady_clock read), steady_clock nanoseconds
/// elsewhere. TraceLog converts ticks to nanoseconds.
inline std::int64_t now_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

/// One thread's totals. Times are now_ticks() ticks.
struct ThreadTrace {
  enum class Phase : std::uint8_t { kOther, kRelax, kIdle };

  std::uint64_t calls = 0;  // forwarded handle calls (= AnyScheduler calls)
  std::uint64_t pushed = 0;  // tasks
  std::uint64_t popped = 0;  // tasks
  std::uint64_t empty_pops = 0;
  std::uint64_t steals = 0;  // folded in from collect_stats
  std::uint64_t steal_fails = 0;

  std::int64_t push_ticks = 0;
  std::int64_t pop_ticks = 0;  // successful pops only
  std::int64_t empty_pop_ticks = 0;
  std::int64_t relax_ticks = 0;
  std::int64_t idle_ticks = 0;  // includes flushes made while idle
  std::int64_t wall_ticks = 0;  // closed leases (acquisition to last call)

  std::int64_t lease_start = 0;
  std::int64_t last_exit = 0;
  bool in_lease = false;
  Phase phase = Phase::kOther;

  /// A handle's lease runs from its acquisition to its last call; wall
  /// time sums the closed leases.
  void open_lease(std::int64_t t) noexcept {
    close_lease();
    lease_start = last_exit = t;
    in_lease = true;
    phase = Phase::kOther;
  }

  void close_lease() noexcept {
    if (in_lease) wall_ticks += last_exit - lease_start;
    in_lease = false;
  }

  /// Book the gap since the previous call; returns the entry time.
  std::int64_t enter() noexcept {
    const std::int64_t t = now_ticks();
    const std::int64_t gap = t - last_exit;
    if (phase == Phase::kRelax) relax_ticks += gap;
    if (phase == Phase::kIdle) idle_ticks += gap;
    ++calls;
    return t;
  }

  void leave_push(std::int64_t t0, std::size_t n) noexcept {
    last_exit = now_ticks();
    pushed += n;
    push_ticks += last_exit - t0;
  }

  void leave_pop(std::int64_t t0, std::size_t n) noexcept {
    last_exit = now_ticks();
    if (n > 0) {
      popped += n;
      pop_ticks += last_exit - t0;
      phase = Phase::kRelax;
    } else {
      ++empty_pops;
      empty_pop_ticks += last_exit - t0;
      phase = Phase::kIdle;
    }
  }

  void leave_flush(std::int64_t t0) noexcept {
    last_exit = now_ticks();
    if (phase == Phase::kIdle) {
      idle_ticks += last_exit - t0;
    } else {
      phase = Phase::kOther;
    }
  }
};

/// The per-thread slots one traced scheduler writes into. Outlives the
/// scheduler so totals survive it.
class TraceLog {
 public:
  explicit TraceLog(unsigned threads)
      : slots_(threads), start_ticks_(now_ticks()), start_ns_(now_ns()) {}

  /// Nanoseconds per tick, calibrated over the log's lifetime so far.
  double ns_per_tick() const noexcept {
    const std::int64_t ticks = now_ticks() - start_ticks_;
    return ticks > 0 ? static_cast<double>(now_ns() - start_ns_) /
                           static_cast<double>(ticks)
                     : 1.0;
  }

  ThreadTrace& of(unsigned tid) noexcept { return slots_[tid].value; }
  const ThreadTrace& of(unsigned tid) const noexcept { return slots_[tid].value; }
  std::vector<ThreadTrace> snapshot() const {
    std::vector<ThreadTrace> out;
    for (const auto& slot : slots_) out.push_back(slot.value);
    return out;
  }
  unsigned size() const noexcept { return static_cast<unsigned>(slots_.size()); }

  /// Close every open lease; call only while no worker runs.
  void close_leases() noexcept {
    for (auto& slot : slots_) slot.value.close_lease();
  }

 private:
  std::vector<smq::Padded<ThreadTrace>> slots_;
  std::int64_t start_ticks_;
  std::int64_t start_ns_;
};

class TracedScheduler {
 public:
  class Handle {
   public:
    Handle(smq::AnyScheduler::Handle inner, ThreadTrace& trace) noexcept
        : inner_(std::move(inner)), trace_(&trace) {
      trace_->open_lease(now_ticks());
    }

    void push(smq::Task t) {
      const std::int64_t t0 = trace_->enter();
      inner_.push(t);
      trace_->leave_push(t0, 1);
    }

    std::optional<smq::Task> try_pop() {
      const std::int64_t t0 = trace_->enter();
      std::optional<smq::Task> task = inner_.try_pop();
      trace_->leave_pop(t0, task ? 1 : 0);
      return task;
    }

    void push_batch(std::span<const smq::Task> tasks) {
      const std::int64_t t0 = trace_->enter();
      inner_.push_batch(tasks);
      trace_->leave_push(t0, tasks.size());
    }

    std::size_t try_pop_batch(std::vector<smq::Task>& out, std::size_t max) {
      const std::int64_t t0 = trace_->enter();
      const std::size_t n = inner_.try_pop_batch(out, max);
      trace_->leave_pop(t0, n);
      return n;
    }

    void flush() {
      const std::int64_t t0 = trace_->enter();
      inner_.flush();
      trace_->leave_flush(t0);
    }

    /// Runs after the workers joined; folds the scheduler-private steal
    /// counters into this thread's slot as well as into `st`.
    void collect_stats(smq::ThreadStats& st) const {
      const smq::ThreadStats before = st;
      inner_.collect_stats(st);
      trace_->steals += st.steals - before.steals;
      trace_->steal_fails += st.steal_fails - before.steal_fails;
    }

    unsigned thread_id() const { return inner_.thread_id(); }

   private:
    smq::AnyScheduler::Handle inner_;
    ThreadTrace* trace_;
  };

  TracedScheduler(smq::AnyScheduler inner, TraceLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  Handle handle(unsigned tid) { return Handle(inner_.handle(tid), log_->of(tid)); }

  // The tid-indexed surface the concepts require; the executor and the
  // service only use handles.
  void push(unsigned tid, smq::Task t) { handle(tid).push(t); }
  std::optional<smq::Task> try_pop(unsigned tid) { return handle(tid).try_pop(); }
  void flush(unsigned tid) { handle(tid).flush(); }
  void collect_stats(unsigned tid, smq::ThreadStats& st) const {
    inner_.collect_stats(tid, st);
  }
  unsigned num_threads() const { return inner_.num_threads(); }
  void quiesce(unsigned tid) { inner_.quiesce(tid); }
  std::size_t memory_footprint() const { return inner_.memory_footprint(); }

 private:
  smq::AnyScheduler inner_;
  TraceLog* log_;
};

static_assert(smq::HandleScheduler<TracedScheduler>);
static_assert(smq::FlushableScheduler<TracedScheduler> &&
              smq::StatReportingScheduler<TracedScheduler> &&
              smq::ReclaimingScheduler<TracedScheduler> &&
              smq::MemoryReportingScheduler<TracedScheduler>,
              "the wrapper must expose every hook AnyScheduler forwards");

}  // namespace perfbench
