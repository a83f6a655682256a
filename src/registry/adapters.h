// Scheduler adapters for substrates that are not schedulers by
// themselves. These give the registry its exact and priority-oblivious
// anchor points:
//
//  * GlobalHeapScheduler — one spinlock-protected d-ary heap shared by
//    all threads: the strict (non-relaxed) concurrent PQ whose
//    delete-min bottleneck motivates the whole relaxed-scheduler line of
//    work (paper Section 1).
//  * GlobalSkipListScheduler — exact delete-min over the lock-free skip
//    list, i.e. SprayList with the spray removed (Figure 1's "try to
//    remove the minimum" baseline).
//  * ChunkBagScheduler — a single unordered chunk bag: maximal
//    throughput, zero rank quality, the far anchor for the wasted-work
//    metric.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "queues/chunk_bag.h"
#include "queues/d_ary_heap.h"
#include "queues/lockfree_skiplist.h"
#include "sched/epoch.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

/// One global lock around one sequential d-ary heap. It keeps no
/// per-thread state; its Handle just caches the lock/heap pair.
class GlobalHeapScheduler {
 public:
  explicit GlobalHeapScheduler(unsigned num_threads)
      : num_threads_(num_threads == 0 ? 1 : num_threads) {}

  unsigned num_threads() const noexcept { return num_threads_; }

  class Handle {
   public:
    Handle(GlobalHeapScheduler& sched, unsigned tid) noexcept
        : sched_(&sched), tid_(tid) {}

    void push(Task task) {
      sched_->lock_.lock();
      sched_->heap_.push(task);
      sched_->lock_.unlock();
    }

    /// Bulk insert under one lock acquisition — for the global-lock
    /// anchor this is exactly the contention reduction batching buys.
    void push_batch(std::span<const Task> tasks) {
      sched_->lock_.lock();
      for (const Task& task : tasks) sched_->heap_.push(task);
      sched_->lock_.unlock();
    }

    std::optional<Task> try_pop() {
      sched_->lock_.lock();
      std::optional<Task> task = sched_->heap_.try_pop();
      sched_->lock_.unlock();
      return task;
    }

    /// Bulk extract under one lock acquisition.
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      sched_->lock_.lock();
      std::size_t taken = 0;
      while (taken < max) {
        std::optional<Task> task = sched_->heap_.try_pop();
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      sched_->lock_.unlock();
      return taken;
    }

    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    GlobalHeapScheduler* sched_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  unsigned num_threads_;
  Spinlock lock_;
  DAryHeap<Task, 4> heap_ SMQ_GUARDED_BY(lock_);
};

static_assert(PriorityScheduler<GlobalHeapScheduler>);

struct GlobalSkipListConfig {
  std::uint64_t seed = 1;
  bool reclaim = false;  // epoch-based node reclamation + reuse
};

/// Exact concurrent delete-min over the lock-free skip list. With
/// reclamation on, each handle operation pins the epoch for its
/// duration (a batch is a loop of pinned single operations).
class GlobalSkipListScheduler {
 public:
  using Config = GlobalSkipListConfig;

  explicit GlobalSkipListScheduler(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads == 0 ? 1 : num_threads),
        epochs_(cfg.reclaim ? std::make_unique<EpochManager>(num_threads_)
                            : nullptr),
        list_(num_threads_, epochs_.get()),
        rngs_(num_threads_) {
    for (unsigned tid = 0; tid < num_threads_; ++tid) {
      rngs_[tid].value = Xoshiro256(thread_seed(cfg.seed, tid));
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }

  class Handle {
   public:
    Handle(GlobalSkipListScheduler& sched, unsigned tid) noexcept
        : sched_(&sched), tid_(tid) {}

    void push(Task task) {
      EpochManager::Guard guard(sched_->epochs_.get(), tid_);
      sched_->list_.insert(tid_, task, sched_->rngs_[tid_].value);
    }

    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      EpochManager::Guard guard(sched_->epochs_.get(), tid_);
      return sched_->list_.pop_min(tid_);
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    GlobalSkipListScheduler* sched_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  void quiesce(unsigned tid) {
    if (epochs_ != nullptr) epochs_->quiesce(tid);
  }

  std::size_t memory_footprint() const noexcept {
    return list_.memory_footprint();
  }

  EpochManager* epochs() const noexcept { return epochs_.get(); }

 private:
  unsigned num_threads_;
  // Before the list: its destructor drains retirements into the list's
  // free lists, which must still exist.
  std::unique_ptr<EpochManager> epochs_;
  LockFreeSkipList list_;
  std::vector<Padded<Xoshiro256>> rngs_;
};

static_assert(ReclaimingScheduler<GlobalSkipListScheduler>);
static_assert(MemoryReportingScheduler<GlobalSkipListScheduler>);

/// A single unordered ChunkBag shared by all threads (OBIM with exactly
/// one priority level). Buffers pushes into thread-local chunks, so it is
/// flushable; pops drain a thread-local chunk taken from the bag.
struct ChunkBagSchedulerConfig {
  std::size_t chunk_size = 64;
  bool reclaim = false;  // Treiber stacks + epoch-retired chunks
};

class ChunkBagScheduler {
 private:
  struct Local;

 public:
  using Config = ChunkBagSchedulerConfig;

  ChunkBagScheduler(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads == 0 ? 1 : num_threads),
        chunk_size_(cfg.chunk_size == 0
                        ? 1
                        : (cfg.chunk_size > Chunk::kCapacity ? Chunk::kCapacity
                                                             : cfg.chunk_size)),
        epochs_(cfg.reclaim ? std::make_unique<EpochManager>(num_threads_)
                            : nullptr),
        bag_(1, epochs_.get()),
        locals_(num_threads_) {}

  ~ChunkBagScheduler() {
    for (auto& local : locals_) {
      if (local.value.push_chunk != nullptr) alloc_.free(local.value.push_chunk);
      if (local.value.pop_chunk != nullptr) alloc_.free(local.value.pop_chunk);
    }
  }

  ChunkBagScheduler(const ChunkBagScheduler&) = delete;
  ChunkBagScheduler& operator=(const ChunkBagScheduler&) = delete;

  unsigned num_threads() const noexcept { return num_threads_; }

  class Handle {
   public:
    Handle(ChunkBagScheduler& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    void push(Task task) {
      Local& local = *me_;
      if (local.push_chunk == nullptr) local.push_chunk = sched_->alloc_.make();
      local.push_chunk->push(task);
      if (local.push_chunk->full(sched_->chunk_size_)) {
        sched_->bag_.push_chunk(0, local.push_chunk);
        local.push_chunk = nullptr;
      }
    }

    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      Local& local = *me_;
      if (local.pop_chunk != nullptr && !local.pop_chunk->empty()) {
        return local.pop_chunk->pop();
      }
      // One pin covers the Treiber pop and the retirement of the chunk
      // it replaces (no-op guard in locked mode).
      EpochManager::Guard guard(sched_->epochs_.get(), tid_);
      if (Chunk* chunk = sched_->bag_.pop_chunk(0)) {
        if (local.pop_chunk != nullptr) {
          sched_->bag_.retire_chunk(tid_, local.pop_chunk, sched_->alloc_);
        }
        local.pop_chunk = chunk;
        return local.pop_chunk->pop();
      }
      // Nothing published: fall back to our own unflushed chunk.
      if (local.push_chunk != nullptr && !local.push_chunk->empty()) {
        return local.push_chunk->pop();
      }
      return std::nullopt;
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    /// Publish the partially filled push chunk.
    void flush() {
      Local& local = *me_;
      if (local.push_chunk == nullptr || local.push_chunk->empty()) return;
      sched_->bag_.push_chunk(0, local.push_chunk);
      local.push_chunk = nullptr;
    }

    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    ChunkBagScheduler* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  void quiesce(unsigned tid) {
    if (epochs_ != nullptr) epochs_->quiesce(tid);
  }

  std::size_t memory_footprint() const noexcept { return alloc_.bytes(); }

  EpochManager* epochs() const noexcept { return epochs_.get(); }

 private:
  struct Local {
    Chunk* push_chunk = nullptr;
    Chunk* pop_chunk = nullptr;
  };

  unsigned num_threads_;
  std::size_t chunk_size_;
  // alloc_ before epochs_: limbo deleters reference alloc_.
  ChunkAlloc alloc_;
  std::unique_ptr<EpochManager> epochs_;
  ChunkBag bag_;
  std::vector<Padded<Local>> locals_;
};

static_assert(ReclaimingScheduler<ChunkBagScheduler>);
static_assert(MemoryReportingScheduler<ChunkBagScheduler>);

}  // namespace smq
