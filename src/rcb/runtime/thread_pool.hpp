// A work-stealing thread pool for Monte-Carlo workloads.
//
// Design notes (C++ Core Guidelines CP.*): tasks are type-erased
// move-only callables with small-buffer storage (no heap allocation for
// captures up to Task::kInlineSize bytes); the pool owns its threads
// (RAII — the destructor drains and joins); submission after shutdown is
// a precondition violation rather than a silent drop.
//
// Scheduling: every worker owns a deque.  Workers pop their own deque
// LIFO (cache-warm for nested fork/join) and steal FIFO from the others
// when it runs dry, so a long-tailed task on one worker never idles the
// rest of the pool while work remains anywhere.  External submissions are
// distributed round-robin across the deques.
//
// parallel_for / parallel_for_chunks block until their chunks finish, but
// the calling thread *helps*: it executes pool tasks while it waits.
// That makes nested parallelism safe — a chunk may itself call
// parallel_for on the same pool without deadlocking — and keeps the
// caller productive instead of parked.  (wait_idle() does not help; do
// not call it from inside a pool task.)
//
// Tasks must not throw: an exception escaping a task terminates the
// process, exactly as it would have escaping a worker thread.  Catch at
// the task boundary (as run_trials and the sweep supervisor do).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcb {

/// Move-only type-erased `void()` callable with inline storage.  Callables
/// up to kInlineSize bytes (and max_align_t alignment) live in the task
/// object itself; larger ones fall back to one heap allocation.  The
/// per-chunk closures of parallel_for_chunks and the per-point closures of
/// the sweep scheduler are all a few pointers wide, so the hot dispatch
/// path never allocates.
class Task {
 public:
  static constexpr std::size_t kInlineSize = 48;

  Task() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
      destroy_ = [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      };
      destroy_ = [](void* p) {
        delete *std::launder(reinterpret_cast<Fn**>(p));
      };
    }
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(storage_); }

 private:
  void move_from(Task& other) noexcept {
    if (other.invoke_ != nullptr) {
      other.relocate_(storage_, other.storage_);
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      destroy_ = other.destroy_;
      other.invoke_ = nullptr;
    }
  }
  void reset() noexcept {
    if (invoke_ != nullptr) {
      destroy_(storage_);
      invoke_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = default_concurrency()).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  /// Enqueues a task.  Worker threads push to their own deque; external
  /// threads distribute round-robin.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing.  Unlike
  /// parallel_for, the caller does not help; do not call from a pool task.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// Process-wide default pool, sized by default_concurrency().
  static ThreadPool& global();

  /// Usable hardware parallelism: the CPUs this process may actually run
  /// on (the sched_getaffinity mask on Linux — taskset/cgroup cpusets make
  /// this smaller than hardware_concurrency(), which counts the machine
  /// and would oversubscribe), falling back to hardware_concurrency().
  static std::size_t default_concurrency();

  /// Completion latch for a batch of tasks; used by parallel_for_chunks.
  class Latch {
   public:
    explicit Latch(std::size_t count) : remaining_(count) {}
    void count_down();
    bool done() const {
      return remaining_.load(std::memory_order_acquire) == 0;
    }
    /// Waits until done() or ~0.5ms, whichever first (helpers re-poll the
    /// queues between waits, so a missed task wakeup only costs one poll
    /// interval, never a hang).
    void wait_briefly();
    /// Called by the final waiter after done(): acquires and releases the
    /// internal mutex, so the last count_down's critical section
    /// (decrement + notify, both under the mutex) has fully completed and
    /// the latch may be destroyed.  Without this, a waiter that observed
    /// done() through the lock-free atomic could destroy the latch while
    /// the counting thread is still inside notify_all.
    void sync();

   private:
    std::atomic<std::size_t> remaining_;
    std::mutex mutex_;
    std::condition_variable cv_;
  };

  /// Runs pool tasks on the calling thread until `latch.done()`.  Safe
  /// from both worker threads (nested parallelism) and external threads.
  void help_until(Latch& latch);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);
  /// Pops from the calling worker's deque, else steals; `self` is the
  /// worker index or SIZE_MAX for external threads (steal only).
  Task try_acquire(std::size_t self);
  void execute(Task& task) noexcept;
  void push_task(Task task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<std::size_t> queued_{0};    ///< tasks sitting in deques
  std::atomic<std::size_t> pending_{0};   ///< queued + running
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin for externals
  std::mutex mutex_;                      ///< guards the two CVs below
  std::condition_variable work_available_;
  std::condition_variable idle_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [begin, end) across the pool, blocking until done.
/// Iterations are distributed in contiguous chunks.  `chunk_hint` overrides
/// the chunk size (0 = auto: ~4 chunks per worker); use it to trade
/// scheduling overhead against load balance for very cheap or very uneven
/// iterations.  The calling thread helps execute chunks, so nested calls
/// on the same pool are safe.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk_hint = 0);

/// Chunk-granular variant: runs fn(lo, hi) once per contiguous chunk of
/// [begin, end), blocking until done.  Lets callers keep per-chunk state
/// (local accumulators, scratch buffers) without per-iteration overhead.
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t chunk_hint = 0);

}  // namespace rcb
