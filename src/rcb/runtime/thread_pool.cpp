#include "rcb/runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#if defined(__linux__)
#include <sched.h>
#endif

#include "rcb/common/contracts.hpp"

namespace rcb {
namespace {

constexpr std::size_t kExternalThread = std::numeric_limits<std::size_t>::max();

// Which worker of which pool the current thread is.  Lets submit() push to
// the local deque and try_acquire() start stealing at a stable offset.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_worker_index = kExternalThread;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_concurrency();
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_concurrency() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::push_task(Task task) {
  std::size_t target;
  if (t_pool == this && t_worker_index != kExternalThread) {
    target = t_worker_index;  // worker: keep fork/join work cache-warm
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    std::unique_lock qlock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  queued_.fetch_add(1, std::memory_order_release);
  // Lock before notify: a worker that observed queued_ == 0 may be between
  // its predicate check and its wait; the lock orders us after the check,
  // so the notify cannot be lost.
  {
    std::unique_lock lock(mutex_);
  }
  work_available_.notify_one();
}

void ThreadPool::submit(Task task) {
  RCB_REQUIRE(static_cast<bool>(task));
  {
    std::unique_lock lock(mutex_);
    RCB_REQUIRE(!shutting_down_);
  }
  push_task(std::move(task));
}

Task ThreadPool::try_acquire(std::size_t self) {
  const std::size_t n = queues_.size();
  // Own deque first, from the back (LIFO: most recently pushed, warmest).
  if (self != kExternalThread) {
    WorkerQueue& own = *queues_[self];
    std::unique_lock qlock(own.mutex);
    if (!own.tasks.empty()) {
      Task task = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return task;
    }
  }
  // Steal from victims, from the front (FIFO: oldest, least likely to be
  // touched by the owner soon).
  const std::size_t start = (self != kExternalThread) ? self : 0;
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t victim = (start + k) % n;
    WorkerQueue& q = *queues_[victim];
    std::unique_lock qlock(q.mutex);
    if (!q.tasks.empty()) {
      Task task = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return task;
    }
  }
  return Task{};
}

// noexcept: an escaping task exception terminates no matter which thread
// (worker or helping caller) ran the task — see the header contract.
void ThreadPool::execute(Task& task) noexcept {
  task();
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::unique_lock lock(mutex_);
    idle_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker_index = index;
  for (;;) {
    Task task = try_acquire(index);
    if (task) {
      execute(task);
      continue;
    }
    std::unique_lock lock(mutex_);
    work_available_.wait(lock, [this] {
      return shutting_down_ || queued_.load(std::memory_order_acquire) != 0;
    });
    if (shutting_down_ && queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::Latch::count_down() {
  // The decrement must happen inside the mutex: done() is polled lock-free,
  // and a waiter that sees zero synchronizes via sync() — which can only
  // succeed after this critical section (including the notify) has ended,
  // making destruction after sync() safe.
  std::unique_lock lock(mutex_);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void ThreadPool::Latch::wait_briefly() {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, std::chrono::microseconds(500),
               [this] { return done(); });
}

void ThreadPool::Latch::sync() { std::unique_lock lock(mutex_); }

void ThreadPool::help_until(Latch& latch) {
  const std::size_t self = (t_pool == this) ? t_worker_index : kExternalThread;
  while (!latch.done()) {
    Task task = try_acquire(self);
    if (task) {
      execute(task);
    } else {
      latch.wait_briefly();
    }
  }
  latch.sync();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t chunk_hint) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  std::size_t chunk_size = chunk_hint;
  if (chunk_size == 0) {
    const std::size_t chunks = std::min(total, pool.num_threads() * 4);
    chunk_size = (total + chunks - 1) / chunks;
  }
  const std::size_t num_chunks = (total + chunk_size - 1) / chunk_size;
  ThreadPool::Latch latch(num_chunks);
  for (std::size_t lo = begin; lo < end; lo += chunk_size) {
    const std::size_t hi = std::min(end, lo + chunk_size);
    // 4 pointers — fits Task's inline storage, so no allocation per chunk.
    pool.submit([lo, hi, &fn, &latch] {
      fn(lo, hi);
      latch.count_down();
    });
  }
  pool.help_until(latch);
}

}  // namespace rcb
