// Tests for the thread pool and Monte-Carlo runner.
#include "rcb/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "rcb/runtime/montecarlo.hpp"

namespace rcb {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrains) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

/// Runs fn(i) for every i of [begin, end) through parallel_for_chunks.
void for_each_index(ThreadPool& pool, std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t chunk_hint = 0) {
  parallel_for_chunks(
      pool, begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      chunk_hint);
}

TEST(ParallelForTest, CoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for_each_index(pool, 0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for_chunks(pool, 5, 5, [](std::size_t, std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelForTest, SubRange) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for_each_index(pool, 10, 20,
                 [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(MonteCarloTest, ResultsInTrialOrder) {
  ThreadPool pool(4);
  auto results = run_trials<std::size_t>(
      64, 1, [](std::size_t t, Rng&) { return t * t; }, pool);
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t t = 0; t < 64; ++t) EXPECT_EQ(results[t], t * t);
}

TEST(MonteCarloTest, DeterministicAcrossPoolSizes) {
  auto draw = [](std::size_t, Rng& rng) { return rng.next_u64(); };
  ThreadPool pool1(1), pool8(8);
  const auto a = run_trials<std::uint64_t>(128, 7, draw, pool1);
  const auto b = run_trials<std::uint64_t>(128, 7, draw, pool8);
  EXPECT_EQ(a, b);
}

TEST(MonteCarloTest, DifferentSeedsDiffer) {
  auto draw = [](std::size_t, Rng& rng) { return rng.next_u64(); };
  ThreadPool pool(4);
  const auto a = run_trials<std::uint64_t>(16, 1, draw, pool);
  const auto b = run_trials<std::uint64_t>(16, 2, draw, pool);
  EXPECT_NE(a, b);
}

TEST(ThreadPoolTest, ParallelForChunksCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> chunk_count{0};
  parallel_for_chunks(
      pool, 5, 95,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        chunk_count.fetch_add(1);
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      10);
  EXPECT_EQ(chunk_count.load(), 9);  // 90 iterations / chunk hint 10
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 95) ? 1 : 0) << "i=" << i;
  }
}

TEST(ThreadPoolTest, ChunkHintDoesNotChangeParallelForSemantics) {
  ThreadPool pool(3);
  for (std::size_t hint : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                           std::size_t{1000}}) {
    std::atomic<long> sum{0};
    for_each_index(
        pool, 0, 50, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); },
        hint);
    EXPECT_EQ(sum.load(), 1225) << "hint=" << hint;  // 0 + ... + 49
  }
}

TEST(MonteCarloTest, ChunkHintPreservesTrialOrderAndValues) {
  auto draw = [](std::size_t, Rng& rng) { return rng.next_u64(); };
  ThreadPool pool(4);
  const auto a = run_trials<std::uint64_t>(64, 9, draw, pool);
  const auto b = run_trials<std::uint64_t>(64, 9, draw, pool, 5);
  const auto c = run_trials<std::uint64_t>(64, 9, draw, pool, 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  for_each_index(ThreadPool::global(), 0, 10,
                 [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(MonteCarloTest, ThrowingTrialSurfacesAsTrialFailureWithIndex) {
  ThreadPool pool(4);
  auto run = [&] {
    return run_trials<int>(64, 1, [](std::size_t t, Rng&) {
      if (t == 37) throw std::runtime_error("boom in trial");
      return static_cast<int>(t);
    }, pool);
  };
  try {
    run();
    FAIL() << "run_trials swallowed the trial exception";
  } catch (const TrialFailure& failure) {
    EXPECT_EQ(failure.trial(), 37u);
    EXPECT_NE(std::string(failure.what()).find("37"), std::string::npos);
    EXPECT_NE(std::string(failure.what()).find("boom in trial"),
              std::string::npos);
    ASSERT_NE(failure.nested(), nullptr);
    EXPECT_THROW(std::rethrow_exception(failure.nested()),
                 std::runtime_error);
  }
  // The pool survives the failure and stays usable.
  EXPECT_EQ(run_trials<int>(8, 1, [](std::size_t t, Rng&) {
              return static_cast<int>(t);
            }, pool).size(), 8u);
}

TEST(TaskTest, InlineCallableRunsAndMoves) {
  // Small captures must use the in-place storage (the whole point of Task
  // over std::function) and survive moves.
  int hits = 0;
  int* p = &hits;
  Task a([p] { ++*p; });
  static_assert(sizeof(void*) <= Task::kInlineSize);
  Task b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(TaskTest, OversizedCallableFallsBackToHeap) {
  struct Big {
    char pad[128];
    int* counter;
    void operator()() const { ++*counter; }
  };
  static_assert(sizeof(Big) > Task::kInlineSize);
  int hits = 0;
  Task a(Big{{}, &hits});
  Task b = std::move(a);
  b();
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(ThreadPoolTest, WorkStealingStressManyTinyTasks) {
  // Thousands of near-empty tasks: exercises the submit/steal/sleep
  // protocol far more often than real trial workloads would.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 2000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 20000);
}

TEST(ThreadPoolTest, NestedParallelForChunksCompletes) {
  // A chunk may itself run parallel_for_chunks on the same pool: the
  // blocked caller helps execute tasks, so nesting cannot deadlock even on
  // a single-threaded pool.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(64 * 64);
    for_each_index(pool, 0, 64, [&](std::size_t outer) {
      for_each_index(
          pool, 0, 64,
          [&](std::size_t inner) { hits[outer * 64 + inner].fetch_add(1); },
          8);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, StealHeavyImbalanceKeepsWorkersBusy) {
  // One long chunk plus many short ones, chunked 1:1: the workers that
  // finish their own deques must steal the rest instead of idling behind
  // the long task's worker.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  const auto start = std::chrono::steady_clock::now();
  parallel_for_chunks(
      pool, 0, 64,
      [&](std::size_t lo, std::size_t) {
        if (lo == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        done.fetch_add(1);
      },
      1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(done.load(), 64);
  // Serial execution behind the sleeper would take >100ms + 63 tasks on one
  // queue; with stealing the short tasks drain concurrently.  Use a loose
  // bound (10x) so the assertion is about "not serialised", not timing.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(ThreadPoolTest, DefaultConcurrencyRespectsAffinityMask) {
  const std::size_t n = ThreadPool::default_concurrency();
  EXPECT_GE(n, 1u);
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(n, static_cast<std::size_t>(CPU_COUNT(&mask)));
#else
  EXPECT_EQ(n, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
#endif
}

TEST(MonteCarloTest, RemainingTrialsAbandonedAfterFailure) {
  // Cooperative abandon: once one trial fails, untouched chunks must not
  // start their trials (the count executed stays well below the total).
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(run_trials<int>(
                   10000, 1,
                   [&](std::size_t t, Rng&) {
                     executed.fetch_add(1);
                     if (t == 0) throw std::runtime_error("die early");
                     // A trivial trial body lets a loaded scheduler drain
                     // every chunk before the failing worker publishes the
                     // abandon flag; a fixed per-trial cost keeps the race
                     // unlosable without slowing the abandoned path.
                     std::this_thread::sleep_for(std::chrono::microseconds(100));
                     return 0;
                   },
                   pool, 1),
               TrialFailure);
  EXPECT_LT(executed.load(), 10000);
}

}  // namespace
}  // namespace rcb
