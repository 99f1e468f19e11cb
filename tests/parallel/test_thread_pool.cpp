#include "sfc/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sfc {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_batch(1000, [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  std::atomic<std::uint64_t> sum{0};
  pool.run_batch(100, [&](std::uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, EmptyBatchIsNoOp) {
  ThreadPool pool(2);
  pool.run_batch(0, [&](std::uint64_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ManySequentialBatches) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run_batch(20, [&](std::uint64_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_batch(100,
                     [&](std::uint64_t i) {
                       if (i == 37) throw std::runtime_error("task failure");
                     }),
      std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.run_batch(10, [&](std::uint64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, OneTaskBatchRunsOnTheCaller) {
  // A one-task batch has nothing to share: it must run on the calling thread
  // (and so wake no helper), every time — including its exception.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < 200; ++i) {
    std::thread::id ran_on;
    pool.run_batch(1, [&](std::uint64_t task) {
      EXPECT_EQ(task, 0u);
      ran_on = std::this_thread::get_id();
    });
    ASSERT_EQ(ran_on, caller) << "batch " << i;
  }
  EXPECT_THROW(pool.run_batch(1,
                              [](std::uint64_t) {
                                throw std::runtime_error("task failure");
                              }),
               std::runtime_error);
}

TEST(ThreadPool, ThreadCountReported) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  ThreadPool solo(1);
  EXPECT_EQ(solo.thread_count(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, LargeTaskCount) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.run_batch(100000, [&](std::uint64_t i) {
    if (i % 9973 == 0) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 100000u / 9973u + 1);
}

}  // namespace
}  // namespace sfc
