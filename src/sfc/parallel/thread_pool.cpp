#include "sfc/parallel/thread_pool.h"

#include <atomic>
#include <exception>

namespace sfc {

struct ThreadPool::Batch {
  std::uint64_t task_count = 0;
  const std::function<void(std::uint64_t)>* fn = nullptr;
  std::atomic<std::uint64_t> next_task{0};
  std::atomic<unsigned> active_workers{0};
  std::exception_ptr first_error;  // guarded by the pool mutex
};

ThreadPool::ThreadPool(unsigned thread_count) {
  if (thread_count == 0) {
    thread_count = std::thread::hardware_concurrency();
    if (thread_count == 0) thread_count = 1;
  }
  // The calling thread participates in run_batch, so spawn one fewer worker.
  const unsigned helpers = thread_count > 1 ? thread_count - 1 : 0;
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_tasks(Batch& batch) {
  while (true) {
    const std::uint64_t task = batch.next_task.fetch_add(1, std::memory_order_relaxed);
    if (task >= batch.task_count) break;
    try {
      (*batch.fn)(task);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!batch.first_error) batch.first_error = std::current_exception();
    }
  }
}

void ThreadPool::run_batch(std::uint64_t task_count,
                           const std::function<void(std::uint64_t)>& fn) {
  if (task_count == 0) return;
  if (task_count == 1) {
    // Nothing to share: run it here without publishing a batch, so a
    // one-task batch wakes no helper.
    fn(0);
    return;
  }
  Batch batch;
  batch.task_count = task_count;
  batch.fn = &fn;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = &batch;
    ++generation_;
  }
  work_ready_.notify_all();

  // The caller helps drain the batch.
  run_tasks(batch);

  // Unpublish the batch, then wait for helpers that joined it to finish.
  // Workers only touch the batch after observing current_ != nullptr and
  // incrementing active_workers under the same mutex, so once current_ is
  // null and active_workers reaches zero the batch can safely go away.
  std::unique_lock<std::mutex> lock(mutex_);
  current_ = nullptr;
  batch_done_.wait(lock, [&] { return batch.active_workers.load() == 0; });
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Waiting on a *new* generation prevents a worker from re-joining a
      // batch it already drained while the caller is still unpublishing it.
      work_ready_.wait(lock, [&] {
        return shutting_down_ || (current_ != nullptr && generation_ != seen_generation);
      });
      if (shutting_down_) return;
      batch = current_;
      seen_generation = generation_;
      batch->active_workers.fetch_add(1);
    }
    run_tasks(*batch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch->active_workers.fetch_sub(1);
    }
    batch_done_.notify_all();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sfc
