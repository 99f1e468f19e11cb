// A small fixed-size thread pool.
//
// The stretch metrics are embarrassingly parallel sweeps over cells; the pool
// provides the shared-memory worker substrate (in the spirit of an OpenMP
// parallel region) without any external dependency.  Work is submitted as
// batches of index-addressed tasks; the pool guarantees that `run_batch`
// returns only after every task of the batch has completed, and rethrows the
// first task exception on the caller thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sfc {

class ThreadPool {
 public:
  /// Creates `thread_count` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(unsigned thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a batch (helpers + the calling thread).
  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(task_index) for task_index in [0, task_count), distributing
  /// tasks across the pool (the calling thread also participates).  Blocks
  /// until all tasks finish.  Task indices are claimed atomically, so tasks
  /// may run in any order; callers needing determinism must make each task
  /// independent and combine results by task index afterwards.  A one-task
  /// batch runs on the calling thread and wakes no helper.
  void run_batch(std::uint64_t task_count,
                 const std::function<void(std::uint64_t)>& fn);

  /// Process-wide default pool (lazily constructed with hardware threads).
  static ThreadPool& shared();

 private:
  struct Batch;

  void worker_loop();
  void run_tasks(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* current_ = nullptr;        // guarded by mutex_
  std::uint64_t generation_ = 0;    // bumps once per run_batch; guarded by mutex_
  bool shutting_down_ = false;
};

}  // namespace sfc
