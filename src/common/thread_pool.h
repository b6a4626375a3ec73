// Fixed-size worker pool.
//
// DPFS uses one in the client, FileSystem's dispatch pool, to issue
// per-server requests in parallel; the servers run a thread per connection
// instead (server/frame_server.h). Tasks are type-erased
// std::function<void()>; use ParallelFor for bulk fan-out with automatic
// joining.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dpfs {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks. Must not be called after the destructor
  /// has begun.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

 private:
  // Enqueue timestamp rides with the task so queue-wait latency is
  // observable (thread_pool.queue_wait_us, docs/OBSERVABILITY.md).
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  void WorkerLoop();

  Mutex mu_;
  CondVar work_cv_;   // signals workers: new task or shutdown
  CondVar idle_cv_;   // signals Wait(): everything drained
  std::deque<Task> queue_ DPFS_GUARDED_BY(mu_);
  std::size_t in_flight_ DPFS_GUARDED_BY(mu_) = 0;
  bool shutdown_ DPFS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // written only before workers start
};

/// Runs fn(i) for i in [0, count) across `pool`, blocking until all complete.
void ParallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

}  // namespace dpfs
