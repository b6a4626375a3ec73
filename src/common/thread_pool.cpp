#include "common/thread_pool.h"

#include <algorithm>

#include "common/metrics.h"

namespace dpfs {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// queue_depth aggregates across every pool in the process (the client
// dispatch pools, one per FileSystem).
struct PoolMetrics {
  metrics::Counter& submitted =
      metrics::GetCounter("thread_pool.tasks_submitted");
  metrics::Counter& completed =
      metrics::GetCounter("thread_pool.tasks_completed");
  metrics::Gauge& queue_depth = metrics::GetGauge("thread_pool.queue_depth");
  metrics::Histogram& queue_wait_us =
      metrics::GetHistogram("thread_pool.queue_wait_us");
  metrics::Histogram& task_us = metrics::GetHistogram("thread_pool.task_us");
};
PoolMetrics& Metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Metrics().submitted.Add();
  Metrics().queue_depth.Add();
  {
    MutexLock lock(mu_);
    queue_.push_back(Task{std::move(task), std::chrono::steady_clock::now()});
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    Metrics().queue_depth.Sub();
    Metrics().queue_wait_us.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - task.enqueued)
            .count()));
    {
      metrics::ScopedTimer timer(Metrics().task_us);
      task.fn();
    }
    Metrics().completed.Add();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.NotifyAll();
    }
  }
}

void ParallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  Mutex mu;
  CondVar cv;
  std::size_t remaining = count;
  if (count == 0) return;
  for (std::size_t i = 0; i < count; ++i) {
    pool.Submit([&, i] {
      fn(i);
      MutexLock lock(mu);
      if (--remaining == 0) cv.NotifyOne();
    });
  }
  MutexLock lock(mu);
  while (remaining != 0) cv.Wait(mu);
}

}  // namespace dpfs
