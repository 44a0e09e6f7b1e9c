// Fixed-size thread pool. In this reproduction the pool stands in for the
// paper's GPU execution path: it provides batch-parallel unit extraction and
// merged-model training (see DESIGN.md, substitution table).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace deepbase {

/// \brief A minimal fixed-size thread pool with a ParallelFor convenience.
class ThreadPool {
 public:
  /// \param num_threads number of workers; 0 means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// \brief The worker count a pool built with `num_threads` gets (the
  /// 0 = hardware_concurrency() rule, at least 1).
  static size_t ResolveThreads(size_t num_threads);

  /// \brief Enqueue a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> fn);

  /// \brief Run fn(i) for i in [0, n), blocking until all complete.
  ///
  /// Cooperative: the calling thread claims and runs items alongside the
  /// pool workers, so ParallelFor may safely be issued from *inside* a pool
  /// task (e.g. an async inspection job fanning its block loop out over the
  /// session pool). Even with every worker busy, the caller alone drains
  /// the items — the pool can never deadlock on nested fan-out, and
  /// concurrent jobs share idle capacity on a first-come basis while each
  /// keeps its own calling thread as a guaranteed budget. Safe with n == 0.
  /// If fn throws, the remaining items still run to completion and the
  /// first exception is rethrown on the calling thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace deepbase
