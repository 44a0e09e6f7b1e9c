#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace deepbase {

size_t ThreadPool::ResolveThreads(size_t num_threads) {
  return num_threads != 0
             ? num_threads
             : std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = ResolveThreads(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t nt = num_threads();
  if (nt <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared claim/completion state. Heap-allocated and captured by value so
  // helper tasks that only get scheduled after the call returned (because
  // the caller drained every item itself) find a valid, finished state
  // instead of dangling stack references.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first failure, guarded by mu
  };
  auto shared = std::make_shared<Shared>();
  shared->n = n;
  shared->fn = &fn;  // outlives all claims: the caller blocks on `done`
  // The worker never throws: a failing item is captured (first one wins)
  // and still counted in `done`, so the caller can neither hang on a
  // swallowed helper exception nor unwind while helpers are mid-item.
  auto worker = [shared] {
    for (;;) {
      const size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->n) return;
      try {
        (*shared->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mu);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          shared->n) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->cv.notify_all();
      }
    }
  };
  // Fire-and-forget helpers: idle workers accelerate the loop; busy ones
  // (or helpers scheduled too late) see next >= n and return immediately.
  const size_t helpers = std::min(nt, n - 1);
  for (size_t h = 0; h < helpers; ++h) Submit(worker);
  // The caller always participates, so progress never depends on a free
  // pool thread — nested ParallelFor from inside a pool task cannot
  // deadlock.
  worker();
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&shared] {
    return shared->done.load(std::memory_order_acquire) >= shared->n;
  });
  if (shared->error) std::rethrow_exception(shared->error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace deepbase
