#ifndef SENTINEL_RULES_THREAD_POOL_H_
#define SENTINEL_RULES_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sentinel::rules {

/// Fixed pool of worker threads (the paper's "pool of free threads", Fig. 3).
/// Tasks are arbitrary closures; Submit never blocks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void WaitIdle();

  std::size_t worker_count() const { return threads_.size(); }

  /// What handing a task over costs before it starts: the smoothed
  /// Submit-to-start latency of recent tasks, in ns (0 until one has run).
  std::uint64_t handoff_ns() const {
    return handoff_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> run;
    std::uint64_t submitted_ns = 0;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  std::atomic<std::uint64_t> handoff_ns_{0};  // written under mu_
  std::vector<std::thread> threads_;
  std::size_t busy_ = 0;
  bool stop_ = false;
};

}  // namespace sentinel::rules

#endif  // SENTINEL_RULES_THREAD_POOL_H_
