#include "rules/thread_pool.h"

#include "common/logging.h"
#include "obs/span.h"

namespace sentinel::rules {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(task), obs::SpanTracer::NowNs()});
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front().run);
      // Exponentially smoothed (1/8 weight per task), seeded by the first.
      const std::uint64_t waited =
          obs::SpanTracer::NowNs() - queue_.front().submitted_ns;
      const std::uint64_t smoothed = handoff_ns_.load(std::memory_order_relaxed);
      handoff_ns_.store(
          smoothed == 0 ? waited : smoothed - smoothed / 8 + waited / 8,
          std::memory_order_relaxed);
      queue_.pop_front();
      ++busy_;
    }
    // An exception leaving a worker would std::terminate the process; the
    // scheduler contains rule failures upstream, this is the last line of
    // defence for any other task.
    try {
      task();
    } catch (const std::exception& e) {
      SENTINEL_LOG(kError) << "thread pool task threw (contained): "
                           << e.what();
    } catch (...) {
      SENTINEL_LOG(kError) << "thread pool task threw a non-standard "
                              "exception (contained)";
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
      if (queue_.empty() && busy_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace sentinel::rules
