#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/prof_stack.hpp"

namespace weakkeys::util {

ThreadPool::ThreadPool(std::size_t workers, obs::Telemetry* telemetry) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  if (telemetry) {
    queue_depth_ = &telemetry->metrics().gauge("threadpool.queue_depth");
    tasks_completed_ = &telemetry->metrics().counter("threadpool.tasks_completed");
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop();
    }
    if (queue_depth_) queue_depth_->add(-1);
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancellationToken* cancel) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  bool stopped_enqueuing = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (cancel && cancel->cancelled()) {
      stopped_enqueuing = true;
      break;
    }
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Drain every future before rethrowing: queued tasks reference `fn`, so
  // returning (or throwing) while any are outstanding would dangle. The
  // caller is blocked here, not computing, and its profile says so.
  obs::prof::Frame wait_frame("wait");
  std::exception_ptr first;
  bool task_cancelled = false;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const Cancelled&) {
      // Collapse per-task cancellations into the single report below.
      task_cancelled = true;
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
  if (stopped_enqueuing || task_cancelled) {
    throw Cancelled(cancel && cancel->cancelled() ? cancel->reason()
                                                  : "parallel_for task");
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  const CancellationToken* cancel) {
  if (pool) {
    pool->parallel_for(n, fn, cancel);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cancel) cancel->throw_if_cancelled();
    fn(i);
  }
}

void parallel_for_blocks(
    ThreadPool* pool, std::size_t n, std::size_t min_block,
    const std::function<void(std::size_t, std::size_t)>& fn,
    const CancellationToken* cancel) {
  constexpr std::size_t kBlocksPerThread = 4;
  const std::size_t wanted = pool ? kBlocksPerThread * pool->size() : 1;
  const std::size_t blocks =
      std::max<std::size_t>(1, std::min(wanted, n / std::max<std::size_t>(
                                                        min_block, 1)));
  const std::size_t size = (n + blocks - 1) / blocks;
  parallel_for(
      pool, n == 0 ? 0 : (n + size - 1) / size,
      [&](std::size_t b) { fn(b * size, std::min(n, (b + 1) * size)); },
      cancel);
}

}  // namespace weakkeys::util
