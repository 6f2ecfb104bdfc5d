#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/task_context.hpp"

namespace lcn {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

thread_local bool t_in_task = false;

// Shared by the caller and all pool shards; owned via shared_ptr so shards
// that dequeue after the caller has already finished stay valid.
struct ForState {
  explicit ForState(std::size_t n, std::function<void(std::size_t)> f)
      : count(n), fn(std::move(f)), context(current_task_context()) {}
  const std::size_t count;
  const std::function<void(std::size_t)> fn;
  /// The submitter's task context, re-installed on every draining worker so
  /// counters/cancellation/progress follow the job across the pool.
  const TaskContext* const context;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  void drain() {
    const bool was_in_task = t_in_task;
    t_in_task = true;
    ScopedTaskContext scope(context);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) {
        t_in_task = was_in_task;
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1) + 1 == count) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};
}  // namespace

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Run inline when fanning out cannot help: trivial counts, a single
  // worker, or a nested call from inside another parallel_for task (the
  // outer loop already owns the pool; queueing nested shards would only add
  // contention).
  if (count == 1 || workers_.size() == 1 || t_in_task) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>(count, fn);
  std::size_t width = workers_.size();
  // Fair-share cap (§S22): a job running under a scheduler-assigned share
  // fans out over at most `share` workers, the submitting thread included,
  // so concurrent jobs split the pool instead of each flooding the queue.
  // The share is read per call — the scheduler rebalances running jobs live.
  if (state->context != nullptr && state->context->pool_share != nullptr) {
    const std::size_t share =
        state->context->pool_share->load(std::memory_order_relaxed);
    if (share > 0) width = std::min(width, share);
  }
  if (width <= 1) {
    state->drain();  // degenerate share: stay on the submitting thread
    if (state->first_error) std::rethrow_exception(state->first_error);
    return;
  }
  const std::size_t shards = std::min(width, count);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t s = 0; s + 1 < shards; ++s) {
      tasks_.push([state] { state->drain(); });
    }
  }
  cv_.notify_all();
  state->drain();  // the calling thread participates

  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&] { return state->done.load() == count; });
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
}

std::size_t parse_pool_threads(const char* raw) {
  return static_cast<std::size_t>(parse_env_int(
      "LCN_THREADS", raw, 0, 0, static_cast<long>(kMaxPoolThreads)));
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_ptr{nullptr};

std::size_t default_pool_threads() {
  return parse_pool_threads(std::getenv("LCN_THREADS"));
}
}  // namespace

ThreadPool& global_pool() {
  ThreadPool* pool = g_pool_ptr.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(default_pool_threads());
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

void set_global_pool_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // joins the old workers
  g_pool = std::make_unique<ThreadPool>(
      threads != 0 ? threads : default_pool_threads());
  g_pool_ptr.store(g_pool.get(), std::memory_order_release);
}

std::size_t global_pool_threads() { return global_pool().size(); }

}  // namespace lcn
