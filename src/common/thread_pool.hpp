// Fixed-size thread pool with a parallel_for helper.
//
// The paper evaluates 64 SA neighbors simultaneously on an 80-core server;
// we reproduce the structure with a pool sized to the host (or to the
// LCN_THREADS env knob) so schedules stay identical regardless of core count.
// The pool serves the coarse loops only — SA/island neighbours and
// reliability-sweep scenarios. The numerical kernels under them (SpMV,
// vector ops, assembly, transient steps) always run on the calling thread,
// and a parallel_for issued from inside a pool task runs inline, so there is
// one level of parallelism.
//
// Share-aware submission (DESIGN.md §S22): parallel_for captures the
// submitting thread's TaskContext (common/task_context.hpp) and re-installs
// it on every worker that drains the call's shards, so per-session counters,
// cancellation and progress streaming follow the job across the pool. When
// the context carries a pool_share, the call fans out over at most that many
// workers (submitter included) — the fair-share scheduler's mechanism for
// letting K concurrent jobs coexist on one pool without any of them hogging
// the queue. Work distribution never affects results (the §S1 contract), so
// a job's output is bit-identical at any share width.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lcn {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool; blocks until all done.
  /// Exceptions from tasks are captured and the first one is rethrown. A
  /// call made from inside another parallel_for task (on any pool) runs
  /// inline on the calling thread.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Largest pool width LCN_THREADS may name.
inline constexpr std::size_t kMaxPoolThreads = 1024;

/// Pool width named by an LCN_THREADS value. Unset (null), empty and "0"
/// mean hardware width and return 0. Anything other than a decimal integer
/// in [0, kMaxPoolThreads] throws RuntimeError naming LCN_THREADS. Starts no
/// thread.
std::size_t parse_pool_threads(const char* raw);

/// Pool shared by the coarse loops (SA/island neighbours, sweep scenarios);
/// sized by LCN_THREADS (default: all cores; 1 runs every loop inline on
/// the calling thread).
ThreadPool& global_pool();

/// Rebuild the global pool with `threads` workers (0 = LCN_THREADS/default).
/// Must not be called while pool tasks are in flight; used by tests and
/// benches to compare thread counts within one process.
void set_global_pool_threads(std::size_t threads);

/// Worker count of the global pool (creates it on first use).
std::size_t global_pool_threads();

}  // namespace lcn
