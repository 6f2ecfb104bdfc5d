#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "network/generators.hpp"
#include "reliability/sweep.hpp"
#include "scenario/scenario_io.hpp"

namespace lcn::service {

namespace {

using Clock = std::chrono::steady_clock;

int resolve_shares(int requested) { return requested > 0 ? requested : 1; }

/// The canonical uniform layout the SA starts from (sa.cpp initial_layout):
/// branches at cols/3 and 2*cols/3, rounded down to even.
TreeLayout default_layout(const Grid2D& grid, int b1, int b2) {
  if (b1 < 0) {
    b1 = grid.cols() / 3;
    b1 -= b1 % 2;
  }
  if (b2 < 0) {
    b2 = 2 * grid.cols() / 3;
    b2 -= b2 % 2;
  }
  return make_uniform_layout(grid, b1, b2);
}

void fill_eval_fields(JobResult& result, const EvalResult& eval) {
  result.feasible = eval.feasible;
  result.score = eval.score;
  result.p_sys = eval.p_sys;
  result.w_pump = eval.w_pump;
  result.t_max = eval.at_p.t_max;
  result.delta_t = eval.at_p.delta_t;
}

metrics::Hist job_latency_hist(JobKind kind) {
  switch (kind) {
    case JobKind::kDesign: return metrics::Hist::job_design_seconds;
    case JobKind::kEvaluate: return metrics::Hist::job_evaluate_seconds;
    case JobKind::kSweep: return metrics::Hist::job_sweep_seconds;
    case JobKind::kScenario: return metrics::Hist::job_scenario_seconds;
  }
  return metrics::Hist::job_evaluate_seconds;
}

}  // namespace

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kDesign: return "design";
    case JobKind::kEvaluate: return "evaluate";
    case JobKind::kSweep: return "sweep";
    case JobKind::kScenario: return "scenario";
  }
  return "?";
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_status_terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled;
}

struct Scheduler::Job {
  std::uint64_t id = 0;
  JobRequest request;
  ProgressSink* sink = nullptr;
  JobStatus status = JobStatus::kQueued;
  bool deadline_hit = false;
  Clock::time_point deadline{};  ///< valid when request.timeout_seconds > 0
  std::unique_ptr<SessionContext> session;  ///< created when the job starts
  JobResult result;
};

Scheduler::Scheduler(Options options) {
  retain_jobs_ = static_cast<std::size_t>(
      parse_env_int("LCN_JOB_HISTORY", std::getenv("LCN_JOB_HISTORY"), 1024,
                    1, 1'000'000));
  pool_width_ = std::max<std::size_t>(1, global_pool_threads());
  const auto hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  max_running_ =
      options.max_running != 0
          ? options.max_running
          : std::max<std::size_t>(
                2, std::min<std::size_t>(4, std::max(hw, pool_width_)));
  runners_.reserve(max_running_);
  for (std::size_t i = 0; i < max_running_; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    // Jobs still queued will never run; retire them as cancelled. Running
    // jobs get their cancel flag raised and the runners join after their
    // next cancellation point unwinds.
    for (const std::uint64_t id : queue_) {
      Job* job = find_locked(id);
      if (job == nullptr) continue;
      job->status = JobStatus::kCancelled;
      job->result.status = JobStatus::kCancelled;
      job->result.error = "scheduler shut down";
    }
    queue_.clear();
    publish_gauges_locked();
    for (auto& [id, job] : jobs_) {
      if (job->status == JobStatus::kRunning && job->session != nullptr) {
        job->session->request_cancel();
      }
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& t : runners_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

std::uint64_t Scheduler::submit(JobRequest request, ProgressSink* sink) {
  LCN_REQUIRE(request.shares >= 0 && request.shares <= kMaxJobShares,
              "job shares must be in [0, 1024]");
  LCN_REQUIRE(request.timeout_seconds >= 0.0 &&
                  request.timeout_seconds <= kMaxTimeoutSeconds,
              "job timeout must be in [0, 1e6] seconds");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!accepting_) {
    instrument::add(instrument::Counter::jobs_rejected);
    return 0;
  }
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->request = std::move(request);
  job->sink = sink;
  if (sink != nullptr) sink->bind_job(id);
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  gc_terminal_locked();
  publish_gauges_locked();
  work_cv_.notify_one();
  return id;
}

bool Scheduler::cancel(std::uint64_t id) {
  bool became_terminal = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job* job = find_locked(id);
    if (job == nullptr || job_status_terminal(job->status)) return false;
    if (job->status == JobStatus::kQueued) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                   queue_.end());
      job->status = JobStatus::kCancelled;
      job->result.status = JobStatus::kCancelled;
      job->result.error = "cancelled before start";
      became_terminal = true;
      publish_gauges_locked();
    } else if (job->session != nullptr) {
      job->session->request_cancel();
    }
  }
  if (became_terminal) done_cv_.notify_all();
  return true;
}

JobStatus Scheduler::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find_locked(id);
  return job != nullptr ? job->status : JobStatus::kFailed;
}

JobResult Scheduler::result(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find_locked(id);
  if (job == nullptr) {
    JobResult missing;
    missing.status = JobStatus::kFailed;
    missing.error = strfmt("unknown job %llu",
                           static_cast<unsigned long long>(id));
    return missing;
  }
  JobResult out = job->result;
  out.status = job->status;
  return out;
}

JobResult Scheduler::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    const Job* job = find_locked(id);
    return job == nullptr || job_status_terminal(job->status);
  });
  const Job* job = find_locked(id);
  if (job == nullptr) {
    JobResult missing;
    missing.status = JobStatus::kFailed;
    missing.error = strfmt("unknown job %llu",
                           static_cast<unsigned long long>(id));
    return missing;
  }
  JobResult out = job->result;
  out.status = job->status;
  return out;
}

std::vector<Scheduler::JobInfo> Scheduler::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    out.push_back({id, job->request.kind, job->status, job->request.name});
  }
  return out;
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  done_cv_.wait(lock, [&] {
    if (!queue_.empty() || running_count_ > 0) return false;
    return true;
  });
}

Scheduler::Job* Scheduler::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second.get() : nullptr;
}

void Scheduler::gc_terminal_locked() {
  // A long-running daemon would otherwise accumulate one Job record per
  // submission forever. Clients read results promptly (wait(), the streamed
  // result line, or a 'result' query), so retiring the oldest terminal
  // entries past the LCN_JOB_HISTORY cap only drops stale history; queued
  // and running jobs are never touched.
  if (jobs_.size() <= retain_jobs_) return;
  std::size_t excess = jobs_.size() - retain_jobs_;
  for (auto it = jobs_.begin(); it != jobs_.end() && excess > 0;) {
    if (job_status_terminal(it->second->status)) {
      it = jobs_.erase(it);
      --excess;
    } else {
      ++it;
    }
  }
}

void Scheduler::publish_gauges_locked() const {
  metrics::gauge_set(metrics::Gauge::queue_depth,
                     static_cast<std::int64_t>(queue_.size()));
  metrics::gauge_set(metrics::Gauge::running_jobs,
                     static_cast<std::int64_t>(running_count_));
}

void Scheduler::rebalance_locked() {
  // Weighted fair share of the pool width over running jobs (§S22):
  // share_i = max(1, W * weight_i / total_weight). Shares are advisory caps
  // on pool fan-out, so rounding the sum above W merely time-slices
  // the queue a little; correctness and determinism never depend on it.
  int total_weight = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->status == JobStatus::kRunning) {
      total_weight += resolve_shares(job->request.shares);
    }
  }
  if (total_weight <= 0) return;
  for (auto& [id, job] : jobs_) {
    if (job->status != JobStatus::kRunning || job->session == nullptr)
      continue;
    const int weight = resolve_shares(job->request.shares);
    const std::size_t share = std::max<std::size_t>(
        1, pool_width_ * static_cast<std::size_t>(weight) /
               static_cast<std::size_t>(total_weight));
    job->session->set_pool_share(share);
  }
}

void Scheduler::runner_loop() {
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      const std::uint64_t id = queue_.front();
      queue_.erase(queue_.begin());
      job = find_locked(id);
      if (job == nullptr) continue;

      SessionConfig config;
      config.name = job->request.name;
      config.seed = job->request.seed;
      config.shares = resolve_shares(job->request.shares);
      job->session = std::make_unique<SessionContext>(id, config);
      job->session->set_progress_sink(job->sink);
      job->status = JobStatus::kRunning;
      job->result.start_order = next_start_order_++;
      if (job->request.timeout_seconds > 0.0) {
        job->deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   job->request.timeout_seconds));
      }
      ++running_count_;
      rebalance_locked();
      publish_gauges_locked();
    }

    execute(*job);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_count_;
      rebalance_locked();
      publish_gauges_locked();
    }
    done_cv_.notify_all();
  }
}

void Scheduler::watchdog_loop() {
  // Deadline monitor: a coarse 50 ms scan is plenty — deadlines are
  // second-scale and cancellation is cooperative anyway. It waits on its own
  // condition variable: sharing work_cv_ would let the watchdog swallow a
  // submit()'s notify_one and leave a queued job with no runner awake.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (stop_) return;
    const auto now = Clock::now();
    for (auto& [id, job] : jobs_) {
      if (job->status != JobStatus::kRunning || job->deadline_hit) continue;
      if (job->request.timeout_seconds <= 0.0 || job->session == nullptr)
        continue;
      if (now >= job->deadline) {
        job->deadline_hit = true;
        job->session->request_cancel();
        instrument::add(instrument::Counter::deadline_misses);
      }
    }
  }
}

void Scheduler::execute(Job& job) {
  SessionContext& session = *job.session;
  // The runner thread is the job's coordinator: install the session context
  // here and every pool loop below propagates it to the pool workers.
  SessionScope scope(session);
  WallTimer timer;
  JobStatus final_status = JobStatus::kDone;
  std::string error;
  // Accumulate into a local result and publish it into job.result only under
  // mutex_ at the end: connection threads may copy job.result via result()
  // at any time while the job runs, so unlocked writes would race.
  JobResult local;

  if (job.sink != nullptr) {
    job.sink->emit("job_started",
                   strfmt("\"job\":%llu,\"kind\":\"%s\"",
                          static_cast<unsigned long long>(job.id),
                          job_kind_name(job.request.kind))
                       .c_str());
  }

  try {
    throw_if_cancelled();  // cancelled while still queued-to-running
    const JobRequest& req = job.request;
    BenchmarkCase bench = req.custom_case != nullptr
                              ? *req.custom_case
                              : make_iccad_case(req.case_id);
    const bool p2 = req.objective == DesignObjective::kThermalGradient;
    if (p2 && bench.constraints.w_pump_max <= 0.0) {
      bench.constraints.w_pump_max = problem2_pump_budget(bench);
    }
    TreeTopologyOptimizer optimizer(bench, req.objective, req.seed);

    switch (req.kind) {
      case JobKind::kDesign: {
        const auto stages = !req.custom_stages.empty() ? req.custom_stages
                            : p2 ? default_p2_stages(req.scale)
                                 : default_p1_stages(req.scale);
        const DesignOutcome outcome = optimizer.run(stages);
        fill_eval_fields(local, outcome.eval);
        local.direction = outcome.direction;
        local.design_hash = outcome.network.content_hash();
        local.network_text = outcome.network.to_text();
        local.evaluations = outcome.evaluations;
        break;
      }
      case JobKind::kEvaluate: {
        const TreeLayout layout =
            default_layout(bench.problem.grid, req.b1, req.b2);
        const CoolingNetwork net = optimizer.realize(layout, req.direction);
        const EvalResult eval = optimizer.evaluate_network(net, req.sim);
        fill_eval_fields(local, eval);
        local.direction = req.direction;
        local.design_hash = net.content_hash();
        local.evaluations = 1;
        break;
      }
      case JobKind::kSweep: {
        const TreeLayout layout =
            default_layout(bench.problem.grid, req.b1, req.b2);
        const CoolingNetwork net = optimizer.realize(layout, req.direction);
        const EvalResult nominal = optimizer.evaluate_network(net, req.sim);
        if (!nominal.feasible) {
          throw RuntimeError("sweep: nominal design is infeasible");
        }
        fill_eval_fields(local, nominal);
        local.direction = req.direction;
        local.design_hash = net.content_hash();
        SweepOptions options;
        options.scenarios = req.scenarios;
        options.seed = req.seed;
        options.sim = req.sim;
        const SweepReport report =
            run_sweep(bench.problem, net, bench.constraints, nominal.p_sys,
                      options);
        local.p_exceed_t_max = report.p_exceed_t_max;
        local.p_exceed_delta_t = report.p_exceed_delta_t;
        local.scenarios = report.outcomes.size();
        local.unrecoverable = report.unrecoverable;
        local.evaluations = report.outcomes.size();
        break;
      }
      case JobKind::kScenario: {
        const TreeLayout layout =
            default_layout(bench.problem.grid, req.b1, req.b2);
        const CoolingNetwork net = optimizer.realize(layout, req.direction);
        const ScenarioConfig config =
            req.custom_scenario != nullptr
                ? *req.custom_scenario
                : parse_scenario_text(req.scenario_text);
        // run_scenario mirrors every step to the session's progress sink as
        // a scenario_step event, so a streaming submit sees the trajectory.
        const ScenarioResult trajectory =
            run_scenario(bench.problem, net, config);
        local.feasible = true;
        local.peak_t_max = trajectory.peak_t_max;
        local.peak_delta_t = trajectory.peak_delta_t;
        local.final_inlet = trajectory.final_inlet;
        local.scenario_steps = static_cast<std::size_t>(trajectory.steps);
        if (!trajectory.samples.empty()) {
          const ScenarioSample& last = trajectory.samples.back();
          local.t_max = last.t_max;
          local.delta_t = last.delta_t;
          local.p_sys = last.p_delivered;
          local.w_pump = last.w_pump;
        }
        local.direction = req.direction;
        local.design_hash = net.content_hash();
        local.evaluations = trajectory.samples.size();
        break;
      }
    }
  } catch (const Cancelled&) {
    final_status = JobStatus::kCancelled;
    error = job.deadline_hit ? "deadline exceeded" : "cancelled";
  } catch (const std::exception& e) {
    final_status = JobStatus::kFailed;
    error = e.what();
  } catch (...) {
    final_status = JobStatus::kFailed;
    error = "unknown error";
  }

  instrument::add(final_status == JobStatus::kCancelled
                      ? instrument::Counter::jobs_cancelled
                      : instrument::Counter::jobs_completed);

  local.seconds = timer.seconds();
  // Billed under the session scope, so the job's own shard carries its
  // latency too; snapshotted below so the result reflects it.
  metrics::observe(job_latency_hist(job.request.kind), local.seconds);
  local.error = error;
  local.metrics = session.telemetry().snapshot();
  local.counters = local.metrics.counters;
  local.manifest = session.manifest_json();
  local.status = final_status;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    local.start_order = job.result.start_order;
    job.result = std::move(local);
    job.status = final_status;
  }
  if (job.sink != nullptr) {
    job.sink->emit("job_done",
                   strfmt("\"job\":%llu,\"status\":\"%s\"",
                          static_cast<unsigned long long>(job.id),
                          job_status_name(final_status))
                       .c_str());
  }
}

}  // namespace lcn::service
