// Multi-tenant serving suite (DESIGN.md §S22): concurrent jobs through the
// fair-share scheduler are bit-identical to solo runs at any pool width,
// per-session telemetry shards and manifests are isolated, cancellation and
// deadlines unwind cleanly while the scheduler keeps serving, and the wire
// protocol round-trips.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/task_context.hpp"
#include "common/thread_pool.hpp"
#include "network/generators.hpp"
#include "opt/sa.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"

namespace lcn {
namespace {

using service::JobKind;
using service::JobRequest;
using service::JobResult;
using service::JobStatus;
using service::Scheduler;

// Same small feasible case as the islands suite: quick pressure searches on
// every design the SA can reach.
BenchmarkCase service_case(double watts = 8.0) {
  BenchmarkCase bench;
  bench.id = 98;
  bench.name = "service-unit";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.55 * watts, 11));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.45 * watts, 12));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;
  return bench;
}

SimConfig fast_sim() { return SimConfig{ThermalModelKind::k2RM, 3}; }

std::vector<SaStage> short_schedule() {
  std::vector<SaStage> stages;
  stages.push_back({"u1-fixedP", 3, 1, 2, 4, fast_sim(), true, 1});
  stages.push_back({"u2-full", 3, 1, 2, 4, fast_sim(), false, 1});
  return stages;
}

// Enough fixed-pressure iterations that a runner is observably mid-SA for
// hundreds of milliseconds — the cancellation/deadline tests need a window.
std::vector<SaStage> long_schedule() {
  std::vector<SaStage> stages;
  stages.push_back({"long", 5000, 1, 2, 4, fast_sim(), true, 1});
  return stages;
}

JobRequest design_request(std::uint64_t seed,
                          std::vector<SaStage> stages = short_schedule()) {
  JobRequest req;
  req.kind = JobKind::kDesign;
  req.seed = seed;
  req.custom_case = std::make_shared<BenchmarkCase>(service_case());
  req.custom_stages = std::move(stages);
  return req;
}

JobRequest evaluate_request() {
  JobRequest req;
  req.kind = JobKind::kEvaluate;
  req.sim = fast_sim();
  // Loose ΔT* so the canonical uniform layout is unambiguously feasible.
  auto bench = std::make_shared<BenchmarkCase>(service_case());
  bench->constraints.delta_t_max = 30.0;
  req.custom_case = std::move(bench);
  return req;
}

JobRequest sweep_request(int scenarios) {
  JobRequest req;
  req.kind = JobKind::kSweep;
  req.sim = fast_sim();
  req.scenarios = scenarios;
  req.seed = 77;
  // Loose limits so the uniform nominal layout is comfortably feasible and
  // the sweep itself is what the job spends its time on.
  auto bench = std::make_shared<BenchmarkCase>(service_case());
  bench->constraints.delta_t_max = 30.0;
  req.custom_case = std::move(bench);
  return req;
}

void wait_until_running(Scheduler& scheduler, std::uint64_t id) {
  for (int i = 0; i < 2000; ++i) {
    const JobStatus status = scheduler.status(id);
    if (status == JobStatus::kRunning) return;
    ASSERT_FALSE(service::job_status_terminal(status))
        << "job finished before it could be observed running";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "job never started running";
}

// ---------------------------------------------------------------------------
// Bit-identity: N concurrent identical jobs == a solo in-process run, at
// every pool width of the §S1 thread sweep.

struct DesignPrint {
  std::uint64_t design_hash = 0;
  std::string network_text;
  double score = 0.0;
  double p_sys = 0.0;
  double w_pump = 0.0;
  int direction = 0;
  std::size_t evaluations = 0;

  friend bool operator==(const DesignPrint&, const DesignPrint&) = default;
};

DesignPrint print_of(const JobResult& result) {
  DesignPrint print;
  print.design_hash = result.design_hash;
  print.network_text = result.network_text;
  print.score = result.score;
  print.p_sys = result.p_sys;
  print.w_pump = result.w_pump;
  print.direction = result.direction;
  print.evaluations = result.evaluations;
  return print;
}

DesignPrint solo_reference(std::uint64_t seed) {
  const BenchmarkCase bench = service_case();
  TreeTopologyOptimizer optimizer(bench, DesignObjective::kPumpingPower,
                                  seed);
  const DesignOutcome outcome = optimizer.run(short_schedule());
  DesignPrint print;
  print.design_hash = outcome.network.content_hash();
  print.network_text = outcome.network.to_text();
  print.score = outcome.eval.score;
  print.p_sys = outcome.eval.p_sys;
  print.w_pump = outcome.eval.w_pump;
  print.direction = outcome.direction;
  print.evaluations = outcome.evaluations;
  return print;
}

class ServiceDeterminism : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

TEST_P(ServiceDeterminism, ConcurrentIdenticalJobsMatchSoloBitExactly) {
  // The solo reference is computed once, serially; the §S1 contract makes it
  // the reference for every pool width.
  static const DesignPrint reference = [] {
    set_global_pool_threads(1);
    return solo_reference(11);
  }();
  set_global_pool_threads(GetParam());

  Scheduler scheduler(Scheduler::Options{3});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(scheduler.submit(design_request(11)));
    ASSERT_NE(ids.back(), 0u);
  }
  for (const std::uint64_t id : ids) {
    const JobResult result = scheduler.wait(id);
    ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
    EXPECT_EQ(print_of(result), reference);
  }
}

TEST_P(ServiceDeterminism, MixedTenantsDoNotPerturbEachOther) {
  // A design job sharing the scheduler with a sweep and an evaluate tenant
  // must return exactly the solo result: no rng, cache, or counter bleed.
  static const DesignPrint reference = [] {
    set_global_pool_threads(1);
    return solo_reference(23);
  }();
  set_global_pool_threads(GetParam());

  Scheduler scheduler(Scheduler::Options{3});
  const std::uint64_t sweep_id = scheduler.submit(sweep_request(8));
  const std::uint64_t design_id = scheduler.submit(design_request(23));
  const std::uint64_t eval_id = scheduler.submit(evaluate_request());
  const JobResult design = scheduler.wait(design_id);
  ASSERT_EQ(design.status, JobStatus::kDone) << design.error;
  EXPECT_EQ(print_of(design), reference);
  const JobResult sweep = scheduler.wait(sweep_id);
  ASSERT_EQ(sweep.status, JobStatus::kDone) << sweep.error;
  EXPECT_EQ(sweep.scenarios, 8u);
  const JobResult eval = scheduler.wait(eval_id);
  ASSERT_EQ(eval.status, JobStatus::kDone) << eval.error;
  EXPECT_TRUE(eval.feasible);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Session isolation: counters and manifests.

TEST(ServiceIsolation, SessionShardsAccountOnlyTheirOwnWork) {
  Scheduler scheduler(Scheduler::Options{2});
  const std::uint64_t sweep_id = scheduler.submit(sweep_request(12));
  const std::uint64_t design_id = scheduler.submit(design_request(11));
  const JobResult sweep = scheduler.wait(sweep_id);
  const JobResult design = scheduler.wait(design_id);
  ASSERT_EQ(sweep.status, JobStatus::kDone) << sweep.error;
  ASSERT_EQ(design.status, JobStatus::kDone) << design.error;

  // The sweep's scenarios land in the sweep's shard and nowhere else.
  EXPECT_EQ(sweep.counters.scenarios_evaluated, 12u);
  EXPECT_EQ(design.counters.scenarios_evaluated, 0u);
  // The design's SA probes are its own; the sweep job runs no SA.
  EXPECT_GT(design.counters.cache_misses, 0u);
  EXPECT_EQ(sweep.counters.cache_misses, 1u);  // its one nominal evaluation
  // Both did real solver work under their own accounting.
  EXPECT_GT(sweep.counters.steady_solves, 0u);
  EXPECT_GT(design.counters.steady_solves, 0u);
  // Exactly one job completion billed to each session.
  EXPECT_EQ(sweep.counters.jobs_completed, 1u);
  EXPECT_EQ(design.counters.jobs_completed, 1u);

  // Manifests carry the session identity and differ between tenants.
  EXPECT_NE(sweep.manifest, design.manifest);
  EXPECT_NE(sweep.manifest.find("\"session\":"), std::string::npos);
  EXPECT_NE(design.manifest.find("\"git_sha\":"), std::string::npos);
}

TEST(ServiceIsolation, ConcurrentShardEqualsSoloShardSerially) {
  // At one pool thread every run is serial, so a session's shard must be
  // byte-identical between a solo scheduler run and a three-tenant run —
  // except wall-clock micros counters and the flow-plan hit/miss split:
  // tenants share the process-wide plan cache, so which of them analyzes a
  // plan first depends on scheduling. Their sum, the lookups, is fixed. Each
  // miss also builds one symbolic sparsity plan, so assemblies_symbolic is
  // compared less the misses.
  set_global_pool_threads(1);
  auto shard_print = [](instrument::Snapshot s) {
    s.assembly_micros = 0;
    s.assemblies_symbolic -= s.flow_plan_misses;
    s.flow_plan_hits = 0;
    s.flow_plan_misses = 0;
    return s.json();
  };
  auto plan_lookups = [](const instrument::Snapshot& s) {
    return s.flow_plan_hits + s.flow_plan_misses;
  };

  const JobRequest req = design_request(31);

  std::string solo_shard;
  std::uint64_t solo_lookups = 0;
  {
    Scheduler scheduler(Scheduler::Options{2});
    const JobResult solo = scheduler.wait(scheduler.submit(req));
    ASSERT_EQ(solo.status, JobStatus::kDone) << solo.error;
    solo_shard = shard_print(solo.counters);
    solo_lookups = plan_lookups(solo.counters);
  }
  {
    Scheduler scheduler(Scheduler::Options{3});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(scheduler.submit(req));
    for (const std::uint64_t id : ids) {
      const JobResult result = scheduler.wait(id);
      ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
      EXPECT_EQ(shard_print(result.counters), solo_shard);
      EXPECT_EQ(plan_lookups(result.counters), solo_lookups);
    }
  }
  set_global_pool_threads(0);
}

// ---------------------------------------------------------------------------
// Cancellation, deadlines, queue order, request bounds.

TEST(ServiceCancellation, MidSaCancelLeavesSchedulerServing) {
  Scheduler scheduler(Scheduler::Options{2});
  const std::uint64_t id = scheduler.submit(design_request(5, long_schedule()));
  wait_until_running(scheduler, id);
  EXPECT_TRUE(scheduler.cancel(id));
  const JobResult cancelled = scheduler.wait(id);
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  EXPECT_EQ(cancelled.error, "cancelled");
  EXPECT_EQ(cancelled.counters.jobs_cancelled, 1u);
  EXPECT_EQ(cancelled.counters.jobs_completed, 0u);

  // The scheduler is still healthy: a follow-up job runs to completion.
  const JobResult next = scheduler.wait(scheduler.submit(design_request(11)));
  EXPECT_EQ(next.status, JobStatus::kDone) << next.error;

  // Cancelling a finished job is a no-op.
  EXPECT_FALSE(scheduler.cancel(id));
}

TEST(ServiceCancellation, DeadlineExpiryCancelsCooperatively) {
  Scheduler scheduler(Scheduler::Options{2});
  JobRequest req = design_request(5, long_schedule());
  req.timeout_seconds = 0.3;
  const JobResult result = scheduler.wait(scheduler.submit(req));
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.error, "deadline exceeded");
}

TEST(ServiceCancellation, QueuedJobsCancelImmediately) {
  Scheduler scheduler(Scheduler::Options{2});
  // Fill both lanes, then queue a third job and cancel it before it starts.
  const std::uint64_t a = scheduler.submit(design_request(5, long_schedule()));
  const std::uint64_t b = scheduler.submit(design_request(6, long_schedule()));
  wait_until_running(scheduler, a);
  wait_until_running(scheduler, b);
  const std::uint64_t queued = scheduler.submit(design_request(7));
  EXPECT_EQ(scheduler.status(queued), JobStatus::kQueued);
  EXPECT_TRUE(scheduler.cancel(queued));
  const JobResult result = scheduler.wait(queued);
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.error, "cancelled before start");
  scheduler.cancel(a);
  scheduler.cancel(b);
}

TEST(ServiceCancellation, PreRaisedFlagThrowsCancelledNotRuntimeError) {
  // The Cancelled type must not be an lcn::RuntimeError: evaluators convert
  // RuntimeError into "this candidate is infeasible", which would swallow a
  // cancellation instead of unwinding the job.
  std::atomic<bool> cancel{true};
  TaskContext ctx;
  ctx.cancel = &cancel;
  ScopedTaskContext scope(&ctx);
  EXPECT_TRUE(task_cancelled());
  EXPECT_THROW(throw_if_cancelled(), Cancelled);
  try {
    throw_if_cancelled();
    FAIL() << "expected Cancelled";
  } catch (const RuntimeError&) {
    FAIL() << "Cancelled must not be caught as lcn::RuntimeError";
  } catch (const Cancelled&) {
  }
}

TEST(ServiceScheduling, QueuedJobsStartInSubmissionOrder) {
  Scheduler scheduler(Scheduler::Options{2});
  const std::uint64_t a = scheduler.submit(design_request(5, long_schedule()));
  const std::uint64_t b = scheduler.submit(design_request(6, long_schedule()));
  wait_until_running(scheduler, a);
  wait_until_running(scheduler, b);

  const std::uint64_t first_id = scheduler.submit(evaluate_request());
  const std::uint64_t second_id = scheduler.submit(evaluate_request());

  scheduler.cancel(a);
  scheduler.cancel(b);
  const JobResult second = scheduler.wait(second_id);
  const JobResult first = scheduler.wait(first_id);
  ASSERT_EQ(first.status, JobStatus::kDone) << first.error;
  ASSERT_EQ(second.status, JobStatus::kDone) << second.error;
  EXPECT_LT(first.start_order, second.start_order);
}

TEST(ServiceScheduling, SubmitRejectsOutOfBoundsSharesAndTimeout) {
  // A weight sum past INT_MAX and a deadline past steady_clock's range are
  // both undefined behaviour, so in-process requests are held to the wire
  // protocol's bounds before anything is queued.
  Scheduler scheduler(Scheduler::Options{2});
  for (const int shares : {-1, service::kMaxJobShares + 1,
                           std::numeric_limits<int>::max()}) {
    JobRequest req = evaluate_request();
    req.shares = shares;
    EXPECT_THROW(scheduler.submit(req), ContractError) << shares;
  }
  for (const double timeout :
       {-1.0, service::kMaxTimeoutSeconds * 2, 1e300,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    JobRequest req = evaluate_request();
    req.timeout_seconds = timeout;
    EXPECT_THROW(scheduler.submit(req), ContractError) << timeout;
  }
  EXPECT_TRUE(scheduler.jobs().empty());

  // The bounds themselves are accepted, and the job is not cancelled by a
  // deadline it was never given.
  JobRequest edge = evaluate_request();
  edge.shares = service::kMaxJobShares;
  edge.timeout_seconds = service::kMaxTimeoutSeconds;
  const JobResult result = scheduler.wait(scheduler.submit(edge));
  EXPECT_EQ(result.status, JobStatus::kDone) << result.error;
}

TEST(ServiceScheduling, MalformedJobHistoryIsAnErrorNamingTheVariable) {
  for (const char* bad : {"0", "x", "1000001"}) {
    setenv("LCN_JOB_HISTORY", bad, 1);
    try {
      Scheduler scheduler(Scheduler::Options{2});
      ADD_FAILURE() << "accepted LCN_JOB_HISTORY=" << bad;
    } catch (const RuntimeError& error) {
      EXPECT_NE(std::string(error.what()).find("LCN_JOB_HISTORY"),
                std::string::npos)
          << error.what();
    }
  }
  unsetenv("LCN_JOB_HISTORY");
}

TEST(ServiceScheduling, DrainRunsEverythingAndRejectsNewWork) {
  Scheduler scheduler(Scheduler::Options{2});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(scheduler.submit(evaluate_request()));
  scheduler.drain();
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(scheduler.status(id), JobStatus::kDone);
  }
  EXPECT_EQ(scheduler.submit(evaluate_request()), 0u);
  const auto jobs = scheduler.jobs();
  EXPECT_EQ(jobs.size(), 4u);
}

// ---------------------------------------------------------------------------
// Progress streaming.

class RecordingSink : public ProgressSink {
 public:
  void bind_job(std::uint64_t id) override { job_id = id; }
  void emit(const char* name, const char* args) override {
    std::lock_guard<std::mutex> lock(mutex);
    events.emplace_back(name, args != nullptr ? args : "");
  }

  std::uint64_t job_id = 0;
  std::mutex mutex;
  std::vector<std::pair<std::string, std::string>> events;
};

TEST(ServiceProgress, SaIterEventsStreamToTheSessionSink) {
  Scheduler scheduler(Scheduler::Options{2});
  RecordingSink sink;
  const std::uint64_t id = scheduler.submit(design_request(11), &sink);
  EXPECT_EQ(sink.job_id, id);
  const JobResult result = scheduler.wait(id);
  ASSERT_EQ(result.status, JobStatus::kDone) << result.error;

  // wait() unblocks when the result is stored, a moment before the runner
  // emits job_done; give the final event a beat to arrive.
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> lock(sink.mutex);
      if (!sink.events.empty() && sink.events.back().first == "job_done")
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::lock_guard<std::mutex> lock(sink.mutex);
  ASSERT_GE(sink.events.size(), 3u);
  EXPECT_EQ(sink.events.front().first, "job_started");
  EXPECT_EQ(sink.events.back().first, "job_done");
  std::size_t sa_iters = 0;
  for (const auto& [name, args] : sink.events) {
    if (name == "sa_iter") {
      ++sa_iters;
      EXPECT_NE(args.find("\"stage\":"), std::string::npos);
      EXPECT_NE(args.find("\"best\":"), std::string::npos);
      EXPECT_NE(args.find("\"cache_hit_rate\":"), std::string::npos);
    }
  }
  // Two stages x 3 iterations of the short schedule.
  EXPECT_EQ(sa_iters, 6u);
}

// An infeasible design scores +inf, which JSON cannot hold: the streamed
// sa_iter args and the result line must write null there and still parse.
TEST(ServiceProgress, InfeasibleScoresStreamAsJsonNull) {
  Scheduler scheduler(Scheduler::Options{1});
  RecordingSink sink;
  JobRequest request = design_request(11);
  auto bench = std::make_shared<BenchmarkCase>(service_case());
  bench->constraints.delta_t_max = 0.5;  // no tree meets it
  request.custom_case = std::move(bench);
  const std::uint64_t id = scheduler.submit(request, &sink);
  const JobResult result = scheduler.wait(id);
  ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.score, std::numeric_limits<double>::infinity());

  service::JsonObject obj;
  std::string error;
  std::size_t null_scores = 0;
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    for (const auto& [name, args] : sink.events) {
      if (name != "sa_iter") continue;
      ASSERT_TRUE(service::parse_json_object("{" + args + "}", obj, error))
          << error << ": " << args;
      EXPECT_TRUE(obj.has("stage")) << args;
      if (!obj.has("best")) ++null_scores;  // null parses as absent
    }
  }
  EXPECT_GT(null_scores, 0u);

  // The flat head of the result line; the nested counters and metrics are
  // composed from fragments that are valid JSON already.
  const std::string line = service::result_json(id, result);
  const std::size_t nested = line.find(",\"counters\":");
  ASSERT_NE(nested, std::string::npos) << line;
  ASSERT_TRUE(
      service::parse_json_object(line.substr(0, nested) + "}", obj, error))
      << error << ": " << line;
  EXPECT_NE(line.find("\"score\":null"), std::string::npos) << line;
  EXPECT_FALSE(obj.has("score"));
  EXPECT_TRUE(obj.has("p_sys"));
}

/// The "probes" arg of every sa_iter event a sink received, in order.
std::vector<std::string> streamed_probes(RecordingSink& sink) {
  std::lock_guard<std::mutex> lock(sink.mutex);
  std::vector<std::string> probes;
  for (const auto& [name, args] : sink.events) {
    if (name != "sa_iter") continue;
    const std::size_t at = args.find("\"probes\":");
    EXPECT_NE(at, std::string::npos) << args;
    if (at == std::string::npos) continue;
    const std::size_t end = args.find_first_of(",}", at);
    probes.push_back(args.substr(at, end - at));
  }
  return probes;
}

TEST(ServiceProgress, StreamedProbesIgnoreConcurrentTenants) {
  // Per-iteration pressure probes are read from the job's own shard, so a
  // streamed job reports the same sequence beside two busy design jobs as it
  // does alone.
  std::vector<std::string> solo;
  {
    Scheduler scheduler(Scheduler::Options{3});
    RecordingSink sink;
    const JobResult result =
        scheduler.wait(scheduler.submit(design_request(11), &sink));
    ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
    solo = streamed_probes(sink);
  }
  ASSERT_EQ(solo.size(), 6u);

  // Full-evaluation neighbours, so the tenants probe pressures throughout.
  const std::vector<SaStage> busy = {
      {"busy", 5000, 1, 2, 4, fast_sim(), false, 1}};
  Scheduler scheduler(Scheduler::Options{3});
  std::vector<std::uint64_t> background;
  for (const std::uint64_t seed : {5u, 6u}) {
    background.push_back(scheduler.submit(design_request(seed, busy)));
    wait_until_running(scheduler, background.back());
  }
  RecordingSink sink;
  const JobResult result =
      scheduler.wait(scheduler.submit(design_request(11), &sink));
  ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
  for (const std::uint64_t id : background) {
    scheduler.cancel(id);
    scheduler.wait(id);
  }
  EXPECT_EQ(streamed_probes(sink), solo);
}

TEST(ServiceProgress, ScenarioJobStreamsPerStepSamples) {
  Scheduler scheduler(Scheduler::Options{2});
  RecordingSink sink;

  JobRequest req;
  req.kind = JobKind::kScenario;
  req.sim = fast_sim();
  auto bench = std::make_shared<BenchmarkCase>(service_case());
  bench->constraints.delta_t_max = 30.0;
  req.custom_case = std::move(bench);
  auto scenario = std::make_shared<ScenarioConfig>();
  scenario->sim = fast_sim();
  scenario->dt = 2e-3;
  scenario->steps = 12;
  scenario->pump.p_fixed = 2000.0;
  req.custom_scenario = scenario;

  const std::uint64_t id = scheduler.submit(std::move(req), &sink);
  const JobResult result = scheduler.wait(id);
  ASSERT_EQ(result.status, JobStatus::kDone) << result.error;
  EXPECT_EQ(result.scenario_steps, 12u);
  EXPECT_GT(result.peak_t_max, 300.0);
  EXPECT_GT(result.t_max, 300.0);
  EXPECT_EQ(result.evaluations, 12u);
  EXPECT_EQ(result.counters.scenario_steps, 12u);

  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> lock(sink.mutex);
      if (!sink.events.empty() && sink.events.back().first == "job_done")
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> lock(sink.mutex);
  std::size_t steps_seen = 0;
  for (const auto& [name, args] : sink.events) {
    if (name == "scenario_step") {
      ++steps_seen;
      EXPECT_NE(args.find("\"t_max\":"), std::string::npos);
      EXPECT_NE(args.find("\"inlet\":"), std::string::npos);
    }
  }
  EXPECT_EQ(steps_seen, 12u);
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ServiceProtocol, FlatJsonRoundTripsTypesAndEscapes) {
  service::JsonObject obj;
  std::string error;
  ASSERT_TRUE(service::parse_json_object(
      R"({"s":"a\"b\\c\nd","n":-2.5e3,"i":42,"t":true,"f":false,"z":null})",
      obj, error))
      << error;
  EXPECT_EQ(obj.get_string("s"), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(obj.get_number("n"), -2500.0);
  EXPECT_EQ(obj.get_int("i"), 42);
  EXPECT_TRUE(obj.get_bool("t"));
  EXPECT_FALSE(obj.get_bool("f"));
  EXPECT_FALSE(obj.has("z"));  // null == absent
  EXPECT_EQ(obj.get_int("missing", -7), -7);

  const std::string escaped = service::json_escape("line\none\t\"q\"\\");
  EXPECT_EQ(escaped, "line\\none\\t\\\"q\\\"\\\\");

  EXPECT_FALSE(service::parse_json_object("{\"a\":{}}", obj, error));
  EXPECT_FALSE(service::parse_json_object("[1,2]", obj, error));
  EXPECT_FALSE(service::parse_json_object("{\"a\":1,}", obj, error));
  EXPECT_FALSE(service::parse_json_object("{\"a\":1} extra", obj, error));
}

TEST(ServiceProtocol, ExactIntegersSurviveBeyondDoublePrecision) {
  service::JsonObject obj;
  std::string error;
  // 2^63 + 1 is not representable as a double; the raw token must carry it.
  ASSERT_TRUE(service::parse_json_object(
      R"({"seed":9223372036854775809,"neg":-4,"frac":1.5,"exp":1e3})", obj,
      error))
      << error;
  std::uint64_t value = 0;
  EXPECT_EQ(obj.get_uint64("seed", value), service::JsonObject::IntStatus::kOk);
  EXPECT_EQ(value, 9223372036854775809ULL);
  EXPECT_EQ(obj.get_uint64("neg", value),
            service::JsonObject::IntStatus::kBad);
  EXPECT_EQ(obj.get_uint64("frac", value),
            service::JsonObject::IntStatus::kBad);
  EXPECT_EQ(obj.get_uint64("exp", value),
            service::JsonObject::IntStatus::kBad);
  EXPECT_EQ(obj.get_uint64("absent", value),
            service::JsonObject::IntStatus::kMissing);
  // One digit past UINT64_MAX overflows and must be rejected, not wrapped.
  ASSERT_TRUE(
      service::parse_json_object(R"({"big":184467440737095516160})", obj,
                                 error))
      << error;
  EXPECT_EQ(obj.get_uint64("big", value),
            service::JsonObject::IntStatus::kBad);

  // The same contract at the request layer: exact seeds in, bad seeds out.
  service::Request request;
  ASSERT_TRUE(service::parse_request(
      R"({"op":"submit","kind":"evaluate","seed":18446744073709551615})",
      request, error))
      << error;
  EXPECT_EQ(request.job.seed, 18446744073709551615ULL);
  EXPECT_FALSE(service::parse_request(
      R"({"op":"submit","kind":"evaluate","seed":-1})", request, error));
  EXPECT_FALSE(service::parse_request(R"({"op":"status","job":-3})", request,
                                      error));
  EXPECT_FALSE(service::parse_request(R"({"op":"status","job":2.5})", request,
                                      error));
}

TEST(ServiceProtocol, RequestParsingValidatesFields) {
  service::Request request;
  std::string error;
  ASSERT_TRUE(service::parse_request(
      R"({"op":"submit","kind":"design","case":3,"objective":"p2",)"
      R"("scale":0.2,"seed":9,"shares":2,"timeout":30,)"
      R"("stream":true,"name":"tenant-a"})",
      request, error))
      << error;
  EXPECT_EQ(request.op, service::Request::Op::kSubmit);
  EXPECT_EQ(request.job.kind, JobKind::kDesign);
  EXPECT_EQ(request.job.case_id, 3);
  EXPECT_EQ(request.job.objective, DesignObjective::kThermalGradient);
  EXPECT_DOUBLE_EQ(request.job.scale, 0.2);
  EXPECT_EQ(request.job.seed, 9u);
  EXPECT_EQ(request.job.shares, 2);
  EXPECT_DOUBLE_EQ(request.job.timeout_seconds, 30.0);
  EXPECT_TRUE(request.stream);
  EXPECT_EQ(request.job.name, "tenant-a");

  // Retired fields are unknown keys now, and unknown keys are ignored.
  EXPECT_TRUE(service::parse_request(
      R"({"op":"submit","priority":5,"private_flow_plans":true})", request,
      error))
      << error;

  // shares and timeout are bounded; the error names the field.
  for (const char* line :
       {R"({"op":"submit","shares":2147483647})",
        R"({"op":"submit","shares":1025})",
        R"({"op":"submit","shares":-1})"}) {
    EXPECT_FALSE(service::parse_request(line, request, error)) << line;
    EXPECT_NE(error.find("shares"), std::string::npos) << error;
  }
  for (const char* line :
       {R"({"op":"submit","timeout":1e300})",
        R"({"op":"submit","timeout":1e999})",
        R"({"op":"submit","timeout":1000001})",
        R"({"op":"submit","timeout":-1})"}) {
    EXPECT_FALSE(service::parse_request(line, request, error)) << line;
    EXPECT_NE(error.find("timeout"), std::string::npos) << error;
  }
  ASSERT_TRUE(service::parse_request(
      R"({"op":"submit","shares":1024,"timeout":1e6})", request, error))
      << error;
  EXPECT_EQ(request.job.shares, 1024);
  EXPECT_DOUBLE_EQ(request.job.timeout_seconds, 1e6);

  // Scenario jobs carry their NDJSON description as one escaped string.
  ASSERT_TRUE(service::parse_request(
      R"({"op":"submit","kind":"scenario",)"
      R"("scenario":"{\"type\":\"scenario\",\"steps\":5}\n"})",
      request, error))
      << error;
  EXPECT_EQ(request.job.kind, JobKind::kScenario);
  EXPECT_EQ(request.job.scenario_text,
            "{\"type\":\"scenario\",\"steps\":5}\n");
  // ...and are rejected without one.
  EXPECT_FALSE(service::parse_request(
      R"({"op":"submit","kind":"scenario"})", request, error));

  ASSERT_TRUE(
      service::parse_request(R"({"op":"cancel","job":7})", request, error));
  EXPECT_EQ(request.op, service::Request::Op::kCancel);
  EXPECT_EQ(request.job_id, 7u);

  EXPECT_FALSE(service::parse_request(R"({"op":"submit","case":9})", request,
                                      error));
  EXPECT_FALSE(service::parse_request(R"({"op":"nope"})", request, error));
  EXPECT_FALSE(service::parse_request(R"({"op":"status"})", request, error));
  EXPECT_FALSE(service::parse_request("not json", request, error));
}

TEST(ServiceProtocol, ResultJsonCarriesScoresCountersAndManifest) {
  JobResult result;
  result.status = JobStatus::kDone;
  result.feasible = true;
  result.score = 0.125;
  result.p_sys = 11187.5;
  result.w_pump = 0.125;
  result.t_max = 340.25;
  result.delta_t = 9.5;
  result.design_hash = 0xdeadbeefULL;
  result.evaluations = 42;
  result.start_order = 3;
  result.manifest = "{\"session\":1}";
  const std::string line = service::result_json(9, result);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"job\":9"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(line.find("\"design_hash\":\"00000000deadbeef\""),
            std::string::npos);
  EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(line.find("\"manifest\":{\"session\":1}"), std::string::npos);

  JobResult failed;
  failed.status = JobStatus::kFailed;
  failed.error = "boom \"quoted\"";
  const std::string failed_line = service::result_json(2, failed);
  EXPECT_NE(failed_line.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(failed_line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(failed_line.find("\"score\""), std::string::npos);
}

}  // namespace
}  // namespace lcn
