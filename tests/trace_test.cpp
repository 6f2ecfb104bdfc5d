// Tests for the structured tracing subsystem (DESIGN.md §S19): the disabled
// path emits nothing at any pool width, enabled spans round-trip through the
// JSONL sink with correct begin/end pairing and per-thread monotonic
// timestamps, ring overflow is accounted — never silently lost — SA stage
// spans name their thermal model and cost mode, one scope feeds its span and
// its histogram from the same two clock reads, and every assembly is traced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/manifest.hpp"
#include "common/metrics.hpp"
#include "common/task_context.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "network/generators.hpp"
#include "opt/sa.hpp"
#include "scenario/scenario.hpp"

namespace lcn {
namespace {

std::string temp_trace_path(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / (std::string("lcn_trace_test_") + tag + ".jsonl")).string();
}

/// Minimal JSONL field extraction for the trace's fixed emission format
/// (write_event in trace.cpp): no nested quoting outside "args".
std::string extract_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  return line.substr(start, end - start);
}

std::uint64_t extract_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::stoull(line.substr(pos + needle.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace::stop();  // idempotent; never leak an active sink between tests
    trace::set_level(trace::kCoarse);
    set_global_pool_threads(0);
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(path_, ec);
    }
  }
  std::string path_;
};

TEST_F(TraceTest, DisabledPathEmitsNothingAtAnyPoolWidth) {
  ASSERT_FALSE(trace::active());
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_global_pool_threads(threads);
    const instrument::Snapshot before = instrument::snapshot();
    {
      const trace::Span outer("outer");
      const trace::Span outer_fine("outer_fine", trace::kFine);
      global_pool().parallel_for(64, [](std::size_t) {
        const trace::Span worker("worker");
        trace::emit_instant("tick", trace::kCoarse, "\"x\":1");
      });
    }
    const instrument::Snapshot d =
        instrument::delta(before, instrument::snapshot());
    EXPECT_EQ(d.trace_events_emitted, 0u) << "threads=" << threads;
    EXPECT_EQ(d.trace_events_dropped, 0u) << "threads=" << threads;
  }
}

TEST_F(TraceTest, SpanNestingRoundTripsThroughJsonlSink) {
  path_ = temp_trace_path("roundtrip");
  set_global_pool_threads(4);

  trace::TraceConfig config;
  config.path = path_;
  trace::set_level(trace::kFine);
  config.background_flush = false;  // deterministic: drain only at stop()
  const instrument::Snapshot before = instrument::snapshot();
  trace::start(config);
  ASSERT_TRUE(trace::active());
  {
    const trace::Span outer("outer");
    {
      const trace::Span inner("inner", trace::kFine);
      trace::emit_instant("marker", trace::kCoarse, "\"k\":42");
    }
    global_pool().parallel_for(16, [](std::size_t) {
      const trace::Span worker("worker");
      const trace::Span worker_inner("worker_inner", trace::kFine);
    });
    trace::Span with_args("tail");
    with_args.set_args("\"n\":7");
  }
  trace::stop();
  ASSERT_FALSE(trace::active());
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(d.trace_events_dropped, 0u);

  const std::vector<std::string> lines = read_lines(path_);
  ASSERT_GE(lines.size(), 2u);

  // Header: the manifest line stamps the trace with build provenance.
  EXPECT_EQ(extract_string(lines[0], "ph"), "M");
  EXPECT_EQ(extract_string(lines[0], "name"), "manifest");
  EXPECT_NE(lines[0].find("\"git_sha\""), std::string::npos);

  // Every event line must parse; B/E must pair up as a stack per tid and
  // timestamps must be monotone non-decreasing per tid (ring FIFO order).
  std::map<std::uint64_t, std::vector<std::string>> stacks;
  std::map<std::uint64_t, std::uint64_t> last_ts;
  std::size_t events = 0;
  bool saw_marker = false;
  bool saw_tail_args = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::string ph = extract_string(line, "ph");
    const std::string name = extract_string(line, "name");
    ASSERT_FALSE(ph.empty()) << line;
    ASSERT_FALSE(name.empty()) << line;
    const std::uint64_t tid = extract_u64(line, "tid");
    const std::uint64_t ts = extract_u64(line, "ts_ns");
    ++events;
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "non-monotonic ts on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "E without B: " << line;
      EXPECT_EQ(stacks[tid].back(), name) << "mismatched nesting: " << line;
      stacks[tid].pop_back();
      if (name == "tail") {
        saw_tail_args = line.find("\"args\":{\"n\":7}") != std::string::npos;
      }
    } else if (ph == "i" && name == "marker") {
      saw_marker = line.find("\"k\":42") != std::string::npos;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span(s) on tid " << tid;
  }
  EXPECT_TRUE(saw_marker);
  EXPECT_TRUE(saw_tail_args);
  // 3 main-thread spans (B+E) + marker + 16 worker span pairs * 2 levels.
  EXPECT_EQ(events, d.trace_events_emitted);
  EXPECT_EQ(events, 3u * 2u + 1u + 16u * 2u * 2u);
}

TEST_F(TraceTest, RingOverflowIsCountedNotLost) {
  path_ = temp_trace_path("overflow");
  trace::TraceConfig config;
  config.path = path_;
  trace::set_level(trace::kCoarse);
  config.ring_capacity = 8;
  config.background_flush = false;  // nothing drains while we overflow
  const instrument::Snapshot before = instrument::snapshot();
  trace::start(config);
  for (int i = 0; i < 30; ++i) {
    trace::emit_instant("burst", trace::kCoarse);
  }
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(d.trace_events_emitted, 8u);
  EXPECT_EQ(d.trace_events_dropped, 22u);
  trace::stop();

  // The sink holds the manifest plus exactly the events that fit the ring.
  const std::vector<std::string> lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_EQ(extract_string(lines[0], "ph"), "M");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(extract_string(lines[i], "name"), "burst");
  }
}

TEST_F(TraceTest, FlushDrainsMidSessionAndRestartReusesThreads) {
  path_ = temp_trace_path("restart");
  trace::TraceConfig config;
  config.path = path_;
  config.background_flush = false;
  trace::start(config);
  trace::emit_instant("first", trace::kCoarse);
  trace::flush();
  EXPECT_EQ(read_lines(path_).size(), 2u);  // manifest + first
  trace::stop();

  // Restarting must re-register this thread's ring (fresh session), not
  // write through a stale pointer into freed memory.
  trace::start(config);
  trace::emit_instant("second", trace::kCoarse);
  trace::stop();
  const std::vector<std::string> lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 2u);  // "w" mode truncates: manifest + second
  EXPECT_EQ(extract_string(lines[1], "name"), "second");
}

TEST_F(TraceTest, SaStageSpansCarryModelAndCost) {
  path_ = temp_trace_path("sa_stage");
  BenchmarkCase bench;
  bench.name = "trace-tiny";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 4.4, 11));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 3.6, 12));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;
  const SimConfig fast{ThermalModelKind::k2RM, 3};
  const SimConfig accurate{ThermalModelKind::k4RM, 1};
  const std::vector<SaStage> stages = {
      {"t-accurate", 1, 1, 1, 2, accurate, false, 1},
      {"t-fixed", 1, 1, 2, 4, fast, true, 1},
      {"t-grouped", 2, 1, 2, 4, fast, false, 2}};
  const std::map<std::string, std::pair<std::string, std::string>> expected =
      {{"t-accurate", {"4RM", "full eval"}},
       {"t-fixed", {"2RM m=3", "dT @ fixed P"}},
       {"t-grouped", {"2RM m=3", "grouped/2"}}};

  trace::TraceConfig config;
  config.path = path_;
  config.background_flush = false;
  trace::start(config);
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 5);
  opt.run(stages);
  trace::stop();

  std::map<std::string, std::string> stage_args;
  std::map<std::string, std::vector<std::string>> round_args;
  for (const std::string& line : read_lines(path_)) {
    if (extract_string(line, "ph") != "E") continue;
    const std::string name = extract_string(line, "name");
    if (name == "sa_stage") stage_args[extract_string(line, "stage")] = line;
    if (name == "sa_round") {
      round_args[extract_string(line, "stage")].push_back(line);
    }
  }
  ASSERT_EQ(stage_args.size(), stages.size());
  for (const SaStage& stage : stages) {
    const std::string& line = stage_args[stage.name];
    const auto& [model, cost] = expected.at(stage.name);
    EXPECT_EQ(extract_string(line, "model"), model) << line;
    EXPECT_EQ(extract_string(line, "cost"), cost) << line;
    // The span and format_stages share one labelling helper.
    const StageLabels labels = stage_labels(stage);
    EXPECT_EQ(labels.model, model);
    EXPECT_EQ(labels.cost, cost);
    // Every sa_round span of the stage carries the same labels and its
    // round index, in order.
    const std::vector<std::string>& rounds = round_args[stage.name];
    ASSERT_EQ(rounds.size(), static_cast<std::size_t>(stage.rounds));
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      EXPECT_EQ(extract_string(rounds[r], "model"), model) << rounds[r];
      EXPECT_EQ(extract_string(rounds[r], "cost"), cost) << rounds[r];
      EXPECT_EQ(extract_u64(rounds[r], "round"), r) << rounds[r];
    }
  }
}

TEST_F(TraceTest, OneScopeFeedsSpanAndHistogramFromTheSameClockReads) {
  path_ = temp_trace_path("scope");
  metrics::MetricShard shard;
  TaskContext ctx;
  ctx.telemetry = &shard;
  const ScopedTaskContext scope(&ctx);
  struct Site {
    const char* name;
    int span_level;
    metrics::Hist hist;
    int hist_level;
  };
  const Site sites[] = {
      {"fine_scope", trace::kFine, metrics::Hist::ilu_factor_seconds,
       trace::kFine},
      {"coarse_scope", trace::kCoarse, metrics::Hist::cg_seconds,
       trace::kCoarse}};
  for (const Site& site : sites) {
    for (const int level : {trace::kCoarse, trace::kFine}) {
      for (const bool sink : {false, true}) {
        const std::string where = std::string(site.name) + " level " +
                                  std::to_string(level) +
                                  (sink ? " traced" : " untraced");
        trace::set_level(level);
        trace::TraceConfig config;
        config.path = path_;
        config.background_flush = false;
        if (sink) trace::start(config);
        const metrics::HistogramSnapshot before =
            shard.snapshot().hist(site.hist);
        {
          const trace::Span span(site.name, site.span_level, site.hist);
        }
        const metrics::HistogramSnapshot after =
            shard.snapshot().hist(site.hist);
        trace::stop();

        const bool observed = level >= site.hist_level;
        const bool traced = sink && level >= site.span_level;
        EXPECT_EQ(after.count - before.count, observed ? 1u : 0u) << where;
        std::vector<std::uint64_t> begins;
        std::vector<std::uint64_t> ends;
        for (const std::string& line :
             sink ? read_lines(path_) : std::vector<std::string>{}) {
          if (extract_string(line, "name") != site.name) continue;
          const std::string ph = extract_string(line, "ph");
          (ph == "B" ? begins : ends).push_back(extract_u64(line, "ts_ns"));
        }
        ASSERT_EQ(begins.size(), traced ? 1u : 0u) << where;
        ASSERT_EQ(ends.size(), begins.size()) << where;
        if (traced && observed) {
          EXPECT_EQ(ends[0] - begins[0], after.sum_nanos - before.sum_nanos)
              << where;
        }
      }
    }
  }
}

TEST_F(TraceTest, EveryScenarioAssemblyIsTraced) {
  path_ = temp_trace_path("assembly");
  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.push_back(synthesize_power_map(problem.grid, 4.0, 21));
  problem.source_power.push_back(synthesize_power_map(problem.grid, 3.0, 22));
  const CoolingNetwork net = make_straight_channels(problem.grid);
  // A thermostat pump moves the pressure, so the engine re-assembles its
  // system through the plan on many steps.
  ScenarioConfig config;
  config.sim = SimConfig{ThermalModelKind::k2RM, 3};
  config.dt = 2e-3;
  config.steps = 20;
  config.pump.kind = PumpPolicyKind::kThermostat;
  config.pump.p_fixed = 3000.0;
  config.pump.t_target = 305.0;
  config.pump.gain = 400.0;

  trace::set_level(trace::kFine);
  trace::TraceConfig trace_config;
  trace_config.path = path_;
  trace_config.ring_capacity = std::size_t{1} << 16;
  trace::start(trace_config);
  const instrument::Snapshot before = instrument::snapshot();
  run_scenario(problem, net, config);
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  trace::stop();

  std::uint64_t assembly_ends = 0;
  for (const std::string& line : read_lines(path_)) {
    if (extract_string(line, "ph") == "E" &&
        extract_string(line, "name").rfind("assemble_", 0) == 0) {
      ++assembly_ends;
    }
  }
  EXPECT_EQ(d.trace_events_dropped, 0u);
  EXPECT_GT(d.assemblies, 1u);
  EXPECT_EQ(assembly_ends, d.assemblies);
}

TEST(Manifest, ProvidesBuildProvenance) {
  const RunManifest& m = run_manifest();
  EXPECT_FALSE(m.git_sha.empty());  // real SHA or the "unknown" backfill
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_GT(m.hardware_threads, 0);
  const std::string json = m.json();
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\""), std::string::npos);
  EXPECT_NE(json.find("\"lcn_threads\""), std::string::npos);
}

}  // namespace
}  // namespace lcn
