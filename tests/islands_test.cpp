// Determinism suite for island SA (DESIGN.md §S21): a K=1 island run with
// migration off reproduces the plain single-chain optimizer exactly; a K=4
// migrating run — best design, Pareto archive, migration log, counters — is
// bit-identical at any thread count; and migration decisions replay exactly
// from the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "network/generators.hpp"
#include "opt/islands.hpp"
#include "opt/sa.hpp"
#include "service/json.hpp"

namespace lcn {
namespace {

BenchmarkCase island_case(double watts = 8.0) {
  BenchmarkCase bench;
  bench.id = 97;
  bench.name = "island-unit";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  // Same power distribution as opt_test's small_case: the problem is
  // feasible at ΔT* = 12, so pressure searches terminate quickly on every
  // design any chain can reach (hot-spot seeds that make the case
  // infeasible send each probe into a 60-probe Krylov grind).
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.55 * watts, 11));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.45 * watts, 12));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;
  return bench;
}

SimConfig fast_sim() { return SimConfig{ThermalModelKind::k2RM, 3}; }

// A short two-stage schedule covering both cost modes of Problem 1
// (fixed-pressure stage-1 cost, then the full pressure search).
std::vector<SaStage> p1_schedule() {
  std::vector<SaStage> stages;
  stages.push_back({"u1-fixedP", 3, 1, 2, 4, fast_sim(), true, 1});
  stages.push_back({"u2-full", 3, 1, 2, 4, fast_sim(), false, 1});
  return stages;
}

// Problem-2 schedule with grouped iterations (leader/follower probes).
std::vector<SaStage> p2_schedule() {
  std::vector<SaStage> stages;
  stages.push_back({"g1", 4, 1, 2, 4, fast_sim(), false, 2});
  return stages;
}

// The deterministic fingerprint of an island run: everything the §S21
// contract pins down. Cache hit/miss totals are deliberately absent — with
// several workers two chains can miss on the same key concurrently, so
// those totals are the one documented thread-count-dependent quantity.
struct RunPrint {
  std::uint64_t best_design = 0;
  double best_score = 0.0;
  int best_island = 0;
  std::size_t evaluations = 0;
  std::vector<std::uint64_t> island_designs;
  std::vector<double> island_scores;
  std::uint64_t migrations = 0;
  std::uint64_t migration_attempts = 0;
  std::vector<CommEvent> events;
  std::string archive;
  std::uint64_t archive_inserts = 0;

  friend bool operator==(const RunPrint&, const RunPrint&) = default;
};

RunPrint run_print(const IslandOutcome& out) {
  RunPrint print;
  print.best_design = out.best.network.content_hash();
  print.best_score = out.best.eval.score;
  print.best_island = out.best_island;
  print.evaluations = out.best.evaluations;
  print.island_designs = out.island_designs;
  print.island_scores = out.island_scores;
  print.migrations = out.migrations;
  print.migration_attempts = out.migration_attempts;
  print.events = out.events;
  print.archive = out.archive.to_jsonl();
  print.archive_inserts = out.archive.inserted();
  return print;
}

IslandOptions communicating_options() {
  IslandOptions options;
  options.islands = 4;
  options.migration_period = 2;
  return options;
}

TEST(Islands, SoloIslandMatchesPlainOptimizerBitExactly) {
  const BenchmarkCase bench = island_case();
  const std::vector<SaStage> stages = p1_schedule();

  TreeTopologyOptimizer plain(bench, DesignObjective::kPumpingPower, 11);
  const DesignOutcome reference = plain.run(stages);

  IslandOptions solo;  // islands = 1, migration off
  IslandOptimizer islands(bench, DesignObjective::kPumpingPower, solo, 11);
  const IslandOutcome outcome = islands.run(stages);

  EXPECT_EQ(outcome.best.network.content_hash(),
            reference.network.content_hash());
  EXPECT_EQ(outcome.best.direction, reference.direction);
  EXPECT_EQ(outcome.best.evaluations, reference.evaluations);
  EXPECT_DOUBLE_EQ(outcome.best.eval.score, reference.eval.score);
  EXPECT_DOUBLE_EQ(outcome.best.eval.p_sys, reference.eval.p_sys);
  EXPECT_DOUBLE_EQ(outcome.best.eval.w_pump, reference.eval.w_pump);
  // A lone chain never communicates.
  EXPECT_EQ(outcome.best_island, 0);
  EXPECT_TRUE(outcome.events.empty());
  EXPECT_EQ(outcome.migration_attempts, 0u);
  ASSERT_EQ(outcome.island_designs.size(), 1u);
  EXPECT_EQ(outcome.island_designs[0], reference.network.content_hash());
  EXPECT_FALSE(outcome.archive.empty());
}

TEST(Islands, SoloIslandMatchesPlainOnProblem2GroupedStages) {
  const BenchmarkCase bench = island_case();
  const std::vector<SaStage> stages = p2_schedule();

  TreeTopologyOptimizer plain(bench, DesignObjective::kThermalGradient, 7);
  const DesignOutcome reference = plain.run(stages);

  IslandOptimizer islands(bench, DesignObjective::kThermalGradient,
                          IslandOptions{}, 7);
  const IslandOutcome outcome = islands.run(stages);
  EXPECT_EQ(outcome.best.network.content_hash(),
            reference.network.content_hash());
  EXPECT_EQ(outcome.best.evaluations, reference.evaluations);
  EXPECT_DOUBLE_EQ(outcome.best.eval.score, reference.eval.score);
}

TEST(Islands, CommunicationReplaysExactlyFromTheSeed) {
  const BenchmarkCase bench = island_case();
  const std::vector<SaStage> stages = p1_schedule();
  const IslandOptions options = communicating_options();

  IslandOptimizer a(bench, DesignObjective::kPumpingPower, options, 37);
  IslandOptimizer b(bench, DesignObjective::kPumpingPower, options, 37);
  const RunPrint first = run_print(a.run(stages));
  const RunPrint second = run_print(b.run(stages));
  EXPECT_EQ(first, second);

  // The event log is structurally sound: donors never self-donate, and the
  // accepted flags reconcile with the counters.
  std::uint64_t migrations = 0;
  for (const CommEvent& e : first.events) {
    EXPECT_NE(e.from, e.to);
    EXPECT_GE(e.from, 0);
    EXPECT_LT(e.from, options.islands);
    if (e.accepted) ++migrations;
  }
  EXPECT_EQ(migrations, first.migrations);
  EXPECT_EQ(first.events.size(), first.migration_attempts);
  EXPECT_GT(first.migration_attempts, 0u);
  // Attempts are schedule-determined: every island attempts a migration at
  // each migration point regardless of acceptance.
  EXPECT_EQ(first.migration_attempts % options.islands, 0u);
}

TEST(Islands, DisabledCommunicationLeavesNoTrace) {
  const BenchmarkCase bench = island_case();
  IslandOptions options;
  options.islands = 2;  // K > 1 but no migration
  IslandOptimizer opt(bench, DesignObjective::kPumpingPower, options, 3);
  const IslandOutcome out = opt.run(p1_schedule());
  EXPECT_TRUE(out.events.empty());
  EXPECT_EQ(out.migration_attempts, 0u);
  ASSERT_EQ(out.island_designs.size(), 2u);
}

/// True when a trace line is one JSON object: the fixed event fields and,
/// when present, the flat "args" object (the trace never nests deeper).
bool trace_line_parses(const std::string& line) {
  service::JsonObject parsed;
  std::string error;
  const std::string marker = ",\"args\":{";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) {
    return service::parse_json_object(line, parsed, error);
  }
  const std::size_t open = at + marker.size() - 1;  // the args object's '{'
  if (line.size() < open + 3 || line.compare(line.size() - 2, 2, "}}") != 0) {
    return false;
  }
  const std::string args = line.substr(open, line.size() - 1 - open);
  return service::parse_json_object(line.substr(0, at) + "}", parsed,
                                    error) &&
         service::parse_json_object(args, parsed, error);
}

TEST(Islands, InfeasibleSignoffTracesNullScore) {
  // A ΔT* no design can meet: every chain's 4RM sign-off is infeasible and
  // scores +inf, which the sa_island span must carry as JSON null.
  BenchmarkCase bench = island_case();
  bench.constraints.delta_t_max = 1e-3;
  IslandOptions options;
  options.islands = 2;
  const std::vector<SaStage> stages = {
      {"u1-fixedP", 1, 1, 1, 4, fast_sim(), true, 1}};

  const std::string path =
      (std::filesystem::temp_directory_path() / "lcn_islands_null_score.jsonl")
          .string();
  trace::TraceConfig config;
  config.path = path;
  config.background_flush = false;
  trace::start(config);
  IslandOptimizer opt(bench, DesignObjective::kPumpingPower, options, 3);
  const IslandOutcome out = opt.run(stages);
  trace::stop();
  EXPECT_FALSE(out.best.feasible);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::size_t island_spans = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_TRUE(trace_line_parses(line)) << line;
    if (line.find("\"name\":\"sa_island\"") == std::string::npos ||
        line.find("\"ph\":\"E\"") == std::string::npos) {
      continue;
    }
    ++island_spans;
    EXPECT_NE(line.find("\"score\":null"), std::string::npos) << line;
  }
  EXPECT_EQ(island_spans, 2u);
  in.close();
  std::filesystem::remove(path);
}

TEST(Islands, SharedCacheDeduplicatesAcrossChains) {
  const BenchmarkCase bench = island_case();
  IslandOptions options;
  options.islands = 3;
  IslandOptimizer opt(bench, DesignObjective::kPumpingPower, options, 5);
  const IslandOutcome out = opt.run(p1_schedule());
  // All chains start every round from the same seeded incumbent, so the
  // second and third chains' round-opening evaluations must hit the entry
  // the first chain stored in the shared cache.
  EXPECT_GT(opt.cache().hits(), 0u);
  // And the population as a whole looked up exactly one cache entry per
  // candidate scoring.
  EXPECT_GE(out.best.evaluations, opt.cache().misses());
}

// Thread sweep: the full communicating fingerprint at 1/2/4/8 workers must
// equal the single-thread reference (same idiom as ParallelEquivalence).
class IslandDeterminism : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

struct SweepResult {
  RunPrint print;
  instrument::Snapshot delta;  ///< process counters attributable to the run
};

SweepResult run_communicating() {
  const BenchmarkCase bench = island_case();
  IslandOptimizer opt(bench, DesignObjective::kPumpingPower,
                      communicating_options(), 23);
  const instrument::Snapshot before = instrument::snapshot();
  const IslandOutcome out = opt.run(p1_schedule());
  const instrument::Snapshot after = instrument::snapshot();
  SweepResult result;
  result.print = run_print(out);
  result.delta = instrument::delta(before, after);
  return result;
}

TEST_P(IslandDeterminism, CommunicatingRunIsThreadCountInvariant) {
  static const SweepResult reference = [] {
    set_global_pool_threads(1);
    return run_communicating();
  }();
  set_global_pool_threads(GetParam());
  const SweepResult run = run_communicating();
  EXPECT_EQ(reference.print, run.print);
  // The §S21 instrument counters are main-thread-ordered, so their deltas
  // are exact at any pool width — and reconcile with the outcome.
  EXPECT_EQ(run.delta.island_migrations, run.print.migrations);
  EXPECT_EQ(run.delta.archive_inserts, run.print.archive_inserts);
  EXPECT_EQ(reference.delta.island_migrations, run.delta.island_migrations);
  EXPECT_EQ(reference.delta.archive_inserts, run.delta.archive_inserts);
}

INSTANTIATE_TEST_SUITE_P(Threads, IslandDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(IslandOptions, EnvParsingUsesDocumentedDefaults) {
  unsetenv("LCN_ISLANDS");
  unsetenv("LCN_MIGRATION_PERIOD");
  IslandOptions options = island_options_from_env();
  EXPECT_EQ(options.islands, 4);
  EXPECT_EQ(options.migration_period, 4);

  setenv("LCN_ISLANDS", "6", 1);
  setenv("LCN_MIGRATION_PERIOD", "0", 1);
  options = island_options_from_env();
  EXPECT_EQ(options.islands, 6);
  EXPECT_EQ(options.migration_period, 0);

  // Nonsense is an error naming the variable, never a silent default.
  for (const char* bad : {"-3", "0", "four", "1025"}) {
    setenv("LCN_ISLANDS", bad, 1);
    try {
      island_options_from_env();
      ADD_FAILURE() << "accepted LCN_ISLANDS=" << bad;
    } catch (const RuntimeError& error) {
      EXPECT_NE(std::string(error.what()).find("LCN_ISLANDS"),
                std::string::npos)
          << error.what();
    }
  }
  unsetenv("LCN_ISLANDS");
  setenv("LCN_MIGRATION_PERIOD", "-1", 1);
  EXPECT_THROW(island_options_from_env(), RuntimeError);
  unsetenv("LCN_MIGRATION_PERIOD");
}

TEST(IslandOptions, InvalidConfigurationsAreRejected) {
  const BenchmarkCase bench = island_case();
  IslandOptions zero;
  zero.islands = 0;
  EXPECT_THROW(
      IslandOptimizer(bench, DesignObjective::kPumpingPower, zero, 1),
      ContractError);
  IslandOptimizer ok(bench, DesignObjective::kPumpingPower, IslandOptions{},
                     1);
  EXPECT_THROW(ok.run({}), ContractError);
}

}  // namespace
}  // namespace lcn
