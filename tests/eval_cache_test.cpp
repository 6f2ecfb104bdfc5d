// Evaluator-cache tests (DESIGN.md §S10): content-hash stability, hit/miss
// accounting, key invalidation when the network, model, mode or pressure
// changes, and the property that a cached evaluation is indistinguishable
// from a fresh one.
#include <gtest/gtest.h>

#include <cmath>

#include "network/generators.hpp"
#include "opt/eval_cache.hpp"
#include "opt/sa.hpp"

namespace lcn {
namespace {

BenchmarkCase small_case() {
  BenchmarkCase bench;
  bench.id = 97;
  bench.name = "cache-unit";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 4.4, 21));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 3.6, 22));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;
  return bench;
}

SimConfig fast_sim() { return SimConfig{ThermalModelKind::k2RM, 3}; }

TEST(ContentHash, StableAcrossCopiesAndSensitiveToEdits) {
  const Grid2D grid(21, 21, 100e-6);
  CoolingNetwork net(grid);
  net.set_liquid(0, 0);
  const CoolingNetwork copy = net;
  EXPECT_EQ(net.content_hash(), copy.content_hash());

  // Any cell edit must move the hash.
  CoolingNetwork carved = net;
  carved.set_liquid(0, 2);
  EXPECT_NE(net.content_hash(), carved.content_hash());

  // So must a port edit, even with identical cells.
  CoolingNetwork ported = net;
  ported.add_port({0, 0, Side::kNorth, PortKind::kInlet});
  EXPECT_NE(net.content_hash(), ported.content_hash());
}

TEST(ContentHash, TransformRoundTripPreservesHash) {
  const Grid2D grid(21, 21, 100e-6);
  const CoolingNetwork net = make_tree_network(
      grid, make_uniform_layout(grid, 6, 12));
  for (int dir = 0; dir < D4Transform::kCount; ++dir) {
    const D4Transform t(dir);
    const CoolingNetwork back =
        net.transformed(t).transformed(t.inverse());
    EXPECT_EQ(net.content_hash(), back.content_hash()) << "dir " << dir;
  }
}

TEST(EvalCacheKey, ChangesWithNetworkModeModelAndPressure) {
  const BenchmarkCase bench = small_case();
  const CoolingNetwork net = make_straight_channels(bench.problem.grid);

  const EvalCacheKey base = make_eval_key(net, fast_sim(), EvalMode::kFullP1);
  EXPECT_EQ(base, make_eval_key(net, fast_sim(), EvalMode::kFullP1));

  // Different network (an extra carved cell on a solid site).
  CoolingNetwork a(bench.problem.grid);
  a.set_liquid(0, 0);
  CoolingNetwork b(bench.problem.grid);
  b.set_liquid(0, 2);
  EXPECT_FALSE(make_eval_key(a, fast_sim(), EvalMode::kFullP1) ==
               make_eval_key(b, fast_sim(), EvalMode::kFullP1));
  // Different evaluation mode.
  EXPECT_FALSE(base == make_eval_key(net, fast_sim(), EvalMode::kFullP2));
  // Different thermal model config.
  EXPECT_FALSE(base == make_eval_key(net, SimConfig{ThermalModelKind::k2RM, 4},
                                     EvalMode::kFullP1));
  // Fixed-pressure modes key on the operating point ...
  const EvalCacheKey at2k = make_eval_key(net, fast_sim(),
                                          EvalMode::kFixedPressure, 2000.0);
  const EvalCacheKey at3k = make_eval_key(net, fast_sim(),
                                          EvalMode::kFixedPressure, 3000.0);
  EXPECT_FALSE(at2k == at3k);
  // ... but full searches ignore the hint pressure.
  EXPECT_EQ(base, make_eval_key(net, fast_sim(), EvalMode::kFullP1,
                                5000.0));
}

TEST(EvaluatorCache, AccountsHitsAndMisses) {
  EvaluatorCache cache;
  const BenchmarkCase bench = small_case();
  const CoolingNetwork net = make_straight_channels(bench.problem.grid);
  const EvalCacheKey key = make_eval_key(net, fast_sim(), EvalMode::kFullP1);

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  EvalResult result;
  result.feasible = true;
  result.score = 42.0;
  result.p_sys = 2500.0;
  cache.store(key, result);
  EXPECT_EQ(cache.size(), 1u);

  const auto found = cache.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->score, 42.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 0.5, 1e-12);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.find(key).has_value());
}

TEST(EvaluatorCache, CachedEvaluationEqualsFreshEvaluation) {
  const BenchmarkCase bench = small_case();
  const CoolingNetwork net = make_tree_network(
      bench.problem.grid, make_uniform_layout(bench.problem.grid, 8, 16));

  // Two evaluations through one optimizer: the second must be served from
  // the cache.
  TreeTopologyOptimizer cached_opt(bench, DesignObjective::kPumpingPower, 3);
  const EvalResult first = cached_opt.evaluate_network(net, fast_sim());
  const std::uint64_t hits_before = cached_opt.cache().hits();
  const EvalResult second = cached_opt.evaluate_network(net, fast_sim());
  EXPECT_EQ(cached_opt.cache().hits(), hits_before + 1);

  // A fresh optimizer (empty cache) must produce the identical result:
  // evaluations are deterministic, so cached == fresh exactly.
  TreeTopologyOptimizer fresh_opt(bench, DesignObjective::kPumpingPower, 3);
  const EvalResult fresh = fresh_opt.evaluate_network(net, fast_sim());

  for (const EvalResult* other : {&second, &fresh}) {
    EXPECT_EQ(first.feasible, other->feasible);
    EXPECT_DOUBLE_EQ(first.score, other->score);
    EXPECT_DOUBLE_EQ(first.p_sys, other->p_sys);
    EXPECT_DOUBLE_EQ(first.w_pump, other->w_pump);
    EXPECT_DOUBLE_EQ(first.at_p.t_max, other->at_p.t_max);
    EXPECT_DOUBLE_EQ(first.at_p.delta_t, other->at_p.delta_t);
  }
}

TEST(EvaluatorCache, SaRunReportsCacheTraffic) {
  const BenchmarkCase bench = small_case();
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 5);
  std::vector<SaStage> stages;
  stages.push_back({"cache", 5, 2, 3, 4, fast_sim(), false, 1});
  const DesignOutcome outcome = opt.run(stages);

  // Rounds restart from the incumbent and neighbor pools revisit layouts,
  // so a multi-round run must see real cache traffic.
  EXPECT_EQ(outcome.cache_hits, static_cast<std::size_t>(opt.cache().hits()));
  EXPECT_EQ(outcome.cache_misses,
            static_cast<std::size_t>(opt.cache().misses()));
  EXPECT_GT(outcome.cache_hits, 0u);
  EXPECT_GT(outcome.cache_misses, 0u);
  // Concurrent pool tasks can miss the same key before either stores it, so
  // the map size is bounded by (not equal to) the miss count.
  EXPECT_LE(opt.cache().size(),
            static_cast<std::size_t>(opt.cache().misses()));
  EXPECT_GT(opt.cache().size(), 0u);
}

}  // namespace
}  // namespace lcn
