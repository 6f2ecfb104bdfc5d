// Population-scale SA: K communicating chains over one evaluator cache
// (DESIGN.md §S21).
//
// The paper's Algorithm 1 anneals a single chain; the island model runs K
// chains in lockstep over the same staged schedule, sharing the
// content-hash evaluator cache (§S10) so any design reached by two chains
// is only ever evaluated once. Chains communicate by migration: every
// `migration_period` iterations each island may adopt the round-best design
// of a donor island drawn from a dedicated communication rng stream
// (accepted only when strictly better).
//
// Determinism contract (tests/islands_test.cpp): every chain derives its
// rng from (seed, island) — island 0's stream IS the plain single-chain
// stream — per-neighbor mutation streams are keyed (round, iteration,
// neighbor) per chain exactly as in §S10, and all communication draws come
// from one dedicated stream consumed on the coordinating thread only. The
// whole run — best design, per-island outcomes, Pareto archive contents,
// migration log — is therefore a pure function of the seed,
// bit-identical at any `LCN_THREADS`. With K=1 the engine reproduces
// `TreeTopologyOptimizer::run` exactly; in fact the plain optimizer
// delegates to this engine, so the equivalence is structural.
#pragma once

#include <cstdint>
#include <vector>

#include "opt/pareto.hpp"
#include "opt/sa.hpp"

namespace lcn {

struct IslandOptions {
  /// Number of chains K (>= 1). 1 disables all communication and is the
  /// plain single-chain SA.
  int islands = 1;
  /// Iterations between migration attempts; 0 disables migration.
  int migration_period = 0;
};

/// Options from the environment: LCN_ISLANDS (1-1024, default 4),
/// LCN_MIGRATION_PERIOD (0-1000000, default 4).
IslandOptions island_options_from_env();

/// One migration attempt, in coordinating-thread order. The log is part of
/// the determinism contract: two runs from the same seed produce equal
/// logs, at any thread count.
struct CommEvent {
  int stage = 0;
  int round = 0;
  int iter = 0;
  int from = 0;  ///< donor island
  int to = 0;    ///< receiving island
  bool accepted = false;
  friend bool operator==(const CommEvent&, const CommEvent&) = default;
};

struct IslandOutcome {
  /// Best island's sign-off outcome (ties break to the lowest index).
  /// Aggregate fields (evaluations, cache traffic, seconds) cover the
  /// whole population, not just the winning island.
  DesignOutcome best;
  int best_island = 0;
  /// Per-island sign-off results, indexed by island.
  std::vector<std::uint64_t> island_designs;  ///< network content hashes
  std::vector<double> island_scores;
  /// Migration accounting (accepted / attempted).
  std::uint64_t migrations = 0;
  std::uint64_t migration_attempts = 0;
  std::vector<CommEvent> events;
  /// Every feasible evaluation of the run, frontier-filtered (§S21).
  ParetoArchive archive;
};

/// K communicating chains around one TreeTopologyOptimizer evaluation
/// context (shared evaluator cache, one seed).
class IslandOptimizer {
 public:
  IslandOptimizer(const BenchmarkCase& bench, DesignObjective objective,
                  const IslandOptions& options, std::uint64_t seed = 1);

  IslandOutcome run(const std::vector<SaStage>& stages);

  const IslandOptions& options() const { return options_; }
  /// The population-shared evaluator cache.
  const EvaluatorCache& cache() const { return base_.cache(); }
  /// The underlying evaluation context (exposed for tests).
  TreeTopologyOptimizer& base() { return base_; }

 private:
  TreeTopologyOptimizer base_;
  IslandOptions options_;
};

namespace detail {

class IslandEngine;  // befriended by TreeTopologyOptimizer (opt/sa.hpp)

/// The staged-SA engine generalized to K lockstep chains. K=1 with
/// communication off is exactly the plain `TreeTopologyOptimizer::run`
/// (which delegates here).
IslandOutcome run_islands(TreeTopologyOptimizer& opt,
                          const std::vector<SaStage>& stages,
                          const IslandOptions& options);

}  // namespace detail

}  // namespace lcn
