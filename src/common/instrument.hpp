// Lightweight solver instrumentation (DESIGN.md §S1, sharded in §S22).
//
// The hot numerical paths (SpMV, Krylov solvers, 4RM/2RM assembly, the SA
// evaluator cache) bump relaxed atomic counters; benches snapshot them and
// emit machine-readable perf records (bench_results/BENCH_parallel.json) so
// the perf trajectory of serial vs parallel configurations is tracked over
// time. Counting costs one relaxed atomic add per *kernel invocation* (not
// per element), so the overhead is far below measurement noise.
//
// Multi-tenant sharding (§S22): every add_* always bills the process-wide
// counters, and *additionally* bills the CounterShard of the task context
// installed on the calling thread (common/task_context.hpp), when one is.
// A session's shard therefore accounts exactly the work its own job
// performed — on whichever pool threads it ran — while the global counters
// keep their historical whole-process meaning.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace lcn::instrument {

// The one list of counters; CounterShard, Snapshot conversions and the JSON
// rendering are all generated from it so a new counter cannot be added to
// one and forgotten in another.
#define LCN_INSTRUMENT_COUNTERS(X) \
  X(spmv_count)                    \
  X(spmv_nnz)                      \
  X(cg_solves)                     \
  X(cg_iterations)                 \
  X(bicgstab_solves)               \
  X(bicgstab_iterations)           \
  X(gmres_solves)                  \
  X(gmres_iterations)              \
  X(assemblies)                    \
  X(assemblies_symbolic)           \
  X(assemblies_refill)             \
  X(workspace_reuses)              \
  X(flow_plan_hits)                \
  X(flow_plan_misses)              \
  X(steady_solves)                 \
  X(pressure_probes)               \
  X(cache_hits)                    \
  X(cache_misses)                  \
  X(assembly_micros)               \
  X(solve_micros)                  \
  X(scenarios_evaluated)           \
  X(scenarios_infeasible)          \
  X(recovery_searches)             \
  X(trace_events_emitted)          \
  X(trace_events_dropped)          \
  X(mg_vcycles)                    \
  X(mg_coarse_solves)              \
  X(island_migrations)             \
  X(pt_swaps)                      \
  X(archive_inserts)               \
  X(jobs_completed)                \
  X(jobs_cancelled)                \
  X(transient_steps)               \
  X(transient_refills)             \
  X(transient_rebuilds)            \
  X(rhs_refills)                   \
  X(scenario_steps)                \
  X(eval_failures)

/// Point-in-time copy of every counter. `json()` renders a flat JSON object
/// (the "counters" field of the BENCH_parallel.json schema, README §Bench).
struct Snapshot {
  std::uint64_t spmv_count = 0;          ///< CsrMatrix::multiply calls
  std::uint64_t spmv_nnz = 0;            ///< nonzeros streamed by SpMV
  std::uint64_t cg_solves = 0;
  std::uint64_t cg_iterations = 0;
  std::uint64_t bicgstab_solves = 0;
  std::uint64_t bicgstab_iterations = 0;
  std::uint64_t gmres_solves = 0;
  std::uint64_t gmres_iterations = 0;
  std::uint64_t assemblies = 0;          ///< 4RM/2RM system assemblies
  std::uint64_t assemblies_symbolic = 0; ///< one-time AssemblyPlan builds
  std::uint64_t assemblies_refill = 0;   ///< numeric value refills of a plan
  std::uint64_t workspace_reuses = 0;    ///< Krylov solves on a caller workspace
  std::uint64_t flow_plan_hits = 0;      ///< flow pattern served from cache
  std::uint64_t flow_plan_misses = 0;    ///< flow pattern analyzed fresh
  std::uint64_t steady_solves = 0;
  std::uint64_t pressure_probes = 0;     ///< Algorithm-3 / golden-section probes
  std::uint64_t cache_hits = 0;          ///< SA evaluator cache
  std::uint64_t cache_misses = 0;
  std::uint64_t assembly_micros = 0;     ///< wall time in assemble()
  std::uint64_t solve_micros = 0;        ///< wall time in solve_steady()
  std::uint64_t scenarios_evaluated = 0;   ///< reliability fault scenarios
  std::uint64_t scenarios_infeasible = 0;  ///< violated limits / unevaluable
  std::uint64_t recovery_searches = 0;     ///< degradation-planner searches
  std::uint64_t trace_events_emitted = 0;  ///< events recorded into trace rings
  std::uint64_t trace_events_dropped = 0;  ///< events lost to ring overflow
  std::uint64_t mg_vcycles = 0;            ///< multigrid V-cycle applications
  std::uint64_t mg_coarse_solves = 0;      ///< dense coarse-level solves
  std::uint64_t island_migrations = 0;     ///< accepted island best-design moves
  std::uint64_t pt_swaps = 0;              ///< accepted parallel-tempering swaps
  std::uint64_t archive_inserts = 0;       ///< Pareto-archive frontier entries
  std::uint64_t jobs_completed = 0;        ///< scheduler jobs run to completion
  std::uint64_t jobs_cancelled = 0;        ///< scheduler jobs cancelled/timed out
  std::uint64_t transient_steps = 0;       ///< backward-Euler steps solved
  std::uint64_t transient_refills = 0;     ///< same-structure operator refills
  std::uint64_t transient_rebuilds = 0;    ///< full symbolic operator rebuilds
  std::uint64_t rhs_refills = 0;           ///< RHS-only boundary/power refills
  std::uint64_t scenario_steps = 0;        ///< dynamic-scenario engine steps
  std::uint64_t eval_failures = 0;         ///< solver failures scored +inf

  double cache_hit_rate() const;
  std::string json() const;
};

/// One independent set of counters. The process-wide counters are one of
/// these; each service session (§S22) owns another, billed in addition to
/// the global one by every add_* performed under its task context.
struct CounterShard {
#define LCN_INSTRUMENT_SHARD_FIELD(name) std::atomic<std::uint64_t> name{0};
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_SHARD_FIELD)
#undef LCN_INSTRUMENT_SHARD_FIELD

  /// Point-in-time copy (relaxed loads, same semantics as snapshot()).
  Snapshot snapshot() const;
  /// Race-clean drain: exchange-based, same contract as snapshot_and_reset().
  Snapshot snapshot_and_reset();
  void reset() { (void)snapshot_and_reset(); }
};

void add_spmv(std::uint64_t nnz);
void add_cg(std::uint64_t iterations);
void add_bicgstab(std::uint64_t iterations);
void add_gmres(std::uint64_t iterations);
void add_assembly(double seconds);
void add_assembly_symbolic();
void add_assembly_refill();
void add_workspace_reuse();
void add_flow_plan_hit();
void add_flow_plan_miss();
void add_steady_solve(double seconds);
void add_pressure_probe();
void add_cache_hit();
void add_cache_miss();
void add_scenario_evaluated();
void add_scenario_infeasible();
void add_recovery_search();
void add_trace_event();
void add_trace_drop();
void add_mg_vcycle();
void add_mg_coarse_solve();
void add_island_migration();
void add_pt_swap();
void add_archive_insert();
void add_job_completed();
void add_job_cancelled();
void add_transient_step();
void add_transient_refill();
void add_transient_rebuild();
void add_rhs_refill();
void add_scenario_step();
void add_eval_failure();

Snapshot snapshot();
/// Difference of two snapshots (per-phase accounting in benches). This is
/// the preferred per-phase pattern — snapshot before, snapshot after, diff —
/// because it needs no coordination with concurrent counter adds.
Snapshot delta(const Snapshot& before, const Snapshot& after);

/// Atomically drain every counter: each counter's value moves into the
/// returned snapshot with a single exchange, so an add racing this call from
/// a pool thread lands either in the returned snapshot or in the fresh epoch
/// — never in both and never lost. This is the one race-clean way to
/// "snapshot then reset"; a separate snapshot() followed by reset() would
/// silently drop adds that land between the two calls.
Snapshot snapshot_and_reset();

/// snapshot_and_reset() discarding the drained values.
void reset();

}  // namespace lcn::instrument
