// Lightweight solver instrumentation (DESIGN.md §S1, sharded in §S22).
//
// The hot numerical paths (SpMV, Krylov solvers, 4RM/2RM assembly, the SA
// evaluator cache) bump relaxed atomic counters; perfbench snapshots them
// around each workload for its per-layer metrics, and the serving layer
// exports them as Prometheus counters. Counting costs one relaxed atomic add
// per billed shard per *kernel invocation* (not per element), so the
// overhead is far below measurement noise.
//
// Multi-tenant sharding (§S22): add() always bills the process-wide
// telemetry shard, and *additionally* the shard of the task context
// installed on the calling thread (common/task_context.hpp), when one is.
// A session's shard therefore accounts exactly the work its own job
// performed — on whichever pool threads it ran — while the global counters
// keep their historical whole-process meaning. The counter storage lives in
// metrics::MetricShard next to the histograms, so one shard and one billing
// path serve both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lcn::instrument {

// The one list of counters: X(name, help). The Counter enum, the Snapshot
// fields, shard storage, delta, JSON and the Prometheus `lcn_<name>_total`
// family are all generated from it, so adding a counter is a one-line edit.
#define LCN_INSTRUMENT_COUNTERS(X)                                            \
  X(spmv_count, "Sparse matrix-vector multiply calls")                        \
  X(spmv_nnz, "Nonzeros streamed by sparse matrix-vector multiplies")         \
  X(cg_solves, "Conjugate-gradient solves")                                   \
  X(cg_iterations, "Conjugate-gradient iterations")                           \
  X(bicgstab_solves, "BiCGSTAB solves")                                       \
  X(bicgstab_iterations, "BiCGSTAB iterations")                               \
  X(gmres_solves, "GMRES solves")                                             \
  X(gmres_iterations, "GMRES iterations")                                     \
  X(assemblies, "4RM/2RM thermal system assemblies")                          \
  X(assemblies_symbolic, "One-time symbolic assembly plan builds")            \
  X(assemblies_refill, "Numeric value refills of an assembly plan")           \
  X(workspace_reuses, "Krylov solves on a caller-owned workspace")            \
  X(flow_plan_hits, "Flow patterns served from the plan cache")               \
  X(flow_plan_misses, "Flow patterns analyzed fresh")                         \
  X(steady_solves, "Steady-state thermal solves")                             \
  X(pressure_probes, "Algorithm-3 / golden-section pressure probes")          \
  X(cache_hits, "SA evaluator cache hits")                                    \
  X(cache_misses, "SA evaluator cache misses")                                \
  X(assembly_micros, "Wall time in thermal assembly, microseconds")           \
  X(scenarios_evaluated, "Reliability fault scenarios evaluated")             \
  X(scenarios_infeasible, "Fault scenarios violating limits or unevaluable")  \
  X(recovery_searches, "Degradation-planner recovery searches")               \
  X(trace_events_emitted, "Events recorded into trace rings")                 \
  X(trace_events_dropped, "Trace events lost to ring overflow")               \
  X(mg_vcycles, "Multigrid V-cycles; always 0, multigrid was removed")       \
  X(island_migrations, "Accepted island best-design migrations")              \
  X(pt_swaps, "Accepted parallel-tempering swaps")                            \
  X(archive_inserts, "Pareto-archive frontier entries")                       \
  X(jobs_completed, "Scheduler jobs run to completion")                       \
  X(jobs_cancelled, "Scheduler jobs cancelled or timed out")                  \
  X(transient_steps, "Backward-Euler transient steps solved")                 \
  X(transient_refills, "Same-structure transient operator refills")           \
  X(transient_rebuilds, "Full symbolic transient operator rebuilds")          \
  X(rhs_refills, "RHS-only boundary/power refills")                           \
  X(scenario_steps, "Dynamic-scenario engine steps")                          \
  X(eval_failures, "Solver failures scored as +inf")                          \
  X(deadline_misses, "Jobs cancelled by the watchdog past their deadline")    \
  X(slo_breaches, "Completed jobs whose wall time exceeded LCN_SLO_SECONDS")  \
  X(jobs_rejected, "Jobs refused because the scheduler was shutting down")    \
  X(metrics_scrapes, "Snapshot requests served (metrics op + HTTP scrapes)")

#define LCN_INSTRUMENT_ENUM_ENTRY(name, help) name,
enum class Counter : std::size_t {
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_ENUM_ENTRY) kCount
};
#undef LCN_INSTRUMENT_ENUM_ENTRY

constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Point-in-time copy of every counter. `json()` renders a flat JSON object:
/// every counter under its own name, plus the derived `cache_hit_rate` and
/// `assembly_seconds`.
struct Snapshot {
#define LCN_INSTRUMENT_FIELD(name, help) std::uint64_t name = 0;
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_FIELD)
#undef LCN_INSTRUMENT_FIELD

  double cache_hit_rate() const;
  std::string json() const;
};

/// Bill `n` to counter `c`: the process-wide shard plus the current task's
/// shard when one is installed (metrics::bill).
void add(Counter c, std::uint64_t n = 1);

/// The calling task's value of `c`: its session shard when a TaskContext
/// with one is installed, the process-wide total otherwise.
std::uint64_t task_count(Counter c);

Snapshot snapshot();
/// Difference of two snapshots. This is the preferred per-phase pattern —
/// snapshot before, snapshot after, diff — because it needs no coordination
/// with concurrent counter adds.
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
