#include "common/instrument.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "common/task_context.hpp"

namespace lcn::instrument {

namespace {

CounterShard& counters() {
  static CounterShard c;
  return c;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

std::uint64_t micros(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(std::llround(seconds * 1e6))
                       : 0;
}

/// Bill the process-wide counters and, when the calling thread runs under a
/// task context with a session shard, that shard too. The thread-local read
/// costs ~the same as the relaxed add, keeping the per-kernel-invocation
/// overhead contract of the header.
void bump(std::atomic<std::uint64_t> CounterShard::*member, std::uint64_t v) {
  (counters().*member).fetch_add(v, kRelaxed);
  const TaskContext* ctx = current_task_context();
  if (ctx != nullptr && ctx->counters != nullptr) {
    (ctx->counters->*member).fetch_add(v, kRelaxed);
  }
}

}  // namespace

void add_spmv(std::uint64_t nnz) {
  bump(&CounterShard::spmv_count, 1);
  bump(&CounterShard::spmv_nnz, nnz);
}

void add_cg(std::uint64_t iterations) {
  bump(&CounterShard::cg_solves, 1);
  bump(&CounterShard::cg_iterations, iterations);
}

void add_bicgstab(std::uint64_t iterations) {
  bump(&CounterShard::bicgstab_solves, 1);
  bump(&CounterShard::bicgstab_iterations, iterations);
}

void add_gmres(std::uint64_t iterations) {
  bump(&CounterShard::gmres_solves, 1);
  bump(&CounterShard::gmres_iterations, iterations);
}

void add_assembly(double seconds) {
  bump(&CounterShard::assemblies, 1);
  bump(&CounterShard::assembly_micros, micros(seconds));
}

void add_assembly_symbolic() { bump(&CounterShard::assemblies_symbolic, 1); }

void add_assembly_refill() { bump(&CounterShard::assemblies_refill, 1); }

void add_workspace_reuse() { bump(&CounterShard::workspace_reuses, 1); }

void add_flow_plan_hit() { bump(&CounterShard::flow_plan_hits, 1); }
void add_flow_plan_miss() { bump(&CounterShard::flow_plan_misses, 1); }

void add_steady_solve(double seconds) {
  bump(&CounterShard::steady_solves, 1);
  bump(&CounterShard::solve_micros, micros(seconds));
}

void add_pressure_probe() { bump(&CounterShard::pressure_probes, 1); }

void add_cache_hit() { bump(&CounterShard::cache_hits, 1); }
void add_cache_miss() { bump(&CounterShard::cache_misses, 1); }

void add_scenario_evaluated() { bump(&CounterShard::scenarios_evaluated, 1); }
void add_scenario_infeasible() { bump(&CounterShard::scenarios_infeasible, 1); }
void add_recovery_search() { bump(&CounterShard::recovery_searches, 1); }

void add_trace_event() { bump(&CounterShard::trace_events_emitted, 1); }
void add_trace_drop() { bump(&CounterShard::trace_events_dropped, 1); }

void add_mg_vcycle() { bump(&CounterShard::mg_vcycles, 1); }
void add_mg_coarse_solve() { bump(&CounterShard::mg_coarse_solves, 1); }
void add_island_migration() { bump(&CounterShard::island_migrations, 1); }
void add_pt_swap() { bump(&CounterShard::pt_swaps, 1); }
void add_archive_insert() { bump(&CounterShard::archive_inserts, 1); }
void add_job_completed() { bump(&CounterShard::jobs_completed, 1); }
void add_job_cancelled() { bump(&CounterShard::jobs_cancelled, 1); }
void add_transient_step() { bump(&CounterShard::transient_steps, 1); }
void add_transient_refill() { bump(&CounterShard::transient_refills, 1); }
void add_transient_rebuild() { bump(&CounterShard::transient_rebuilds, 1); }
void add_rhs_refill() { bump(&CounterShard::rhs_refills, 1); }
void add_scenario_step() { bump(&CounterShard::scenario_steps, 1); }
void add_eval_failure() { bump(&CounterShard::eval_failures, 1); }

Snapshot CounterShard::snapshot() const {
  Snapshot s;
#define LCN_INSTRUMENT_LOAD(name) s.name = name.load(kRelaxed);
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_LOAD)
#undef LCN_INSTRUMENT_LOAD
  return s;
}

Snapshot CounterShard::snapshot_and_reset() {
  Snapshot s;
#define LCN_INSTRUMENT_DRAIN(name) s.name = name.exchange(0, kRelaxed);
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_DRAIN)
#undef LCN_INSTRUMENT_DRAIN
  return s;
}

Snapshot snapshot() { return counters().snapshot(); }

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
#define LCN_INSTRUMENT_DIFF(name) d.name = after.name - before.name;
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_DIFF)
#undef LCN_INSTRUMENT_DIFF
  return d;
}

Snapshot snapshot_and_reset() { return counters().snapshot_and_reset(); }

void reset() { (void)snapshot_and_reset(); }

double Snapshot::cache_hit_rate() const {
  const std::uint64_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
}

std::string Snapshot::json() const {
  return strfmt(
      "{\"spmv_count\":%llu,\"spmv_nnz\":%llu,"
      "\"cg_solves\":%llu,\"cg_iterations\":%llu,"
      "\"bicgstab_solves\":%llu,\"bicgstab_iterations\":%llu,"
      "\"gmres_solves\":%llu,\"gmres_iterations\":%llu,"
      "\"assemblies\":%llu,\"assemblies_symbolic\":%llu,"
      "\"assemblies_refill\":%llu,\"workspace_reuses\":%llu,"
      "\"flow_plan_hits\":%llu,\"flow_plan_misses\":%llu,"
      "\"steady_solves\":%llu,\"pressure_probes\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_hit_rate\":%.4f,"
      "\"assembly_seconds\":%.6f,\"solve_seconds\":%.6f,"
      "\"scenarios_evaluated\":%llu,\"scenarios_infeasible\":%llu,"
      "\"recovery_searches\":%llu,"
      "\"trace_events_emitted\":%llu,\"trace_events_dropped\":%llu,"
      "\"mg_vcycles\":%llu,\"mg_coarse_solves\":%llu,"
      "\"island_migrations\":%llu,\"pt_swaps\":%llu,"
      "\"archive_inserts\":%llu,"
      "\"jobs_completed\":%llu,\"jobs_cancelled\":%llu,"
      "\"transient_steps\":%llu,\"transient_refills\":%llu,"
      "\"transient_rebuilds\":%llu,\"rhs_refills\":%llu,"
      "\"scenario_steps\":%llu,\"eval_failures\":%llu}",
      static_cast<unsigned long long>(spmv_count),
      static_cast<unsigned long long>(spmv_nnz),
      static_cast<unsigned long long>(cg_solves),
      static_cast<unsigned long long>(cg_iterations),
      static_cast<unsigned long long>(bicgstab_solves),
      static_cast<unsigned long long>(bicgstab_iterations),
      static_cast<unsigned long long>(gmres_solves),
      static_cast<unsigned long long>(gmres_iterations),
      static_cast<unsigned long long>(assemblies),
      static_cast<unsigned long long>(assemblies_symbolic),
      static_cast<unsigned long long>(assemblies_refill),
      static_cast<unsigned long long>(workspace_reuses),
      static_cast<unsigned long long>(flow_plan_hits),
      static_cast<unsigned long long>(flow_plan_misses),
      static_cast<unsigned long long>(steady_solves),
      static_cast<unsigned long long>(pressure_probes),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate(),
      assembly_micros * 1e-6, solve_micros * 1e-6,
      static_cast<unsigned long long>(scenarios_evaluated),
      static_cast<unsigned long long>(scenarios_infeasible),
      static_cast<unsigned long long>(recovery_searches),
      static_cast<unsigned long long>(trace_events_emitted),
      static_cast<unsigned long long>(trace_events_dropped),
      static_cast<unsigned long long>(mg_vcycles),
      static_cast<unsigned long long>(mg_coarse_solves),
      static_cast<unsigned long long>(island_migrations),
      static_cast<unsigned long long>(pt_swaps),
      static_cast<unsigned long long>(archive_inserts),
      static_cast<unsigned long long>(jobs_completed),
      static_cast<unsigned long long>(jobs_cancelled),
      static_cast<unsigned long long>(transient_steps),
      static_cast<unsigned long long>(transient_refills),
      static_cast<unsigned long long>(transient_rebuilds),
      static_cast<unsigned long long>(rhs_refills),
      static_cast<unsigned long long>(scenario_steps),
      static_cast<unsigned long long>(eval_failures));
}

}  // namespace lcn::instrument
