// Telemetry registry: log-bucketed latency histograms, gauges and the
// storage of every instrument counter (DESIGN.md §S24).
//
// common/instrument declares the one counter list and answers "how much
// work ran"; this layer answers "how long did it take and how is the
// service doing": latency *distributions* for the solver and serving hot
// paths and health gauges for the scheduler. One MetricShard holds all
// three, so a session owns one shard and every series is scrapeable from a
// live lcn_serve daemon (the `metrics` protocol op and a Prometheus text
// endpoint) instead of only post-hoc bench JSON.
//
// Determinism contract: histogram bucket boundaries are fixed at compile
// time (log2-spaced, 1 µs … ~38 h) and per-observation state is integral —
// uint64 bucket counts and a uint64 nanosecond sum. Integer addition
// commutes, so merging thread-striped state, per-session shards or
// snapshots from different processes is bit-identical regardless of
// `LCN_THREADS` or arrival order; quantiles are computed exactly from the
// merged bucket counts (the reported p50/p95/p99 is the upper bound of the
// bucket holding that rank).
//
// Overhead contract (mirrors trace §S19):
//  - Level-gated sites cost one relaxed atomic load + one branch when below
//    the configured level — no clock read, no stores. `LCN_METRICS=0`
//    disables everything, 1 (default) enables coarse sites (per-solve and
//    above), 2 adds fine sites (per-SpMV, per-cache-lookup).
//  - An enabled observation is one bucket search over 38 boundaries plus
//    two relaxed atomic adds into the calling thread's stripe (histograms
//    are striped kStripes-ways to keep pool threads off each other's cache
//    lines). tests/timing_test.cpp holds it within 40x a bare counter add.
//
// Session sharding (§S22): observe() and instrument::add() bill the
// process-wide registry and *additionally* the MetricShard of the installed
// TaskContext through one helper, bill() — each tenant gets isolated
// counters and distributions. Gauges are process-health values (queue
// depth, running jobs) and are global-only.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/instrument.hpp"
#include "common/task_context.hpp"

namespace lcn::metrics {

// ---------------------------------------------------------------------------
// Metric lists (X-macros: enums, name/help tables and JSON are generated
// from one list, same idiom as LCN_INSTRUMENT_COUNTERS).

/// Latency histograms, all in seconds. `coarse` sites record per solve /
/// job / step; `fine` sites are hot (thousands per SA iteration).
#define LCN_METRIC_HISTOGRAMS(X)                                            \
  X(solve_steady_seconds, "Steady-state thermal solve wall time")           \
  X(cg_seconds, "Conjugate-gradient solve wall time")                       \
  X(bicgstab_seconds, "BiCGSTAB solve wall time")                           \
  X(gmres_seconds, "GMRES solve wall time")                                 \
  X(spmv_batch_seconds, "Sparse matrix-vector multiply wall time")          \
  X(cache_lookup_seconds, "SA evaluator cache lookup wall time")            \
  X(scenario_step_seconds, "Dynamic-scenario engine step wall time")        \
  X(job_design_seconds, "Scheduler design-job wall time")                   \
  X(job_evaluate_seconds, "Scheduler evaluate-job wall time")               \
  X(job_sweep_seconds, "Scheduler sweep-job wall time")                     \
  X(job_scenario_seconds, "Scheduler scenario-job wall time")

/// Health gauges (instantaneous values, set by the scheduler/server).
#define LCN_METRIC_GAUGES(X)                                          \
  X(queue_depth, "Jobs queued and not yet running")                   \
  X(running_jobs, "Jobs currently executing")                         \
  X(client_connections, "Open client connections on service::Server")

#define LCN_METRICS_ENUM_ENTRY(name, help) name,
enum class Hist : std::size_t {
  LCN_METRIC_HISTOGRAMS(LCN_METRICS_ENUM_ENTRY) kCount
};
enum class Gauge : std::size_t {
  LCN_METRIC_GAUGES(LCN_METRICS_ENUM_ENTRY) kCount
};
#undef LCN_METRICS_ENUM_ENTRY

constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);
constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);

// ---------------------------------------------------------------------------
// Level gating (mirrors trace::g_level).

constexpr int kCoarse = 1;
constexpr int kFine = 2;

/// Current metrics level; 0 = disabled. Initialized from LCN_METRICS
/// (default 1, coarse).
extern std::atomic<int> g_level;

/// The one check every gated site performs.
inline bool enabled(int level = kCoarse) {
  return g_level.load(std::memory_order_relaxed) >= level;
}

/// Override the level (tests; also honors a fresh LCN_METRICS on restart).
void set_level(int level);

// ---------------------------------------------------------------------------
// Histogram buckets.

/// Finite bucket upper bounds in seconds: 1e-6 * 2^i for i in [0, 38).
/// Observation x lands in the first bucket with x <= bound; anything above
/// the last finite bound (1e-6 * 2^37 s ≈ 38 h) lands in the overflow
/// bucket. 38 finite bounds + overflow = kBucketCount buckets per histogram.
constexpr std::size_t kFiniteBuckets = 38;
constexpr std::size_t kBucketCount = kFiniteBuckets + 1;

/// Upper bound of finite bucket `i` in seconds.
double bucket_bound(std::size_t i);

/// Bucket index for an observation in seconds. Non-finite and negative
/// observations clamp to bucket 0 (they never corrupt the distribution).
std::size_t bucket_index(double seconds);

/// Point-in-time copy of one histogram. All state is integral so merge()
/// is bit-identical under any grouping of the inputs.
struct HistogramSnapshot {
  std::array<std::uint64_t, kBucketCount> buckets{};
  std::uint64_t count = 0;      ///< total observations (== sum of buckets)
  std::uint64_t sum_nanos = 0;  ///< exact integer sum of llround(s * 1e9)

  void merge(const HistogramSnapshot& other);

  /// Exact rank-based quantile from the bucket counts: the upper bound of
  /// the bucket containing observation rank ceil(q * count). Returns 0 when
  /// empty; the overflow bucket reports the largest finite bound (keeps the
  /// value finite for JSON).
  double quantile(double q) const;

  double sum_seconds() const { return static_cast<double>(sum_nanos) * 1e-9; }
};

/// One live histogram: kStripes copies of the bucket array so concurrent
/// pool threads land on different cache lines (round-robin thread
/// assignment). All adds are relaxed; snapshot() sums the stripes.
class Histogram {
 public:
  static constexpr std::size_t kStripes = 8;

  void observe(double seconds);
  HistogramSnapshot snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> sum_nanos{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

// ---------------------------------------------------------------------------
// Shard + snapshot.

/// Point-in-time copy of a whole shard.
struct MetricsSnapshot {
  std::array<HistogramSnapshot, kHistCount> histograms{};
  std::array<std::int64_t, kGaugeCount> gauges{};
  instrument::Snapshot counters;

  const HistogramSnapshot& hist(Hist h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
  std::int64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }

  /// Flat JSON object: histograms (count/sum_nanos/p50/p95/p99 + non-empty
  /// bucket arrays), gauges, counters. Deterministic field order.
  std::string json() const;
};

/// One independent registry of every metric and counter. The process-wide
/// registry is one of these; each service session (§S22) owns another,
/// billed in addition to the global one by everything performed under its
/// task context.
struct MetricShard {
  std::array<Histogram, kHistCount> histograms;
  std::array<std::atomic<std::int64_t>, kGaugeCount> gauges{};
  std::array<std::atomic<std::uint64_t>, instrument::kCounterCount> counters{};

  std::atomic<std::uint64_t>& counter(instrument::Counter c) {
    return counters[static_cast<std::size_t>(c)];
  }
  const std::atomic<std::uint64_t>& counter(instrument::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Counters only (relaxed loads), without touching the histograms.
  instrument::Snapshot counter_snapshot() const;
  /// Race-clean counter drain (exchange-based, see
  /// instrument::snapshot_and_reset()).
  instrument::Snapshot drain_counters();

  MetricsSnapshot snapshot() const;
};

/// The process-wide registry.
MetricShard& global_shard();

/// The shard of the TaskContext installed on the calling thread, nullptr
/// when none is.
inline MetricShard* task_shard() {
  const TaskContext* ctx = current_task_context();
  return ctx != nullptr ? ctx->telemetry : nullptr;
}

/// The one billing path: apply `f` to the process-wide shard and, when the
/// calling thread runs under a task context with a shard, to that shard
/// too. The thread-local read costs ~the same as a relaxed add.
template <class F>
void bill(F&& f) {
  f(global_shard());
  if (MetricShard* shard = task_shard()) f(*shard);
}

// ---------------------------------------------------------------------------
// Entry points. observe() is NOT level-gated — gate at the call site with
// enabled()/ScopedLatency so the disabled cost stays one load + one branch.
// Counters are billed with instrument::add().

void observe(Hist h, double seconds);
void gauge_set(Gauge g, std::int64_t value);
void gauge_add(Gauge g, std::int64_t delta);

/// RAII latency observation: reads the clock only when `level` is enabled
/// at construction, observes the elapsed time on destruction. The disabled
/// cost is the enabled() check.
class ScopedLatency {
 public:
  explicit ScopedLatency(Hist h, int level = kCoarse);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Hist hist_;
  bool active_;
  std::uint64_t start_nanos_ = 0;
};

// ---------------------------------------------------------------------------
// Prometheus text exposition (format 0.0.4).

/// `key="value",...` label set built from run_manifest() (git_sha,
/// build_type, threads), for the live endpoint. Tests pass fixed labels.
std::string manifest_labels();

/// Render a full exposition page: every histogram as cumulative
/// `_bucket{le=...}` series + `_sum`/`_count`, gauges, and every counter as
/// `lcn_<name>_total`, each family with `# HELP` and `# TYPE`. `labels` is
/// the inner label list applied to all series ("" for none).
std::string prometheus_text(const MetricsSnapshot& metrics,
                            const std::string& labels);

}  // namespace lcn::metrics
