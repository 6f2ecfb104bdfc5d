#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/manifest.hpp"
#include "common/strings.hpp"

namespace lcn::metrics {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

#define LCN_METRIC_NAME_ENTRY(name, ...) #name,
#define LCN_METRIC_HELP_ENTRY(name, help, ...) help,
constexpr const char* kHistNames[] = {
    LCN_METRIC_HISTOGRAMS(LCN_METRIC_NAME_ENTRY)};
constexpr const char* kHistHelp[] = {
    LCN_METRIC_HISTOGRAMS(LCN_METRIC_HELP_ENTRY)};
constexpr const char* kGaugeNames[] = {
    LCN_METRIC_GAUGES(LCN_METRIC_NAME_ENTRY)};
constexpr const char* kGaugeHelp[] = {
    LCN_METRIC_GAUGES(LCN_METRIC_HELP_ENTRY)};
#undef LCN_METRIC_NAME_ENTRY
#undef LCN_METRIC_HELP_ENTRY

/// The fixed finite bucket bounds (seconds), 1e-6 * 2^i. Computed once; the
/// values are exact binary scalings of 1e-6 so every process agrees on them
/// bit for bit.
const std::array<double, kFiniteBuckets>& bucket_bounds() {
  static const std::array<double, kFiniteBuckets> bounds = [] {
    std::array<double, kFiniteBuckets> b{};
    double v = 1e-6;
    for (std::size_t i = 0; i < kFiniteBuckets; ++i) {
      b[i] = v;
      v *= 2.0;
    }
    return b;
  }();
  return bounds;
}

std::uint64_t to_nanos(double seconds) {
  if (!std::isfinite(seconds) || seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

/// Round-robin stripe assignment: each thread picks a stripe on first use
/// and keeps it, spreading pool threads across cache lines without any
/// per-observation coordination.
std::size_t this_thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, kRelaxed) % Histogram::kStripes;
  return stripe;
}

}  // namespace

double bucket_bound(std::size_t i) { return bucket_bounds()[i]; }

std::size_t bucket_index(double seconds) {
  if (!std::isfinite(seconds) || seconds <= 0.0) return 0;
  const auto& bounds = bucket_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), seconds);
  return static_cast<std::size_t>(it - bounds.begin());  // end() == overflow
}

// ---------------------------------------------------------------------------
// Histogram

void Histogram::observe(double seconds) {
  Stripe& stripe = stripes_[this_thread_stripe()];
  stripe.counts[bucket_index(seconds)].fetch_add(1, kRelaxed);
  stripe.sum_nanos.fetch_add(to_nanos(seconds), kRelaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (const Stripe& stripe : stripes_) {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      s.buckets[b] += stripe.counts[b].load(kRelaxed);
    }
    s.sum_nanos += stripe.sum_nanos.load(kRelaxed);
  }
  for (const std::uint64_t c : s.buckets) s.count += c;
  return s;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum_nanos += other.sum_nanos;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      return bucket_bound(std::min(b, kFiniteBuckets - 1));
    }
  }
  return bucket_bound(kFiniteBuckets - 1);  // unreachable: count > 0
}

// ---------------------------------------------------------------------------
// Shard + snapshot

std::string MetricsSnapshot::json() const {
  std::string out = "{\"histograms\":{";
  bool first = true;
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const HistogramSnapshot& hist = histograms[h];
    if (!first) out += ',';
    first = false;
    out += strfmt(
        "\"%s\":{\"count\":%llu,\"sum_nanos\":%llu,"
        "\"p50\":%.9g,\"p95\":%.9g,\"p99\":%.9g",
        kHistNames[h], static_cast<unsigned long long>(hist.count),
        static_cast<unsigned long long>(hist.sum_nanos), hist.quantile(0.50),
        hist.quantile(0.95), hist.quantile(0.99));
    if (hist.count > 0) {
      // Sparse bucket map {bound_or_+inf: count}; bounds render with %.9g so
      // the client can parse them back exactly (doubles here are powers of
      // two times 1e-6).
      out += ",\"buckets\":{";
      bool first_bucket = true;
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        if (hist.buckets[b] == 0) continue;
        if (!first_bucket) out += ',';
        first_bucket = false;
        if (b < kFiniteBuckets) {
          out += strfmt("\"%.9g\":%llu", bucket_bound(b),
                        static_cast<unsigned long long>(hist.buckets[b]));
        } else {
          out += strfmt("\"+inf\":%llu",
                        static_cast<unsigned long long>(hist.buckets[b]));
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "},\"gauges\":{";
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out += strfmt("%s\"%s\":%lld", g == 0 ? "" : ",", kGaugeNames[g],
                  static_cast<long long>(gauges[g]));
  }
  out += "},\"counters\":" + counters.json() + "}";
  return out;
}

MetricsSnapshot MetricShard::snapshot() const {
  MetricsSnapshot s;
  for (std::size_t h = 0; h < kHistCount; ++h) {
    s.histograms[h] = histograms[h].snapshot();
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    s.gauges[g] = gauges[g].load(kRelaxed);
  }
  s.counters = counter_snapshot();
  return s;
}

instrument::Snapshot MetricShard::counter_snapshot() const {
  instrument::Snapshot s;
#define LCN_METRIC_LOAD(name, help) \
  s.name = counter(instrument::Counter::name).load(kRelaxed);
  LCN_INSTRUMENT_COUNTERS(LCN_METRIC_LOAD)
#undef LCN_METRIC_LOAD
  return s;
}

instrument::Snapshot MetricShard::drain_counters() {
  instrument::Snapshot s;
#define LCN_METRIC_DRAIN(name, help) \
  s.name = counter(instrument::Counter::name).exchange(0, kRelaxed);
  LCN_INSTRUMENT_COUNTERS(LCN_METRIC_DRAIN)
#undef LCN_METRIC_DRAIN
  return s;
}

MetricShard& global_shard() {
  static MetricShard shard;
  return shard;
}

// ---------------------------------------------------------------------------
// Entry points

void observe(Hist h, double seconds) {
  const std::size_t i = static_cast<std::size_t>(h);
  bill([i, seconds](MetricShard& shard) {
    shard.histograms[i].observe(seconds);
  });
}

void gauge_set(Gauge g, std::int64_t value) {
  global_shard().gauges[static_cast<std::size_t>(g)].store(value, kRelaxed);
}

void gauge_add(Gauge g, std::int64_t delta) {
  global_shard().gauges[static_cast<std::size_t>(g)].fetch_add(delta,
                                                               kRelaxed);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (format 0.0.4)

std::string manifest_labels() {
  const RunManifest& m = run_manifest();
  return strfmt("git_sha=\"%s\",build_type=\"%s\",threads=\"%ld\"",
                m.git_sha.c_str(), m.build_type.c_str(), m.lcn_threads);
}

namespace {

std::string label_block(const std::string& labels) {
  return labels.empty() ? std::string() : "{" + labels + "}";
}

/// `{existing,le="bound"}` — merges the le label into the shared label set.
std::string bucket_labels(const std::string& labels, const char* le) {
  if (labels.empty()) return strfmt("{le=\"%s\"}", le);
  return strfmt("{%s,le=\"%s\"}", labels.c_str(), le);
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& metrics,
                            const std::string& labels) {
  std::string out;
  out.reserve(16384);
  const std::string plain = label_block(labels);

  for (std::size_t h = 0; h < kHistCount; ++h) {
    const HistogramSnapshot& hist = metrics.histograms[h];
    out += strfmt("# HELP lcn_%s %s\n", kHistNames[h], kHistHelp[h]);
    out += strfmt("# TYPE lcn_%s histogram\n", kHistNames[h]);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kFiniteBuckets; ++b) {
      cumulative += hist.buckets[b];
      out += strfmt("lcn_%s_bucket%s %llu\n", kHistNames[h],
                    bucket_labels(labels, strfmt("%.9g", bucket_bound(b)).c_str()).c_str(),
                    static_cast<unsigned long long>(cumulative));
    }
    out += strfmt("lcn_%s_bucket%s %llu\n", kHistNames[h],
                  bucket_labels(labels, "+Inf").c_str(),
                  static_cast<unsigned long long>(hist.count));
    out += strfmt("lcn_%s_sum%s %.9g\n", kHistNames[h], plain.c_str(),
                  hist.sum_seconds());
    out += strfmt("lcn_%s_count%s %llu\n", kHistNames[h], plain.c_str(),
                  static_cast<unsigned long long>(hist.count));
  }

  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out += strfmt("# HELP lcn_%s %s\n", kGaugeNames[g], kGaugeHelp[g]);
    out += strfmt("# TYPE lcn_%s gauge\n", kGaugeNames[g]);
    out += strfmt("lcn_%s%s %lld\n", kGaugeNames[g], plain.c_str(),
                  static_cast<long long>(metrics.gauges[g]));
  }

#define LCN_METRIC_PROM_COUNTER(name, help)                       \
  out += "# HELP lcn_" #name "_total " help "\n"                   \
         "# TYPE lcn_" #name "_total counter\n"                    \
         "lcn_" #name "_total" + plain + " " +                     \
         std::to_string(metrics.counters.name) + "\n";
  LCN_INSTRUMENT_COUNTERS(LCN_METRIC_PROM_COUNTER)
#undef LCN_METRIC_PROM_COUNTER

  return out;
}

}  // namespace lcn::metrics
