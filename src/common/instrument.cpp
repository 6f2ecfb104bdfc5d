#include "common/instrument.hpp"

#include "common/metrics.hpp"
#include "common/strings.hpp"

namespace lcn::instrument {

void add(Counter c, std::uint64_t n) {
  metrics::bill([c, n](metrics::MetricShard& shard) {
    shard.counter(c).fetch_add(n, std::memory_order_relaxed);
  });
}

std::uint64_t task_count(Counter c) {
  metrics::MetricShard* shard = metrics::task_shard();
  return (shard != nullptr ? *shard : metrics::global_shard())
      .counter(c)
      .load(std::memory_order_relaxed);
}

Snapshot snapshot() { return metrics::global_shard().counter_snapshot(); }

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
#define LCN_INSTRUMENT_DIFF(name, help) d.name = after.name - before.name;
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_DIFF)
#undef LCN_INSTRUMENT_DIFF
  return d;
}

Snapshot snapshot_and_reset() {
  return metrics::global_shard().drain_counters();
}

void reset() { (void)snapshot_and_reset(); }

double Snapshot::cache_hit_rate() const {
  const std::uint64_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
}

std::string Snapshot::json() const {
  std::string out = "{";
#define LCN_INSTRUMENT_JSON(name, help) \
  out += "\"" #name "\":" + std::to_string(name) + ",";
  LCN_INSTRUMENT_COUNTERS(LCN_INSTRUMENT_JSON)
#undef LCN_INSTRUMENT_JSON
  out += strfmt("\"cache_hit_rate\":%.4f,\"assembly_seconds\":%.6f}",
                cache_hit_rate(), assembly_micros * 1e-6);
  return out;
}

}  // namespace lcn::instrument
