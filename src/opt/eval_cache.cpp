#include "opt/eval_cache.hpp"

#include "common/bits.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"

namespace lcn {

namespace {

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  // Exact-match semantics via the shared bit-pattern key (common/bits.hpp):
  // the fingerprint distinguishes every distinct double, including ±0.0.
  void mix_double(double v) { mix(bits::double_key(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

EvalCacheKey make_eval_key(const CoolingNetwork& network,
                           const SimConfig& sim, EvalMode mode,
                           double pressure) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(sim.model));
  fnv.mix(static_cast<std::uint64_t>(sim.thermal_cell));
  fnv.mix(static_cast<std::uint64_t>(mode));
  // Fixed-pressure modes key on the exact operating point; full searches
  // derive the pressure themselves, so it is zero there.
  fnv.mix_double(mode == EvalMode::kFixedPressure ||
                         mode == EvalMode::kP2Follower
                     ? pressure
                     : 0.0);
  return EvalCacheKey{network.content_hash(), fnv.value()};
}

std::optional<EvalResult> EvaluatorCache::find(const EvalCacheKey& key) const {
  const trace::Span span(metrics::Hist::cache_lookup_seconds);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      instrument::add(instrument::Counter::cache_hits);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  instrument::add(instrument::Counter::cache_misses);
  return std::nullopt;
}

void EvaluatorCache::store(const EvalCacheKey& key, const EvalResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(key, result);
}

double EvaluatorCache::hit_rate() const {
  const std::uint64_t total = hits() + misses();
  return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
}

std::size_t EvaluatorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void EvaluatorCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace lcn
