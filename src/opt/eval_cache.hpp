// Content-addressed evaluator cache for the SA optimizer (DESIGN.md §S10).
//
// Algorithm 3 and multi-round SA repeatedly probe identical candidate
// networks: the incumbent is re-scored at every stage boundary, round seeds
// restart from the same state, and small neighbor pools frequently
// regenerate a layout seen a few iterations ago. A full network evaluation
// costs several assemblies + Krylov solves, so repeats are cached under a
// content hash of (realized network, thermal model, evaluation mode, fixed
// pressure). The problem is not part of the key: each optimizer owns one
// cache over one problem. Evaluations are deterministic (bit-identical for
// any thread count), so a cached result equals a fresh one exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "opt/evaluator.hpp"

namespace lcn {

struct EvalCacheKey {
  std::uint64_t network = 0;  ///< CoolingNetwork::content_hash()
  std::uint64_t context = 0;  ///< sim config ⊕ mode ⊕ pressure

  friend bool operator==(const EvalCacheKey&, const EvalCacheKey&) = default;
};

EvalCacheKey make_eval_key(const CoolingNetwork& network,
                           const SimConfig& sim, EvalMode mode,
                           double pressure = 0.0);

/// Thread-safe (network layout + P_sys → metrics) memo. Lookup misses are
/// computed outside the lock by the caller and stored afterwards; concurrent
/// duplicate computation is benign because evaluations are deterministic.
class EvaluatorCache {
 public:
  std::optional<EvalResult> find(const EvalCacheKey& key) const;
  void store(const EvalCacheKey& key, const EvalResult& result);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  double hit_rate() const;
  std::size_t size() const;
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const EvalCacheKey& key) const {
      // splitmix-style final mix of the two halves.
      std::uint64_t z = key.network + 0x9e3779b97f4a7c15ULL * key.context;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<EvalCacheKey, EvalResult, KeyHash> map_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace lcn
