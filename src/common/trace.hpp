// Structured tracing: RAII spans and instant events recorded into per-thread
// lock-free ring buffers and flushed to a JSONL sink (DESIGN.md §S19).
//
// The nested optimizer (SA stages → pressure searches → thermal probes →
// Krylov solves) is observable end to end: coarse spans (level 1) cover SA
// stages/rounds, direction sweeps, reliability sweeps and the per-iteration
// SA progress stream; fine spans (level 2) add every solve, assembly and
// probe. The sink is one self-contained JSON object per line, directly
// convertible to Chrome trace_event format (chrome://tracing / Perfetto) by
// scripts/trace_to_chrome.py.
//
// trace::Span is the one layer scope, and LCN_TRACE_LEVEL the one detail
// level for spans and latency histograms (common/metrics) alike; LCN_TRACE
// only decides whether spans are written.
//
// Overhead contract:
//  - A site whose span and histogram are both off costs exactly one relaxed
//    atomic load and one predictable branch. No allocation, no clock read,
//    no stores. Tracing never changes numerics, only records.
//  - An enabled event is one write into the calling thread's private ring
//    (single-producer, wait-free). A full ring drops the event and bumps
//    instrument::trace_events_dropped — recording never blocks a hot path
//    on the sink.
//
// Enabling:
//  - Environment: LCN_TRACE=<path> turns span recording on at process
//    start; LCN_TRACE_LEVEL=1|2 picks the level; LCN_TRACE_RING sets the
//    per-thread ring capacity in events. The sink is flushed by a
//    background thread and closed at exit.
//  - Programmatic: set_level(), and start(config) / stop() (used by tests;
//    stop() must not race in-flight traced work — join pool work first).
//
// Thread attribution: the first event on a thread registers a ring and
// assigns a small sequential tid; event order within a tid is the ring's
// FIFO order, so per-thread timestamps are monotonic in the sink.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

#include "common/metrics.hpp"

namespace lcn::trace {

/// Detail levels. Coarse sites are per optimizer iteration, solve, job or
/// step; fine sites are hot (thousands per SA iteration).
constexpr int kCoarse = 1;
constexpr int kFine = 2;

/// The one telemetry word: the level in the low bits, plus kSinkActive while
/// a sink records spans. Sites load it relaxed; recording's acquire fence
/// pairs with the release in start().
extern std::atomic<unsigned> g_state;
constexpr unsigned kLevelMask = 3;
constexpr unsigned kSinkActive = 4;

/// True when a sink is active and the level allows a span at `level`.
inline bool enabled(int level = kCoarse) {
  return g_state.load(std::memory_order_relaxed) >=
         kSinkActive + static_cast<unsigned>(level);
}

/// The level and its one setter (kCoarse or kFine; LCN_TRACE_LEVEL at start).
int level();
void set_level(int level);

/// Smallest and largest LCN_TRACE_RING values, in events.
constexpr std::size_t kMinRingCapacity = 2;
constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 20;

struct TraceConfig {
  std::string path;                  ///< JSONL sink path
  std::size_t ring_capacity = 8192;  ///< events per thread
  /// When false, nothing drains the rings until flush()/stop() — tests use
  /// this to exercise overflow accounting deterministically.
  bool background_flush = true;
};

/// LCN_TRACE_LEVEL (1 or 2) and LCN_TRACE_RING (kMinRingCapacity to
/// kMaxRingCapacity) are parsed once, strictly, at process start. A
/// malformed value starts no sink, keeps kCoarse and logs a warning; then
/// check_env() throws RuntimeError naming the variable. A sink LCN_TRACE
/// names that fails to start is reported the same way. Entry points call
/// it before any work.
void check_env();

/// Open the sink, write the run-manifest header line, enable span
/// recording at the current level. Throws lcn::RuntimeError when the sink
/// cannot be opened or the manifest cannot be built (malformed
/// LCN_THREADS). No-op when tracing is already active.
void start(const TraceConfig& config);

/// Disable span recording, drain every ring, close the sink. Safe to call
/// when tracing is off. Must not race spans still being recorded. The level
/// is unchanged.
void stop();

/// Drain all per-thread rings to the sink now (normally the background
/// flusher's job). No-op when tracing is off.
void flush();

/// True between start() and stop().
bool active();

/// Log a one-line warning when any trace events were lost to ring overflow
/// (instrument::trace_events_dropped > 0), so data loss in a recorded trace
/// is never silent. Intended for process exit paths (design_cli, lcn_serve)
/// after the sink is stopped; no-op when nothing was dropped.
void warn_if_dropped();

// Instant event, a no-op unless enabled(level). `args` is the inside of a
// JSON object (e.g. "\"k\":42") or nullptr, copied into the event; args past
// kArgsCapacity become "\"truncated\":true", never malformed JSON.
void emit_instant(const char* name, int level, const char* args = nullptr);

/// Maximum copied args length (including terminator) per event.
constexpr std::size_t kArgsCapacity = 224;

/// Each histogram's level, from its LCN_METRIC_HISTOGRAMS column.
#define LCN_TRACE_HIST_LEVEL(name, help, level) level,
inline constexpr unsigned kHistLevels[] = {
    LCN_METRIC_HISTOGRAMS(LCN_TRACE_HIST_LEVEL)};
#undef LCN_TRACE_HIST_LEVEL

inline constexpr metrics::Hist kNoHist = metrics::Hist::kCount;
inline constexpr instrument::Counter kNoCounter = instrument::Counter::kCount;

/// The one RAII layer scope, of three optional parts: a span `name`
/// recorded when enabled(`level`) (a string literal: the ring stores the
/// pointer; args set meanwhile go on its end event), a histogram observed
/// when the level reaches its kHistLevels entry, and a counter billed the
/// elapsed microseconds on every exit (never gated). One clock read at
/// entry and one at exit feed every part that is on.
class Span {
 public:
  explicit Span(const char* name, int level = kCoarse,
                metrics::Hist hist = kNoHist,
                instrument::Counter micros = kNoCounter)
      : name_(name), hist_(hist), micros_(micros) {
    const unsigned state = g_state.load(std::memory_order_relaxed);
    traced_ = name != nullptr &&
              state >= kSinkActive + static_cast<unsigned>(level);
    observed_ = hist != kNoHist &&
                (state & kLevelMask) >= kHistLevels[static_cast<int>(hist)];
    if (traced_ || observed_ || micros != kNoCounter) begin();
  }
  /// A histogram-only scope.
  explicit Span(metrics::Hist hist) : Span(nullptr, kCoarse, hist) {}
  ~Span() {
    if (timed_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span's B/E events are recorded.
  bool active() const { return traced_; }

  /// Attach args (inner JSON-object text) to the span's end event.
  void set_args(const std::string& args_json);

 private:
  void begin();
  void end();

  const char* name_;
  metrics::Hist hist_;
  instrument::Counter micros_;
  bool traced_;
  bool observed_;
  bool timed_ = false;
  bool has_args_ = false;
  std::chrono::steady_clock::time_point start_;
  char args_[kArgsCapacity];  // only written when traced
};

}  // namespace lcn::trace
