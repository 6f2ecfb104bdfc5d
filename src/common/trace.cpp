#include "common/trace.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/instrument.hpp"
#include "common/log.hpp"
#include "common/manifest.hpp"

namespace lcn::trace {

std::atomic<unsigned> g_state{kCoarse};

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  std::uint64_t ts_ns = 0;
  const char* name = nullptr;  // string literal at the call site
  std::uint32_t tid = 0;
  char ph = 'i';  // 'B' begin, 'E' end, 'i' instant, 'C' counter
  char args[kArgsCapacity];
};

/// Single-producer (the owning thread) / single-consumer (the flusher, under
/// the state mutex) ring. The producer publishes with a release store of
/// head_; the consumer acquires head_ and releases tail_; a full ring drops.
class Ring {
 public:
  explicit Ring(std::size_t capacity, std::uint32_t tid)
      : slots_(capacity), tid_(tid) {}

  std::uint32_t tid() const { return tid_; }

  bool push(const Event& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;  // full — caller accounts the drop
    }
    slots_[head % slots_.size()] = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Drain everything published so far through `write`; consumer-side only.
  template <typename Fn>
  void drain(const Fn& write) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    for (; tail != head; ++tail) write(slots_[tail % slots_.size()]);
    tail_.store(tail, std::memory_order_release);
  }

 private:
  std::vector<Event> slots_;
  const std::uint32_t tid_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

struct State {
  std::mutex mutex;  // guards rings, sink, flusher lifecycle
  std::vector<std::unique_ptr<Ring>> rings;
  std::FILE* sink = nullptr;
  Clock::time_point epoch{};
  std::size_t ring_capacity = 8192;
  /// Bumped on every start()/stop() so thread-local ring pointers from an
  /// earlier session are re-registered instead of reused (see local_ring()).
  std::atomic<std::uint64_t> session{0};
  std::thread flusher;
  bool flusher_stop = false;
  std::condition_variable flusher_cv;
};

// Leaked on purpose: pool threads may record until the very end of the
// process, and a destructed State would turn that into use-after-free. The
// sink is closed explicitly by stop() (registered with atexit for the
// env-driven path).
State& state() {
  static State* s = new State;
  return *s;
}

void write_event(std::FILE* sink, const Event& event) {
  if (event.args[0] != '\0') {
    std::fprintf(sink,
                 "{\"ph\":\"%c\",\"tid\":%u,\"ts_ns\":%llu,\"name\":\"%s\","
                 "\"args\":{%s}}\n",
                 event.ph, event.tid,
                 static_cast<unsigned long long>(event.ts_ns), event.name,
                 event.args);
  } else {
    std::fprintf(sink,
                 "{\"ph\":\"%c\",\"tid\":%u,\"ts_ns\":%llu,\"name\":\"%s\"}\n",
                 event.ph, event.tid,
                 static_cast<unsigned long long>(event.ts_ns), event.name);
  }
}

void flush_locked(State& s) {
  if (s.sink == nullptr) return;
  for (const auto& ring : s.rings) {
    ring->drain([&](const Event& event) { write_event(s.sink, event); });
  }
  std::fflush(s.sink);
}

/// The calling thread's ring for the current trace session, registering one
/// on first use. Returns nullptr when the session ended between the site's
/// check and here.
Ring* local_ring() {
  thread_local Ring* ring = nullptr;
  thread_local std::uint64_t ring_session = 0;
  State& s = state();
  const std::uint64_t session = s.session.load(std::memory_order_acquire);
  if (ring != nullptr && ring_session == session) return ring;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.sink == nullptr) return nullptr;  // tracing ended meanwhile
  const auto tid = static_cast<std::uint32_t>(s.rings.size());
  s.rings.push_back(std::make_unique<Ring>(s.ring_capacity, tid));
  ring = s.rings.back().get();
  ring_session = s.session.load(std::memory_order_relaxed);
  return ring;
}

void copy_args(char* dst, const char* args) {
  if (args == nullptr || args[0] == '\0') {
    dst[0] = '\0';
    return;
  }
  const std::size_t len = std::strlen(args);
  if (len < kArgsCapacity) {
    std::memcpy(dst, args, len + 1);
  } else {
    // Never emit malformed JSON from a truncated fragment.
    std::strcpy(dst, "\"truncated\":true");
  }
}

void record(char ph, const char* name, const char* args,
            Clock::time_point at) {
  // Pairs with the release in start(): the sink state below is initialized.
  std::atomic_thread_fence(std::memory_order_acquire);
  Ring* ring = local_ring();
  if (ring == nullptr) return;
  Event event;
  event.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(at - state().epoch)
          .count());
  event.name = name;
  event.tid = ring->tid();
  event.ph = ph;
  copy_args(event.args, args);
  if (ring->push(event)) {
    instrument::add(instrument::Counter::trace_events_emitted);
  } else {
    instrument::add(instrument::Counter::trace_events_dropped);
  }
}

void flusher_loop() {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  while (!s.flusher_stop) {
    s.flusher_cv.wait_for(lock, std::chrono::milliseconds(50));
    flush_locked(s);
  }
}

/// The message of a malformed trace variable or a sink that failed to
/// start, "" when there is none.
std::string g_env_error;

/// Applies the environment at process start: the level always, and the
/// sink when LCN_TRACE names one, drained and closed at exit. Never throws;
/// check_env() reports a malformed value or a sink that failed to start.
struct EnvInit {
  EnvInit() {
    TraceConfig config;
    int level = kCoarse;
    try {
      level = static_cast<int>(
          parse_env_int("LCN_TRACE_LEVEL", std::getenv("LCN_TRACE_LEVEL"),
                        kCoarse, kCoarse, kFine));
      config.ring_capacity = static_cast<std::size_t>(
          parse_env_int("LCN_TRACE_RING", std::getenv("LCN_TRACE_RING"),
                        8192, kMinRingCapacity, kMaxRingCapacity));
    } catch (const RuntimeError& error) {
      g_env_error = error.what();
      LCN_WARN() << g_env_error << "; tracing stays off at level 1";
      return;
    }
    set_level(level);
    config.path = env_string("LCN_TRACE", "");
    if (config.path.empty()) return;
    try {
      start(config);
    } catch (const RuntimeError& error) {
      g_env_error = error.what();
      LCN_WARN() << g_env_error << "; tracing stays off";
      return;
    }
    std::atexit([] { stop(); });
  }
};
const EnvInit env_init;

}  // namespace

void start(const TraceConfig& config) {
  // Built before any sink state changes: it throws on a malformed
  // LCN_THREADS, and a throw must leave tracing off.
  const std::string manifest = run_manifest().json();
  State& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.sink != nullptr) return;  // already active
    LCN_REQUIRE(!config.path.empty(), "trace sink path must be non-empty");
    LCN_REQUIRE(config.ring_capacity >= kMinRingCapacity,
                "trace ring capacity too small");
    std::FILE* sink = std::fopen(config.path.c_str(), "w");
    if (sink == nullptr) {
      throw RuntimeError("trace: cannot open sink '" + config.path + "'");
    }
    s.sink = sink;
    s.epoch = Clock::now();
    s.ring_capacity = config.ring_capacity;
    s.rings.clear();
    s.session.fetch_add(1, std::memory_order_release);
    // Manifest header: stamps the trace with the build/run provenance so
    // traces are comparable across the perf trajectory (DESIGN.md §S19).
    std::fprintf(s.sink, "{\"ph\":\"M\",\"name\":\"manifest\",\"args\":%s}\n",
                 manifest.c_str());
    if (config.background_flush) {
      s.flusher_stop = false;
      // The new thread blocks on s.mutex until this lock releases.
      s.flusher = std::thread(flusher_loop);
    }
  }
  // Release pairs with the fence in record(): a site that observes the
  // sink active also observes the sink state written above.
  g_state.fetch_or(kSinkActive, std::memory_order_release);
}

void stop() {
  State& s = state();
  g_state.fetch_and(~kSinkActive, std::memory_order_release);
  std::thread flusher;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.sink == nullptr) return;
    s.flusher_stop = true;
    flusher = std::move(s.flusher);
    s.flusher_cv.notify_all();
  }
  if (flusher.joinable()) flusher.join();
  std::lock_guard<std::mutex> lock(s.mutex);
  flush_locked(s);
  std::fclose(s.sink);
  s.sink = nullptr;
  s.rings.clear();
  // Bump the session so thread-local ring pointers from this session are
  // re-registered (not dereferenced) if tracing restarts.
  s.session.fetch_add(1, std::memory_order_release);
}

void flush() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  flush_locked(s);
}

bool active() {
  return (g_state.load(std::memory_order_relaxed) & kSinkActive) != 0;
}

int level() {
  return static_cast<int>(g_state.load(std::memory_order_relaxed) &
                          kLevelMask);
}

void set_level(int level) {
  LCN_REQUIRE(level == kCoarse || level == kFine,
              "trace level must be 1 (coarse) or 2 (fine)");
  unsigned state = g_state.load(std::memory_order_relaxed);
  while (!g_state.compare_exchange_weak(
      state, (state & ~kLevelMask) | static_cast<unsigned>(level),
      std::memory_order_relaxed)) {
  }
}

void check_env() {
  if (!g_env_error.empty()) throw RuntimeError(g_env_error);
}

void emit_instant(const char* name, int level, const char* args) {
  if (!enabled(level)) return;
  record('i', name, args, Clock::now());
}

void Span::begin() {
  timed_ = true;
  start_ = Clock::now();
  if (traced_) record('B', name_, nullptr, start_);
}

void Span::end() {
  const Clock::time_point stop = Clock::now();
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start_)
          .count());
  if (traced_) record('E', name_, has_args_ ? args_ : nullptr, stop);
  // nanos * 1e-9 s rounds back to nanos: the histogram sums exactly E - B.
  if (observed_) metrics::observe(hist_, static_cast<double>(nanos) * 1e-9);
  if (micros_ != kNoCounter) instrument::add(micros_, (nanos + 500) / 1000);
}

void Span::set_args(const std::string& args_json) {
  if (!traced_) return;
  copy_args(args_, args_json.c_str());
  has_args_ = true;
}

void warn_if_dropped() {
  const instrument::Snapshot snap = instrument::snapshot();
  if (snap.trace_events_dropped == 0) return;
  LCN_WARN() << "trace rings overflowed: " << snap.trace_events_dropped
             << " of "
             << (snap.trace_events_emitted + snap.trace_events_dropped)
             << " events dropped — raise LCN_TRACE_RING or lower "
                "LCN_TRACE_LEVEL for a complete trace";
}

}  // namespace lcn::trace
