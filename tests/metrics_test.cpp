// Tests for the metrics registry (DESIGN.md §S24): fixed log2 bucket math,
// exact rank-based quantiles from bucket counts, bit-identical merges under
// any grouping and any LCN_THREADS, per-session shard billing equal to a
// solo serial reference, Prometheus text-exposition golden format, and the
// live `metrics` op + HTTP scrape over a loopback service::Server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>

#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/task_context.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "service/server.hpp"

namespace lcn {
namespace {

/// Restores the detail level on scope exit so tests can flip it freely.
class LevelGuard {
 public:
  LevelGuard() : saved_(trace::level()) {}
  ~LevelGuard() { trace::set_level(saved_); }

 private:
  int saved_;
};

/// Deterministic observation spread: values across many buckets, a function
/// of the index only (never wall-clock time), so every thread count records
/// the same multiset.
double observation(std::size_t i) {
  return 1e-6 * static_cast<double>(1 + (i * 37) % 5000);
}

TEST(MetricsBuckets, BoundsDoubleFromOneMicrosecond) {
  EXPECT_DOUBLE_EQ(metrics::bucket_bound(0), 1e-6);
  for (std::size_t i = 1; i < metrics::kFiniteBuckets; ++i) {
    EXPECT_DOUBLE_EQ(metrics::bucket_bound(i),
                     2.0 * metrics::bucket_bound(i - 1))
        << "bucket " << i;
  }
}

TEST(MetricsBuckets, IndexBoundaries) {
  // An observation equal to a bound lands in that bucket (first bucket with
  // x <= bound); one ulp above spills into the next.
  for (const std::size_t i : {std::size_t{0}, std::size_t{5},
                              metrics::kFiniteBuckets - 1}) {
    const double bound = metrics::bucket_bound(i);
    EXPECT_EQ(metrics::bucket_index(bound), i);
    const double above = std::nextafter(
        bound, std::numeric_limits<double>::infinity());
    EXPECT_EQ(metrics::bucket_index(above),
              i + 1 < metrics::kBucketCount ? i + 1 : i);
  }
  EXPECT_EQ(metrics::bucket_index(5e-7), 0u);
  // Past the largest finite bound: the overflow bucket.
  EXPECT_EQ(metrics::bucket_index(1e9), metrics::kFiniteBuckets);
}

TEST(MetricsBuckets, DegenerateObservationsClampToBucketZero) {
  EXPECT_EQ(metrics::bucket_index(0.0), 0u);
  EXPECT_EQ(metrics::bucket_index(-1.0), 0u);
  EXPECT_EQ(metrics::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(metrics::bucket_index(std::numeric_limits<double>::infinity()),
            0u);
}

TEST(MetricsQuantile, ExactRanksOnHandBuiltBuckets) {
  // 10 observations in bucket 2, 85 in bucket 7, 5 in bucket 20. The
  // quantile is the upper bound of the bucket holding rank ceil(q * 100).
  metrics::HistogramSnapshot snap;
  snap.buckets[2] = 10;
  snap.buckets[7] = 85;
  snap.buckets[20] = 5;
  snap.count = 100;
  EXPECT_DOUBLE_EQ(snap.quantile(0.05), metrics::bucket_bound(2));   // rank 5
  EXPECT_DOUBLE_EQ(snap.quantile(0.10), metrics::bucket_bound(2));   // rank 10
  EXPECT_DOUBLE_EQ(snap.quantile(0.11), metrics::bucket_bound(7));   // rank 11
  EXPECT_DOUBLE_EQ(snap.quantile(0.50), metrics::bucket_bound(7));
  EXPECT_DOUBLE_EQ(snap.quantile(0.95), metrics::bucket_bound(7));   // rank 95
  EXPECT_DOUBLE_EQ(snap.quantile(0.96), metrics::bucket_bound(20));  // rank 96
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), metrics::bucket_bound(20));
  // q clamps to rank >= 1 and the empty histogram reports 0.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), metrics::bucket_bound(2));
  EXPECT_DOUBLE_EQ(metrics::HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(MetricsQuantile, OverflowBucketReportsLargestFiniteBound) {
  metrics::HistogramSnapshot snap;
  snap.buckets[metrics::kFiniteBuckets] = 4;
  snap.count = 4;
  EXPECT_DOUBLE_EQ(snap.quantile(0.99),
                   metrics::bucket_bound(metrics::kFiniteBuckets - 1));
  EXPECT_TRUE(std::isfinite(snap.quantile(0.99)));
}

TEST(MetricsMerge, BitIdenticalUnderAnyGrouping) {
  metrics::Histogram histograms[3];
  for (std::size_t h = 0; h < 3; ++h) {
    for (std::size_t i = 0; i < 1000; ++i) {
      histograms[h].observe(observation(h * 1000 + i));
    }
  }
  const metrics::HistogramSnapshot a = histograms[0].snapshot();
  const metrics::HistogramSnapshot b = histograms[1].snapshot();
  const metrics::HistogramSnapshot c = histograms[2].snapshot();

  metrics::HistogramSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  metrics::HistogramSnapshot right = c;  // (c + b) + a
  right.merge(b);
  right.merge(a);

  EXPECT_EQ(left.count, 3000u);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum_nanos, right.sum_nanos);
  EXPECT_EQ(left.buckets, right.buckets);
}

class MetricsThreads : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

TEST_P(MetricsThreads, ShardMatchesSoloAtAnyThreadCount) {
  constexpr std::size_t kObservations = 20'000;

  // Solo reference: the same multiset observed serially into one histogram.
  metrics::Histogram solo;
  std::uint64_t solo_count = 0;
  for (std::size_t i = 0; i < kObservations; ++i) {
    solo.observe(observation(i));
    if (i % 7 == 0) ++solo_count;
  }

  // Sharded run: a session shard installed via TaskContext, observations
  // fanned out across the pool. instrument-style billing lands in both the
  // global registry and the session shard.
  metrics::MetricShard shard;
  const metrics::MetricsSnapshot global_before =
      metrics::global_shard().snapshot();
  {
    TaskContext ctx;
    ctx.telemetry = &shard;
    ScopedTaskContext scope(&ctx);
    global_pool().parallel_for(kObservations, [](std::size_t i) {
      metrics::observe(metrics::Hist::cache_lookup_seconds, observation(i));
      if (i % 7 == 0) instrument::add(instrument::Counter::deadline_misses);
    });
  }

  const metrics::HistogramSnapshot expected = solo.snapshot();
  const metrics::MetricsSnapshot got = shard.snapshot();
  const metrics::HistogramSnapshot& hist =
      got.hist(metrics::Hist::cache_lookup_seconds);
  EXPECT_EQ(hist.count, kObservations);
  EXPECT_EQ(hist.buckets, expected.buckets);
  EXPECT_EQ(hist.sum_nanos, expected.sum_nanos);
  EXPECT_EQ(got.counters.deadline_misses, solo_count);

  // The global registry was billed the same delta.
  const metrics::MetricsSnapshot global_after =
      metrics::global_shard().snapshot();
  EXPECT_EQ(global_after.hist(metrics::Hist::cache_lookup_seconds).count -
                global_before.hist(metrics::Hist::cache_lookup_seconds).count,
            kObservations);
}

INSTANTIATE_TEST_SUITE_P(Threads, MetricsThreads,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}));

TEST(MetricsLevel, SpanHistogramRespectsLevelGating) {
  const LevelGuard guard;
  metrics::MetricShard shard;
  TaskContext ctx;
  ctx.telemetry = &shard;
  ScopedTaskContext scope(&ctx);

  trace::set_level(trace::kCoarse);
  {
    // A fine histogram stays silent at the coarse level...
    const trace::Span fine(metrics::Hist::spmv_batch_seconds);
    // ...while a coarse one records.
    const trace::Span coarse(metrics::Hist::cg_seconds);
  }
  EXPECT_EQ(shard.snapshot().hist(metrics::Hist::spmv_batch_seconds).count, 0u);
  EXPECT_EQ(shard.snapshot().hist(metrics::Hist::cg_seconds).count, 1u);
}

TEST(MetricsLevel, DefaultLevelTimesEverySolve) {
  const LevelGuard guard;
  trace::set_level(trace::kCoarse);
  metrics::MetricShard shard;
  TaskContext ctx;
  ctx.telemetry = &shard;
  const ScopedTaskContext scope(&ctx);
  const BenchmarkCase bench = make_iccad_case(1);
  const CoolingNetwork net = make_tree_network(
      bench.problem.grid, make_uniform_layout(bench.problem.grid, 8, 16));
  const EvalResult result =
      evaluate(bench.problem, net, bench.constraints, EvalMode::kFullP1,
               SimConfig{ThermalModelKind::k2RM, 4}, {});
  EXPECT_TRUE(result.feasible);
  const metrics::MetricsSnapshot s = shard.snapshot();
  EXPECT_GT(s.counters.steady_solves, 0u);
  EXPECT_EQ(s.hist(metrics::Hist::solve_steady_seconds).count,
            s.counters.steady_solves);
  EXPECT_EQ(s.hist(metrics::Hist::bicgstab_seconds).count,
            s.counters.bicgstab_solves);
  // Fine histograms stay off at the default level.
  EXPECT_EQ(s.hist(metrics::Hist::spmv_batch_seconds).count, 0u);
}

TEST(MetricsSnapshotJson, CarriesHistogramsGaugesCounters) {
  metrics::MetricShard shard;
  shard.histograms[static_cast<std::size_t>(
                       metrics::Hist::solve_steady_seconds)]
      .observe(3e-6);
  shard.gauges[static_cast<std::size_t>(metrics::Gauge::queue_depth)].store(5);
  shard.counter(instrument::Counter::deadline_misses).store(2);
  const std::string json = shard.snapshot().json();
  EXPECT_NE(json.find("\"solve_steady_seconds\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sum_nanos\":3000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_misses\":2"), std::string::npos) << json;
}

TEST(MetricsPrometheus, GoldenExpositionFormat) {
  metrics::MetricShard shard;
  // Two observations in bucket 0 (1 µs each) and one in bucket 2 (3 µs):
  // cumulative bucket series 2, 2, 3, 3, ... and sum_nanos = 5000.
  auto& hist = shard.histograms[static_cast<std::size_t>(
      metrics::Hist::solve_steady_seconds)];
  hist.observe(1e-6);
  hist.observe(1e-6);
  hist.observe(3e-6);
  shard.gauges[static_cast<std::size_t>(metrics::Gauge::running_jobs)]
      .store(3);
  shard.counter(instrument::Counter::deadline_misses).store(7);

  const std::string text =
      metrics::prometheus_text(shard.snapshot(), "foo=\"bar\"");

  const char* const expected[] = {
      "# HELP lcn_solve_steady_seconds Steady-state thermal solve wall time\n",
      "# TYPE lcn_solve_steady_seconds histogram\n",
      "lcn_solve_steady_seconds_bucket{foo=\"bar\",le=\"1e-06\"} 2\n",
      "lcn_solve_steady_seconds_bucket{foo=\"bar\",le=\"2e-06\"} 2\n",
      "lcn_solve_steady_seconds_bucket{foo=\"bar\",le=\"4e-06\"} 3\n",
      "lcn_solve_steady_seconds_bucket{foo=\"bar\",le=\"+Inf\"} 3\n",
      "lcn_solve_steady_seconds_sum{foo=\"bar\"} 5e-06\n",
      "lcn_solve_steady_seconds_count{foo=\"bar\"} 3\n",
      "# TYPE lcn_running_jobs gauge\n",
      "lcn_running_jobs{foo=\"bar\"} 3\n",
      "# TYPE lcn_deadline_misses_total counter\n",
      "lcn_deadline_misses_total{foo=\"bar\"} 7\n",
      // Every instrument work counter rides along.
      "# TYPE lcn_steady_solves_total counter\n",
  };
  for (const char* line : expected) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  }
  // An empty label set must not leave dangling braces.
  const std::string bare = metrics::prometheus_text(shard.snapshot(), "");
  EXPECT_NE(bare.find("lcn_solve_steady_seconds_bucket{le=\"1e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(bare.find("lcn_solve_steady_seconds_count 3\n"),
            std::string::npos);
  EXPECT_EQ(bare.find("{}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The one counter list: every entry is rendered, diffed, drained and sharded.

struct RegistryEntry {
  instrument::Counter counter;
  const char* name;
  std::uint64_t instrument::Snapshot::*field;
};

#define LCN_TEST_REGISTRY_ENTRY(name, help) \
  {instrument::Counter::name, #name, &instrument::Snapshot::name},
constexpr RegistryEntry kRegistry[] = {
    LCN_INSTRUMENT_COUNTERS(LCN_TEST_REGISTRY_ENTRY)};
#undef LCN_TEST_REGISTRY_ENTRY

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(CounterRegistry, EveryCounterIsRenderedDiffedDrainedAndSharded) {
  ASSERT_EQ(std::size(kRegistry), instrument::kCounterCount);
  const std::string json = instrument::Snapshot{}.json();
  const std::string prom =
      metrics::prometheus_text(metrics::MetricShard{}.snapshot(), "");
  for (const RegistryEntry& e : kRegistry) {
    SCOPED_TRACE(e.name);
    const std::string family = std::string("lcn_") + e.name + "_total";
    EXPECT_EQ(occurrences(json, "\"" + std::string(e.name) + "\":"), 1u);
    EXPECT_EQ(occurrences(prom, "# HELP " + family + " "), 1u);
    EXPECT_EQ(occurrences(prom, "# TYPE " + family + " counter\n"), 1u);
    EXPECT_EQ(occurrences(prom, "\n" + family + " 0\n"), 1u);

    instrument::Snapshot before;
    instrument::Snapshot after;
    before.*e.field = 4;
    after.*e.field = 11;
    EXPECT_EQ(instrument::delta(before, after).*e.field, 7u);

    // A bump under a TaskContext lands in the global totals and the shard.
    (void)instrument::snapshot_and_reset();
    metrics::MetricShard shard;
    TaskContext ctx;
    ctx.telemetry = &shard;
    {
      ScopedTaskContext scope(&ctx);
      instrument::add(e.counter, 3);
      EXPECT_EQ(instrument::task_count(e.counter), 3u);
    }
    EXPECT_EQ(shard.snapshot().counters.*e.field, 3u);
    EXPECT_EQ(instrument::snapshot_and_reset().*e.field, 3u);
    EXPECT_EQ(instrument::snapshot().*e.field, 0u);
    EXPECT_EQ(shard.drain_counters().*e.field, 3u);
    EXPECT_EQ(shard.counter_snapshot().*e.field, 0u);
  }
}

// ---------------------------------------------------------------------------
// Live loopback server: the `metrics` op and the co-hosted HTTP endpoint.

/// Connect a blocking TCP socket to "tcp:127.0.0.1:PORT".
int connect_tcp(const std::string& address) {
  const auto colon = address.rfind(':');
  const int port = std::stoi(address.substr(colon + 1));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << "connect to " << address << ": " << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_line(int fd) {
  std::string line;
  char ch = 0;
  while (::recv(fd, &ch, 1, 0) == 1) {
    if (ch == '\n') break;
    line.push_back(ch);
  }
  return line;
}

std::string recv_until_eof(int fd) {
  std::string data;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    data.append(buf, static_cast<std::size_t>(n));
  }
  return data;
}

TEST(MetricsServer, MetricsOpAndPrometheusScrapeOverLoopback) {
  service::ServerOptions options;
  options.address = "tcp:127.0.0.1:0";  // ephemeral port
  options.max_running = 1;
  service::Server server(options);
  std::thread runner([&server] { server.run(); });

  // NDJSON metrics op.
  {
    const int fd = connect_tcp(server.address());
    ASSERT_GE(fd, 0);
    send_all(fd, "{\"op\":\"metrics\"}\n");
    const std::string reply = recv_line(fd);
    ::close(fd);
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"histograms\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"queue_depth\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"manifest\""), std::string::npos) << reply;
  }

  // HTTP scrape on the same port; the server answers and closes.
  {
    const int fd = connect_tcp(server.address());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /metrics HTTP/1.0\r\n\r\n");
    const std::string response = recv_until_eof(fd);
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(response.find("# TYPE lcn_solve_steady_seconds histogram"),
              std::string::npos);
    EXPECT_NE(response.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(response.find("lcn_metrics_scrapes_total"), std::string::npos);
  }

  // Unknown paths get a 404, not a protocol error.
  {
    const int fd = connect_tcp(server.address());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /other HTTP/1.0\r\n\r\n");
    const std::string response = recv_until_eof(fd);
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos);
  }

  server.request_shutdown();
  runner.join();
}

}  // namespace
}  // namespace lcn
