// Observability subsystem tests: span recording semantics (nesting,
// thread attribution, ring wraparound, the disabled no-op), the
// Chrome-trace export round-tripping through the strict JSON parser,
// histogram "le"-bucket edge cases, the default latency bounds' stated
// error, the metrics registry JSON schema, the MICRONAS_LOG_LEVEL env
// hook, and a writers-vs-snapshot stress test that the CI TSan job
// runs to certify the lock-free ring handshake.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace micronas {
namespace {

/// Every trace test owns the global recorder: start clean, end clean.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable_tracing();
    obs::reset_trace();
  }
  void TearDown() override {
    obs::disable_tracing();
    obs::reset_trace();
  }
};

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    obs::Span span("never");
    EXPECT_FALSE(span.active());
    span.tag("ignored", std::string("value"));  // must be a no-op
  }
  EXPECT_TRUE(obs::snapshot_trace().empty());
  EXPECT_EQ(obs::dropped_events(), 0U);
}

TEST_F(TraceTest, SpanStraddlingDisableSkipsRecording) {
  obs::enable_tracing();
  {
    obs::Span span("straddle");
    EXPECT_TRUE(span.active());
    obs::disable_tracing();
  }  // destructor sees tracing off -> drop, never a torn record
  EXPECT_TRUE(obs::snapshot_trace().empty());
}

TEST_F(TraceTest, NestingIsReconstructibleFromOneThread) {
  obs::enable_tracing();
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
      inner.tag("depth", static_cast<long long>(2));
    }
    {
      OBS_SPAN("inner2");
    }
  }
  const std::vector<obs::TraceEvent> events = obs::snapshot_trace();
  ASSERT_EQ(events.size(), 3U);

  // Events are recorded at destruction: children retire before their
  // parent, so seq orders inner, inner2, outer.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "inner2");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);

  // Same thread, and interval containment holds: the parent's window
  // covers both children, and the siblings do not overlap.
  const obs::TraceEvent& outer_ev = events[2];
  for (const obs::TraceEvent& child : {events[0], events[1]}) {
    EXPECT_EQ(child.tid, outer_ev.tid);
    EXPECT_GE(child.start_us, outer_ev.start_us);
    EXPECT_LE(child.start_us + child.dur_us, outer_ev.start_us + outer_ev.dur_us + 1e-6);
  }
  EXPECT_LE(events[0].start_us + events[0].dur_us, events[1].start_us + 1e-6);

  ASSERT_EQ(events[0].tags.size(), 1U);
  EXPECT_STREQ(events[0].tags[0].first, "depth");
  EXPECT_EQ(events[0].tags[0].second, "2");
}

TEST_F(TraceTest, ThreadsGetDistinctTidsAndPrivateSequences) {
  obs::enable_tracing();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        OBS_SPAN("worker");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<obs::TraceEvent> events = obs::snapshot_trace();
  std::map<int, std::vector<std::uint64_t>> seq_by_tid;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "worker") seq_by_tid[e.tid].push_back(e.seq);
  }
  ASSERT_EQ(seq_by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, seqs] : seq_by_tid) {
    EXPECT_GE(tid, 0);
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kSpansPerThread)) << "tid " << tid;
    // snapshot_trace sorts by (tid, seq); a thread's sequence is
    // strictly monotone — the per-thread ordering is trustworthy.
    for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDrops) {
  obs::reset_trace();
  obs::set_ring_capacity(64);  // applies to rings registered after
  std::thread recorder([] {
    obs::enable_tracing();
    for (int i = 0; i < 200; ++i) {
      OBS_SPAN("wrap");
    }
  });
  recorder.join();

  const std::uint64_t dropped = obs::dropped_events();
  const std::vector<obs::TraceEvent> events = obs::snapshot_trace();
  std::vector<const obs::TraceEvent*> wraps;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "wrap") wraps.push_back(&e);
  }
  ASSERT_EQ(wraps.size(), 64U);  // ring holds exactly its capacity
  EXPECT_EQ(dropped, 200U - 64U);
  // The survivors are the *newest* 200-64 .. 199 (seq starts at the
  // ring's first record; relative check keeps it robust).
  for (std::size_t i = 1; i < wraps.size(); ++i) {
    EXPECT_EQ(wraps[i]->seq, wraps[i - 1]->seq + 1);
  }
  obs::set_ring_capacity(1 << 16);  // restore the default for later tests
}

TEST_F(TraceTest, ChromeTraceRoundTripsThroughStrictParser) {
  obs::enable_tracing();
  {
    obs::Span span("qconv2d");
    span.tag("kernel", std::string("im2col-gemm"));
    span.tag("bytes", static_cast<long long>(16384));
  }
  { OBS_SPAN("rt.run"); }
  obs::disable_tracing();

  const json::Json doc = obs::chrome_trace_json();
  // Round trip: our serializer's output must satisfy our strict parser.
  const json::Json parsed = json::Json::parse(doc.dump());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");

  const json::JsonArray& events = parsed.at("traceEvents").as_array();
  std::size_t meta = 0, complete = 0;
  bool saw_tagged = false;
  for (const json::Json& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 1.0);
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_TRUE(e.at("args").is_object());
    if (e.at("name").as_string() == "qconv2d") {
      saw_tagged = true;
      EXPECT_EQ(e.at("args").at("kernel").as_string(), "im2col-gemm");
      EXPECT_EQ(e.at("args").at("bytes").as_string(), "16384");
    }
  }
  EXPECT_GE(meta, 1U);
  EXPECT_EQ(complete, 2U);
  EXPECT_TRUE(saw_tagged);
}

TEST_F(TraceTest, SnapshotWhileRecordingIsRaceFree) {
  // The TSan certification target (CI runs this test under
  // -fsanitize=thread): writer threads hammer spans while the main
  // thread repeatedly snapshots (each snapshot disables tracing,
  // quiesces the rings, reads them) and re-enables.
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  obs::enable_tracing();
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::Span span("stress");
        span.tag("i", static_cast<long long>(1));
      }
    });
  }
  std::size_t total = 0;
  // At least 50 contended rounds; keep going (bounded) until a writer
  // has landed an event — on a loaded CI machine the writers can be
  // descheduled for a whole round, so each round leaves tracing
  // enabled for a real window before snapshotting.
  for (int round = 0; round < 50 || (total == 0 && round < 2000); ++round) {
    obs::enable_tracing();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    total += obs::snapshot_trace().size();  // disables tracing
    (void)obs::dropped_events();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  obs::disable_tracing();
  EXPECT_GT(total, 0U);
}

// ------------------------------------------------------------ histograms

TEST(ObsHistogram, LeBucketBoundariesAreInclusive) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // <= 1 (boundary lands in its own bucket, "le")
  h.observe(1.5);  // <= 2
  h.observe(2.0);  // <= 2
  h.observe(4.0);  // <= 4
  h.observe(4.1);  // +inf
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4U);
  EXPECT_EQ(buckets[0], 2U);
  EXPECT_EQ(buckets[1], 2U);
  EXPECT_EQ(buckets[2], 1U);
  EXPECT_EQ(buckets[3], 1U);
  EXPECT_EQ(h.count(), 6U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1);
}

TEST(ObsHistogram, PercentilesInterpolateAndSaturateAtInf) {
  obs::Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);  // all in the first bucket
  EXPECT_GT(h.percentile(0.5), 0.0);
  EXPECT_LE(h.percentile(0.5), 10.0);

  obs::Histogram tail({1.0});
  tail.observe(100.0);  // +inf bucket only
  // The histogram cannot resolve past its largest finite bound.
  EXPECT_DOUBLE_EQ(tail.percentile(0.99), 1.0);

  obs::Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(ObsHistogram, NanCountsTowardInfBucketNotSum) {
  obs::Histogram h({1.0});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(0.5);
  EXPECT_EQ(h.count(), 2U);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0], 1U);  // the 0.5
  EXPECT_EQ(buckets[1], 1U);  // the NaN
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);  // NaN never poisons the sum
}

TEST(ObsHistogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::runtime_error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::runtime_error);
  // Degenerate but legal: no finite bounds means everything lands in
  // the +inf bucket and percentiles cannot resolve (report 0).
  obs::Histogram inf_only({});
  inf_only.observe(42.0);
  EXPECT_EQ(inf_only.count(), 1U);
  ASSERT_EQ(inf_only.bucket_counts().size(), 1U);
  EXPECT_EQ(inf_only.bucket_counts()[0], 1U);
  EXPECT_DOUBLE_EQ(inf_only.percentile(0.5), 0.0);
}

// For samples in (2^-5, 2^14] ms, every percentile of the default
// latency bounds lies within 2^(1/8) - 1 of the nearest-rank sample.
// Sparse sets, with most buckets holding one sample or none, are the
// hard case, so n starts at 1.
TEST(ObsHistogram, DefaultLatencyBoundsKeepTheStatedError) {
  const std::vector<double> bounds = obs::Histogram::default_latency_ms_bounds();
  EXPECT_EQ(bounds.size(), 193U);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0 / 1024.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 16384.0);
  const double bound = std::exp2(1.0 / 8.0) - 1.0;
  for (const int n : {1, 2, 3, 7, 31, 256, 1000, 4096}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(n));
      obs::Histogram h(bounds);
      std::vector<double> samples(static_cast<std::size_t>(n));
      for (double& x : samples) {
        x = std::exp2(14.0 - rng.uniform(0.0, 24.0));  // log-uniform in (2^-10, 2^14]
        h.observe(x);
      }
      std::sort(samples.begin(), samples.end());
      for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
        const auto rank = static_cast<std::size_t>(std::ceil(q * n));
        const double exact = samples[std::max<std::size_t>(1, rank) - 1];
        EXPECT_LE(std::abs(h.percentile(q) - exact), bound * exact)
            << "n " << n << " seed " << seed << " q " << q;
      }
    }
  }
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, InternsHandlesAndRoundTripsJson) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("test.obs.counter");
  EXPECT_EQ(&c, &reg.counter("test.obs.counter"));  // same handle
  c.reset();
  c.add(3);
  reg.gauge("test.obs.gauge").set(0.75);
  obs::Histogram& h = reg.histogram("test.obs.hist", {1.0, 10.0});
  h.reset();
  h.observe(0.5);
  h.observe(5.0);

  // Same name with different bounds is a registration bug, not a new
  // histogram.
  EXPECT_THROW(reg.histogram("test.obs.hist", {2.0, 20.0}), std::runtime_error);

  const json::Json parsed = json::Json::parse(reg.to_json().dump());
  EXPECT_DOUBLE_EQ(parsed.at("schema_version").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("test.obs.counter").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("test.obs.gauge").as_number(), 0.75);
  const json::Json& hist = parsed.at("histograms").at("test.obs.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 5.5);
  EXPECT_EQ(hist.at("bucket_counts").as_array().size(), 3U);  // 2 bounds + inf

  const std::string table = reg.render_table("test.obs.");
  EXPECT_NE(table.find("test.obs.counter"), std::string::npos);
  EXPECT_NE(table.find("test.obs.hist"), std::string::npos);
  EXPECT_EQ(reg.render_table("no.such.prefix."), "");

  c.reset();
  reg.gauge("test.obs.gauge").reset();
  h.reset();
}

// ------------------------------------------------------------------- log

TEST(ObsLog, EnvVarControlsStartupLevel) {
  const LogLevel before = log_level();
  ::setenv("MICRONAS_LOG_LEVEL", "warn", 1);
  EXPECT_EQ(init_log_level_from_env(), LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  ::setenv("MICRONAS_LOG_LEVEL", "DEBUG", 1);  // case-insensitive
  EXPECT_EQ(init_log_level_from_env(), LogLevel::kDebug);
  ::setenv("MICRONAS_LOG_LEVEL", "not-a-level", 1);
  EXPECT_EQ(init_log_level_from_env(), LogLevel::kInfo);  // fallback
  ::unsetenv("MICRONAS_LOG_LEVEL");
  set_log_level(before);
}

}  // namespace
}  // namespace micronas
