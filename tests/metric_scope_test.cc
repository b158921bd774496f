// Session-scoped metric domains (common/metric_scope.h), histogram
// quantile estimation, and the exposition-name sanitization behind
// Prometheus export (common/metric_names.h): scopes must isolate
// concurrent sessions, flushes must roll up exactly once, and
// sanitization must reject any registry name that cannot round-trip.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metric_names.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/status.h"
#include "datagen/travel.h"
#include "relation/table.h"
#include "repair/lrepair.h"
#include "repair/session.h"

namespace fixrep {
namespace {

uint64_t GlobalCounterValue(const std::string& name) {
  const Counter* c = MetricsRegistry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

// ---------------------------------------------------------------------
// Histogram quantiles.

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.P50(), 0.0);
  EXPECT_EQ(snap.P99(), 0.0);
}

TEST(HistogramQuantileTest, SingleObservationClampsToThatValue) {
  Histogram h;
  h.Observe(100);
  const HistogramSnapshot snap = h.Snapshot();
  // Interpolation inside the [64, 128) bucket is clamped to [min, max],
  // which for one observation pins every quantile to the value itself.
  EXPECT_EQ(snap.P50(), 100.0);
  EXPECT_EQ(snap.P95(), 100.0);
  EXPECT_EQ(snap.P99(), 100.0);
}

TEST(HistogramQuantileTest, QuantilesAreMonotoneAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 1000u);
  const double p10 = snap.Quantile(0.10);
  const double p50 = snap.P50();
  const double p95 = snap.P95();
  const double p99 = snap.P99();
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p10, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Power-of-two buckets bound the estimate to within one bucket width:
  // the true p50 of 1..1000 is 500, inside the [512, 1024) or [256, 512)
  // neighborhood depending on interpolation.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(HistogramQuantileTest, UnitTagFirstWriterWins) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("fixrep.test.latency_ns", "ns");
  EXPECT_STREQ(h->unit(), "ns");
  // A later registration with a different unit is ignored.
  registry.GetHistogram("fixrep.test.latency_ns", "bytes");
  EXPECT_STREQ(h->unit(), "ns");
  EXPECT_STREQ(h->Snapshot().unit, "ns");
}

// ---------------------------------------------------------------------
// Exposition-name sanitization.

TEST(MetricNamesTest, ExposableNames) {
  EXPECT_TRUE(IsExposableMetricName("fixrep.lrepair.tuples_examined"));
  EXPECT_TRUE(IsExposableMetricName("fixrep.span.lrepair.chase_ns"));
  EXPECT_TRUE(IsExposableMetricName("a"));
  EXPECT_FALSE(IsExposableMetricName(""));
  EXPECT_FALSE(IsExposableMetricName("."));
  EXPECT_FALSE(IsExposableMetricName("a..b"));
  EXPECT_FALSE(IsExposableMetricName(".a"));
  EXPECT_FALSE(IsExposableMetricName("a."));
  EXPECT_FALSE(IsExposableMetricName("Fixrep.counter"));  // uppercase
  EXPECT_FALSE(IsExposableMetricName("fixrep.1counter"));  // digit-led segment
  EXPECT_FALSE(IsExposableMetricName("fixrep._counter"));  // '_'-led segment
  EXPECT_FALSE(IsExposableMetricName("test.json \"quoted\""));
}

TEST(MetricNamesTest, SanitizeRewritesDots) {
  std::string out;
  ASSERT_TRUE(SanitizeMetricName("fixrep.memo.hit_rate", &out).ok());
  EXPECT_EQ(out, "fixrep_memo_hit_rate");

  std::string untouched = "sentinel";
  const Status status = SanitizeMetricName("bad name", &untouched);
  EXPECT_EQ(status.code(), StatusCode::kMalformedInput);
  EXPECT_EQ(untouched, "sentinel");
}

TEST(MetricNamesTest, MapRejectsCollisionsAndStaysIdempotent) {
  MetricNameMap map;
  ASSERT_TRUE(map.Add("a.b_c").ok());
  // a_b.c sanitizes to the same a_b_c — the second name must lose.
  const Status collision = map.Add("a_b.c");
  EXPECT_EQ(collision.code(), StatusCode::kMalformedInput);

  ASSERT_NE(map.Sanitized("a.b_c"), nullptr);
  EXPECT_EQ(*map.Sanitized("a.b_c"), "a_b_c");
  EXPECT_EQ(map.Sanitized("a_b.c"), nullptr);  // rejected
  ASSERT_NE(map.Original("a_b_c"), nullptr);
  EXPECT_EQ(*map.Original("a_b_c"), "a.b_c");

  // Re-adding either name repeats the original verdict.
  EXPECT_TRUE(map.Add("a.b_c").ok());
  EXPECT_EQ(map.Add("a_b.c").code(), StatusCode::kMalformedInput);
  EXPECT_EQ(map.Add("no good").code(), StatusCode::kMalformedInput);
  EXPECT_EQ(map.Sanitized("no good"), nullptr);
}

TEST(MetricNamesTest, RegistryExposesRoundTrippableNamesOnly) {
  MetricsRegistry registry;
  registry.GetCounter("fixrep.test.requests");
  registry.GetCounter("bad name");  // registers locally, hidden from export
  ASSERT_NE(registry.PrometheusName("fixrep.test.requests"), nullptr);
  EXPECT_EQ(*registry.PrometheusName("fixrep.test.requests"),
            "fixrep_test_requests");
  EXPECT_EQ(registry.PrometheusName("bad name"), nullptr);
  // The hidden counter still works for local use.
  registry.GetCounter("bad name")->Add(3);
  EXPECT_EQ(registry.FindCounter("bad name")->Value(), 3u);
}

// ---------------------------------------------------------------------
// MetricScope.

TEST(MetricScopeTest, CurrentMetricsDefaultsToGlobal) {
  EXPECT_EQ(&CurrentMetrics(), &MetricsRegistry::Global());
}

TEST(MetricScopeTest, ActivationRoutesAndRestores) {
  MetricsRegistry parent;
  MetricScope outer(&parent);
  MetricScope inner(&parent);
  {
    MetricScope::Activation activate_outer(&outer);
    EXPECT_EQ(&CurrentMetrics(), &outer.registry());
    {
      MetricScope::Activation activate_inner(&inner);
      EXPECT_EQ(&CurrentMetrics(), &inner.registry());
    }
    EXPECT_EQ(&CurrentMetrics(), &outer.registry());  // restored
  }
  EXPECT_EQ(&CurrentMetrics(), &MetricsRegistry::Global());
}

TEST(MetricScopeTest, ConcurrentScopesAccumulateDisjointly) {
  MetricsRegistry parent;
  MetricScope a(&parent);
  MetricScope b(&parent);
  const auto publish = [](MetricScope* scope, uint64_t n) {
    MetricScope::Activation active(scope);
    for (uint64_t i = 0; i < n; ++i) {
      CurrentMetrics().GetCounter("fixrep.test.events")->Add(1);
    }
    CurrentMetrics().GetHistogram("fixrep.test.sizes_bytes", "bytes")
        ->Observe(n);
  };
  std::thread ta(publish, &a, uint64_t{1000});
  std::thread tb(publish, &b, uint64_t{7});
  ta.join();
  tb.join();

  EXPECT_EQ(a.registry().FindCounter("fixrep.test.events")->Value(), 1000u);
  EXPECT_EQ(b.registry().FindCounter("fixrep.test.events")->Value(), 7u);
  EXPECT_EQ(parent.FindCounter("fixrep.test.events"), nullptr);  // pre-flush

  a.Flush();
  b.Flush();
  EXPECT_EQ(parent.FindCounter("fixrep.test.events")->Value(), 1007u);
  const Histogram* merged = parent.FindHistogram("fixrep.test.sizes_bytes");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->Count(), 2u);
  EXPECT_EQ(merged->Sum(), 1007u);
  EXPECT_EQ(merged->Min(), 7u);
  EXPECT_EQ(merged->Max(), 1000u);
  EXPECT_STREQ(merged->unit(), "bytes");  // unit propagates through merge
}

TEST(MetricScopeTest, RepeatedFlushNeverDoubleCounts) {
  MetricsRegistry parent;
  MetricScope scope(&parent);
  {
    MetricScope::Activation active(&scope);
    CurrentMetrics().GetCounter("fixrep.test.events")->Add(5);
    CurrentMetrics().GetGauge("fixrep.test.level")->Set(42);
  }
  scope.Flush();
  scope.Flush();  // nothing new accumulated — must be a no-op
  EXPECT_EQ(parent.FindCounter("fixrep.test.events")->Value(), 5u);
  EXPECT_EQ(parent.FindGauge("fixrep.test.level")->Value(), 42);
  // Local values were reset by the first flush.
  EXPECT_EQ(scope.registry().FindCounter("fixrep.test.events")->Value(), 0u);
}

TEST(MetricScopeTest, DestructorFlushesRemainder) {
  MetricsRegistry parent;
  {
    MetricScope scope(&parent);
    MetricScope::Activation active(&scope);
    CurrentMetrics().GetCounter("fixrep.test.events")->Add(9);
  }
  EXPECT_EQ(parent.FindCounter("fixrep.test.events")->Value(), 9u);
}

// ---------------------------------------------------------------------
// Scoped sessions end to end: two concurrent RepairSessions, each called
// under its own MetricScope::Activation (what the daemon does per
// tenant), accumulate attributable, disjoint counts, repair output stays
// identical, and Flush rolls both up into the global registry.

TEST(ScopedSessionTest, TwoConcurrentSessionsStayAttributable) {
  TravelExample example;
  Table want = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&want);

  const uint64_t global_before =
      GlobalCounterValue("fixrep.lrepair.tuples_examined");

  MetricScope scope_a;
  MetricScope scope_b;
  RepairSession session_a(&example.rules);
  RepairSession session_b(&example.rules);

  Table table_a = example.dirty;
  Table table_b = example.dirty;
  StatusOr<RepairReport> report_a = Status::Internal("not run");
  StatusOr<RepairReport> report_b = Status::Internal("not run");
  std::thread ta([&]() {
    MetricScope::Activation active(&scope_a);
    report_a = session_a.Repair(&table_a);
  });
  std::thread tb([&]() {
    MetricScope::Activation active(&scope_b);
    report_b = session_b.Repair(&table_b);
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(report_a.ok()) << report_a.status().message();
  ASSERT_TRUE(report_b.ok()) << report_b.status().message();

  // Output is identical to the unscoped engine.
  for (size_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_EQ(table_a.row(r), want.row(r)) << "session a, row " << r;
    EXPECT_EQ(table_b.row(r), want.row(r)) << "session b, row " << r;
  }

  // Each scope's private registry saw exactly its own table.
  const uint64_t rows = example.dirty.num_rows();
  const Counter* examined_a =
      scope_a.registry().FindCounter("fixrep.lrepair.tuples_examined");
  const Counter* examined_b =
      scope_b.registry().FindCounter("fixrep.lrepair.tuples_examined");
  ASSERT_NE(examined_a, nullptr);
  ASSERT_NE(examined_b, nullptr);
  EXPECT_EQ(examined_a->Value(), rows);
  EXPECT_EQ(examined_b->Value(), rows);

  // Nothing leaked into the global registry before the flush...
  EXPECT_EQ(GlobalCounterValue("fixrep.lrepair.tuples_examined"),
            global_before);

  // ...and the flush rolls both up exactly once.
  scope_a.Flush();
  scope_b.Flush();
  scope_a.Flush();  // idempotent
  EXPECT_EQ(GlobalCounterValue("fixrep.lrepair.tuples_examined"),
            global_before + 2 * rows);
  EXPECT_EQ(examined_a->Value(), 0u);
}

TEST(ScopedSessionTest, UnscopedSessionUsesGlobalRegistry) {
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  const uint64_t global_before =
      GlobalCounterValue("fixrep.lrepair.tuples_examined");
  RepairSession session(&example.rules);
  Table table = example.dirty;
  ASSERT_TRUE(session.Repair(&table).ok());
  EXPECT_EQ(GlobalCounterValue("fixrep.lrepair.tuples_examined"),
            global_before + example.dirty.num_rows());
}

}  // namespace
}  // namespace fixrep
