// Unit tests for the observability layer: metrics instruments and
// registry (src/obs/metrics.h) and the structured span tracer
// (src/obs/trace.h), including the nullable-handle disabled path and a
// concurrency stress for the exact-totals guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace paleo {
namespace obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(0);
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketLadderIsExponentialMicroseconds) {
  // 2^i microseconds: bucket 0 tops at 1 us, bucket 10 at ~1.024 ms.
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 0.001);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 0.002);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1.024);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(i),
                     2.0 * Histogram::BucketUpperBound(i - 1));
  }
}

TEST(HistogramTest, ObservePlacesIntoCoveringBucket) {
  Histogram h;
  h.Observe(0.0005);  // below the first bound -> bucket 0
  h.Observe(1.0);     // 1 ms = 1024 us -> ceil(log2(1000)) = 10
  h.Observe(100000.0);  // 100 s > last finite bound -> +Inf bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(10), 1);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets), 1);
  EXPECT_NEAR(h.sum_ms(), 100001.0005, 0.01);
}

TEST(HistogramTest, ObserveClampsNanAndNegatives) {
  Histogram h;
  h.Observe(-5.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket_count(0), 2);  // both clamp to zero
  EXPECT_DOUBLE_EQ(h.sum_ms(), 0.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  // 100 observations all in bucket 10 (upper bound 1.024 ms, lower
  // 0.512 ms): p50 lands mid-bucket by linear interpolation.
  for (int i = 0; i < 100; ++i) h.Observe(1.0);
  double p50 = h.p50();
  EXPECT_GT(p50, 0.512);
  EXPECT_LE(p50, 1.024);
  EXPECT_NEAR(p50, 0.512 + (1.024 - 0.512) * 0.5, 1e-9);
  EXPECT_NEAR(h.p99(), 0.512 + (1.024 - 0.512) * 0.99, 1e-9);
}

TEST(HistogramTest, QuantileOfInfTailReportsLastFiniteBound) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Observe(1e9);  // all +Inf bucket
  EXPECT_DOUBLE_EQ(h.p99(),
                   Histogram::BucketUpperBound(Histogram::kNumBuckets - 1));
}

TEST(MetricsRegistryTest, FindOrCreateIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("paleo_x_total", "help");
  Counter* b = registry.FindOrCreateCounter("paleo_x_total", "other help");
  EXPECT_EQ(a, b);  // same (kind, name, labels) -> same instrument
  Counter* labeled =
      registry.FindOrCreateCounter("paleo_x_total", "help", "kind=\"a\"");
  EXPECT_NE(a, labeled);  // distinct label set -> distinct instrument
  EXPECT_EQ(registry.size(), 2u);
  a->Add(2);
  labeled->Add(3);
  EXPECT_EQ(registry.counter("paleo_x_total")->value(), 2);
  EXPECT_EQ(registry.counter("paleo_x_total", "kind=\"a\"")->value(), 3);
  EXPECT_EQ(registry.counter("absent"), nullptr);
  EXPECT_EQ(registry.gauge("paleo_x_total"), nullptr);  // kind mismatch
}

TEST(MetricsRegistryTest, RenderTextEmitsPrometheusExposition) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("paleo_runs_total", "Completed runs")
      ->Add(3);
  registry
      .FindOrCreateCounter("paleo_outcomes_total", "By outcome",
                           "outcome=\"executed\"")
      ->Add(5);
  registry
      .FindOrCreateCounter("paleo_outcomes_total", "By outcome",
                           "outcome=\"skipped\"")
      ->Add(7);
  registry.FindOrCreateGauge("paleo_queue_depth", "Queue depth")->Set(2);
  Histogram* h =
      registry.FindOrCreateHistogram("paleo_run_ms", "Run latency");
  h->Observe(1.0);
  h->Observe(1.0);

  std::string text = registry.RenderText();
  EXPECT_NE(text.find("# HELP paleo_runs_total Completed runs\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE paleo_runs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_runs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("paleo_outcomes_total{outcome=\"executed\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_outcomes_total{outcome=\"skipped\"} 7\n"),
            std::string::npos);
  // One HELP per family even with two label sets.
  EXPECT_EQ(text.find("# HELP paleo_outcomes_total"),
            text.rfind("# HELP paleo_outcomes_total"));
  EXPECT_NE(text.find("# TYPE paleo_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_queue_depth 2\n"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE paleo_run_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_run_ms_bucket{le=\"1.024\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("paleo_run_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_run_ms_sum 2.000000\n"), std::string::npos);
  EXPECT_NE(text.find("paleo_run_ms_count 2\n"), std::string::npos);
}

TEST(NullableHandleTest, DisabledHandlesAreNoOps) {
  // The disabled path must be callable with plain nulls — this is the
  // contract every instrumentation site without a registry relies on.
  Inc(nullptr);
  Inc(nullptr, 100);
  Set(nullptr, 5);
  Add(nullptr, -5);
  Observe(nullptr, 1.25);
  Counter c;
  Inc(&c, 2);
  EXPECT_EQ(c.value(), 2);
  Gauge g;
  Add(&g, 3);
  Set(&g, 9);
  EXPECT_EQ(g.value(), 9);
  Histogram h;
  Observe(&h, 0.5);
  EXPECT_EQ(h.count(), 1);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  // N threads hammer one counter and one histogram while also racing
  // FindOrCreate on the same names; totals must come out exact.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c =
          registry.FindOrCreateCounter("stress_total", "stress");
      Histogram* h =
          registry.FindOrCreateHistogram("stress_ms", "stress");
      Gauge* g = registry.FindOrCreateGauge("stress_depth", "stress");
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Observe(0.004);  // bucket 2
        g->Add(1);
        g->Add(-1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("stress_total")->value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("stress_ms")->count(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("stress_ms")->bucket_count(2),
            kThreads * kPerThread);
  EXPECT_EQ(registry.gauge("stress_depth")->value(), 0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, RenderTextLabeledHistogramRows) {
  // Regression for the render loop's reused row-label buffer: every
  // bucket row of a *labeled* histogram must compose as
  // `name_bucket{labels,le="..."}`, and two label sets of one family
  // must not bleed into each other.
  MetricsRegistry registry;
  Histogram* mine = registry.FindOrCreateHistogram(
      "paleo_stage_ms", "Stage latency", "stage=\"mine\"");
  Histogram* validate = registry.FindOrCreateHistogram(
      "paleo_stage_ms", "Stage latency", "stage=\"validate\"");
  mine->Observe(0.001);  // bucket 0 (le="0.001")
  mine->Observe(1.0);    // le="1.024"
  validate->Observe(0.5);  // le="0.512"

  std::string text = registry.RenderText();
  EXPECT_NE(
      text.find("paleo_stage_ms_bucket{stage=\"mine\",le=\"0.001\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("paleo_stage_ms_bucket{stage=\"mine\",le=\"1.024\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("paleo_stage_ms_bucket{stage=\"mine\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("paleo_stage_ms_sum{stage=\"mine\"} 1.001000\n"),
            std::string::npos);
  EXPECT_NE(text.find("paleo_stage_ms_count{stage=\"mine\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "paleo_stage_ms_bucket{stage=\"validate\",le=\"0.512\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("paleo_stage_ms_count{stage=\"validate\"} 1\n"),
            std::string::npos);
  // One HELP per family even with two label sets.
  EXPECT_EQ(text.find("# HELP paleo_stage_ms"),
            text.rfind("# HELP paleo_stage_ms"));
}

TEST(MetricsRegistryTest, ConcurrentRegisterVsScrape) {
  // Writers keep registering fresh (name, labels) pairs while scrapers
  // loop RenderText/lookup/size — registration takes the writer lock,
  // scrapes share the reader lock, and nothing may tear (TSan lane
  // covers this test). Totals and the final exposition must be exact.
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kScrapers = 2;
  constexpr int kPerWriter = 64;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string labels =
            "writer=\"" + std::to_string(w) + "\",i=\"" +
            std::to_string(i) + "\"";
        registry
            .FindOrCreateCounter("paleo_scrape_race_total", "race",
                                 labels)
            ->Add(1);
        registry.FindOrCreateHistogram("paleo_scrape_race_ms", "race",
                                       labels)
            ->Observe(0.004);
      }
    });
  }
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([&registry, &done] {
      size_t renders = 0;
      while (!done.load(std::memory_order_relaxed) || renders == 0) {
        // The scrape must always see a structurally complete exposition
        // (never a half-registered entry): any sample line implies its
        // family header was rendered first.
        std::string text = registry.RenderText();
        if (!text.empty()) {
          EXPECT_EQ(text.find("# HELP"), 0u) << text.substr(0, 120);
        }
        (void)registry.counter("paleo_scrape_race_total",
                               "writer=\"0\",i=\"0\"");
        (void)registry.size();
        ++renders;
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(registry.size(),
            static_cast<size_t>(2 * kWriters * kPerWriter));
  std::string text = registry.RenderText();
  EXPECT_EQ(text.find("# HELP paleo_scrape_race_total"),
            text.rfind("# HELP paleo_scrape_race_total"));
  EXPECT_NE(text.find("paleo_scrape_race_total{writer=\"3\",i=\"" +
                      std::to_string(kPerWriter - 1) + "\"} 1\n"),
            std::string::npos);
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, BuildsSpanTree) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  Trace::SpanId root = trace.StartSpan("run");
  Trace::SpanId child = trace.StartSpan("validate", root);
  EXPECT_FALSE(trace.span(child).finished());
  trace.EndSpan(child);
  trace.EndSpan(root);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.span(root).parent, Trace::kNoSpan);
  EXPECT_EQ(trace.span(child).parent, root);
  EXPECT_TRUE(trace.span(child).finished());
  EXPECT_GE(trace.span(root).duration_ms(), 0.0);
  const Span* found = trace.FindSpan("validate");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->parent, root);
  EXPECT_EQ(trace.FindSpan("absent"), nullptr);
}

TEST(TraceTest, EndSpanFirstEndWins) {
  Trace trace;
  Trace::SpanId id = trace.StartSpan("s");
  trace.EndSpan(id);
  auto first = trace.span(id).end;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  trace.EndSpan(id);  // idempotent
  EXPECT_EQ(trace.span(id).end, first);
  // Out-of-range ids are ignored, not UB.
  trace.EndSpan(Trace::kNoSpan);
  trace.EndSpan(99);
  trace.AddAttr(Trace::kNoSpan, "k", int64_t{1});
}

TEST(TraceTest, TypedAttributes) {
  Trace trace;
  Trace::SpanId id = trace.StartSpan("s");
  trace.AddAttr(id, "count", int64_t{7});
  trace.AddAttr(id, "ratio", 0.5);
  trace.AddAttr(id, "state", std::string_view("done"));
  trace.EndSpan(id);
  const std::vector<SpanAttr>& attrs = trace.span(id).attrs;
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].kind, SpanAttr::Kind::kInt);
  EXPECT_EQ(attrs[0].i, 7);
  EXPECT_EQ(attrs[1].kind, SpanAttr::Kind::kDouble);
  EXPECT_DOUBLE_EQ(attrs[1].d, 0.5);
  EXPECT_EQ(attrs[2].kind, SpanAttr::Kind::kString);
  EXPECT_EQ(attrs[2].s, "done");
}

TEST(TraceTest, ScopedSpanIsNullTolerantRaii) {
  {
    ScopedSpan off(nullptr, "ignored");
    off.AddAttr("k", int64_t{1});
    off.End();  // all no-ops
    EXPECT_EQ(off.trace(), nullptr);
  }
  Trace trace;
  {
    ScopedSpan outer(&trace, "outer");
    ScopedSpan inner(&trace, "inner", outer.id());
    inner.AddAttr("n", int64_t{3});
  }  // both end on scope exit
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace.span(0).finished());
  EXPECT_TRUE(trace.span(1).finished());
  EXPECT_EQ(trace.span(1).parent, 0);
  ASSERT_EQ(trace.span(1).attrs.size(), 1u);
}

TEST(TraceTest, AdoptRebasesParents) {
  Trace inner;
  Trace::SpanId run = inner.StartSpan("run");
  Trace::SpanId validate = inner.StartSpan("validate", run);
  inner.EndSpan(validate);
  inner.EndSpan(run);

  Trace session;
  Trace::SpanId root = session.StartSpan("session");
  Trace::SpanId grafted = session.Adopt(inner, root);
  session.EndSpan(root);
  ASSERT_EQ(grafted, 1);
  ASSERT_EQ(session.size(), 3u);
  // Inner's root hangs under the session span; inner's child keeps its
  // relative structure, rebased into the new arena.
  EXPECT_EQ(session.span(1).parent, root);
  EXPECT_EQ(session.span(2).parent, 1);
  EXPECT_EQ(session.span(2).name, "validate");
  // Adopting an empty trace is a no-op.
  Trace empty;
  EXPECT_EQ(session.Adopt(empty, root), Trace::kNoSpan);
}

TEST(TraceTest, ToJsonNestsChildrenAndEscapes) {
  Trace trace;
  EXPECT_EQ(trace.ToJson(), "[]");
  Trace::SpanId root = trace.StartSpan("run");
  Trace::SpanId child = trace.StartSpan("find \"predicates\"", root);
  trace.AddAttr(child, "count", int64_t{12});
  trace.AddAttr(child, "note", std::string_view("a\nb"));
  trace.EndSpan(child);
  trace.EndSpan(root);
  std::string json = trace.ToJson();
  EXPECT_EQ(json.front(), '{');  // single root -> object, not array
  EXPECT_NE(json.find("\"name\":\"run\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"find \\\"predicates\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":12"), std::string::npos);
  EXPECT_NE(json.find("\"a\\nb\""), std::string::npos);
  EXPECT_NE(json.find("\"start_ms\":0.000"), std::string::npos);

  // Two roots render as an array.
  Trace pair;
  pair.EndSpan(pair.StartSpan("a"));
  pair.EndSpan(pair.StartSpan("b"));
  std::string arr = pair.ToJson();
  EXPECT_EQ(arr.front(), '[');
  EXPECT_EQ(arr.back(), ']');
}

}  // namespace
}  // namespace obs
}  // namespace paleo
