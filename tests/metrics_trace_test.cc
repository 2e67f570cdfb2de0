// The observability layer: metrics primitives and registry exposition,
// the trace recorder's chrome://tracing JSON, the engine's per-stage
// instrumentation, and the configurable logging sink.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "seraph/continuous_engine.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, FirstSampleSetsMinAndMax) {
  Histogram h;
  h.Record(5);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 5);
  EXPECT_EQ(snap.max, 5);
  EXPECT_EQ(snap.sum, 5);
  EXPECT_DOUBLE_EQ(snap.mean, 5.0);
  // A single sample's percentiles are clamped to [min, max] = {5}.
  EXPECT_EQ(snap.p50, 5);
  EXPECT_EQ(snap.p99, 5);
}

TEST(HistogramTest, ZeroFirstSample) {
  Histogram h;
  h.Record(0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.p50, 0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-7);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.sum, 0);
}

TEST(HistogramTest, PercentileInterpolationWithinBucket) {
  Histogram h;
  // 100 samples spread across the [64, 128) bucket.
  for (int i = 0; i < 100; ++i) h.Record(64 + i % 64);
  HistogramSnapshot snap = h.Snapshot();
  // Interpolation keeps estimates inside the bucket (and inside
  // [min, max]).
  EXPECT_GE(snap.p50, 64);
  EXPECT_LE(snap.p50, 127);
  EXPECT_GE(snap.p90, snap.p50);
  EXPECT_GE(snap.p99, snap.p90);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(HistogramTest, PercentilesOrderedAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);   // [8,16) bucket.
  for (int i = 0; i < 10; ++i) h.Record(1000);  // [512,1024) bucket.
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_GE(snap.p50, 8);
  EXPECT_LE(snap.p50, 16);
  EXPECT_GE(snap.p99, 512);
  EXPECT_LE(snap.p99, 1000);
  EXPECT_EQ(snap.count, 100);
}

TEST(HistogramTest, ResetClearsState) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.Snapshot().max, 0);
}

// ---------------------------------------------------------------------------
// Counter / Gauge / registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.CounterFor("seraph_test_total", {{"q", "x"}});
  Counter* b = registry.CounterFor("seraph_test_total", {{"q", "x"}});
  Counter* c = registry.CounterFor("seraph_test_total", {{"q", "y"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(3);
  EXPECT_EQ(registry.FindCounter("seraph_test_total", {{"q", "x"}})->value(),
            3);
  EXPECT_EQ(registry.FindCounter("seraph_test_total", {{"q", "z"}}),
            nullptr);
  EXPECT_EQ(registry.FindCounter("absent_total"), nullptr);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(MetricsRegistryTest, GaugeMovesBothWays) {
  MetricsRegistry registry;
  Gauge* g = registry.GaugeFor("seraph_level");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsSeries) {
  MetricsRegistry registry;
  Counter* c = registry.CounterFor("seraph_c_total");
  Histogram* h = registry.HistogramFor("seraph_h_micros");
  c->Increment(5);
  h->Record(100);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(registry.series_count(), 2u);
  // Pointers stay valid after Reset.
  c->Increment();
  EXPECT_EQ(registry.FindCounter("seraph_c_total")->value(), 1);
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_events_total", {{"stream", "s1"}})
      ->Increment(7);
  registry.GaugeFor("seraph_queries_registered")->Set(2);
  Histogram* h =
      registry.HistogramFor("seraph_stage_micros",
                            {{"query", "q"}, {"stage", "match"}});
  h->Record(100);
  h->Record(200);
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE seraph_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("seraph_events_total{stream=\"s1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE seraph_queries_registered gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("seraph_queries_registered 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE seraph_stage_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros{query=\"q\",stage=\"match\",quantile=\"0.5\"}"),
      std::string::npos);
  // Native cumulative buckets: 100 and 200 both land in [64, 128) and
  // [128, 256) respectively, so le="127" counts 1, le="255" counts 2, and
  // +Inf always equals _count.
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"127\"} "
          "1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"255\"} "
          "2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"+Inf\"}"
          " 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("seraph_stage_micros_sum{query=\"q\",stage=\"match\"} 300\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("seraph_stage_micros_count{query=\"q\",stage=\"match\"} 2\n"),
      std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusLabelEscaping) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_odd_total",
                      {{"name", "a\"b\\c\nd"}})
      ->Increment();
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("seraph_odd_total{name=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

// A tiny structural JSON check: balanced braces/brackets outside strings
// and no trailing garbage — enough to catch emitter bugs without a full
// parser.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_FALSE(in_string) << json;
}

TEST(MetricsRegistryTest, JsonFormat) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_events_total", {{"stream", "s1"}})
      ->Increment(7);
  Histogram* h = registry.HistogramFor("seraph_lat_micros");
  h->Record(10);
  std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"seraph_events_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"stream\":\"s1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceRecorder / StageTimer
// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;  // Disabled by default.
  TraceRecorder* null_recorder = nullptr;
  for (TraceRecorder* tracer : {&recorder, null_recorder}) {
    StageTimer timer(tracer, "work", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // No destination: the args are never built and the clock never read
    // (a real reading would span the sleep).
    bool built = false;
    const int64_t micros = timer.Stop([&] {
      built = true;
      return TraceArgs{};
    });
    EXPECT_EQ(micros, 0);
    EXPECT_FALSE(built);
  }
  recorder.AddComplete("x", "test", 0, 1);
  recorder.AddInstant("y", "test", 0);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceTest, StageTimerWritesEachDestinationOnce) {
  TraceRecorder recorder;
  recorder.Enable();
  Histogram histogram;
  int64_t total = 5;
  StageTimer timer(&recorder, "match", "engine", &histogram, &total);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const int64_t micros =
      timer.Stop([] { return TraceArgs{{"query", "q1"}}; });
  EXPECT_GE(micros, 2000);
  EXPECT_EQ(total, 5 + micros);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_EQ(histogram.sum(), micros);
  ASSERT_EQ(recorder.size(), 1u);
  const TraceRecorder::Event& event = recorder.events()[0];
  EXPECT_EQ(event.name, "match");
  EXPECT_EQ(event.category, "engine");
  EXPECT_EQ(event.phase, 'X');
  EXPECT_EQ(event.dur_micros, micros);
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "query");
  EXPECT_EQ(event.args[0].second, "q1");
}

TEST(TraceTest, StageTimerTimesWithoutTracing) {
  TraceRecorder recorder;  // Disabled: a histogram alone still times.
  Histogram histogram;
  StageTimer timer(&recorder, "checkpoint", "persist", &histogram);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const int64_t micros = timer.Stop();
  EXPECT_GE(micros, 2000);
  EXPECT_EQ(histogram.sum(), micros);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceTest, ExcludedChildTimeLeavesTheSpanWhole) {
  TraceRecorder recorder;
  recorder.Enable();
  Histogram histogram;
  int64_t total = 0;
  StageTimer timer(&recorder, "window_maintenance", "engine", &histogram,
                   &total);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  timer.Exclude(1000);
  const int64_t self = timer.Stop();
  EXPECT_GE(self, 1000);
  EXPECT_EQ(total, self);
  EXPECT_EQ(histogram.sum(), self);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].dur_micros, self + 1000);
}

TEST(TraceTest, StageTimerWithoutStopRecordsNothing) {
  TraceRecorder recorder;
  recorder.Enable();
  Histogram histogram;
  int64_t total = 0;
  { StageTimer timer(&recorder, "snapshot", "engine", &histogram, &total); }
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(total, 0);
}

TEST(TraceTest, JsonExportIsChromeTraceShaped) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.AddComplete("stage \"a\"", "engine", 100, 50,
                       {{"k", "v\nw"}});
  recorder.AddInstant("marker", "stream", 175);
  std::string json = recorder.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // Instant scope.
  EXPECT_NE(json.find("stage \\\"a\\\""), std::string::npos);
  EXPECT_NE(json.find("v\\nw"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

constexpr char kQuery[] = R"(
  REGISTER QUERY q STARTING AT '1970-01-01T00:05'
  {
    MATCH (b:Bike)-[r:rentedAt]->(s:Station)
    WITHIN PT20M
    EMIT r.user_id, s.id ON ENTERING EVERY PT5M
  })";

void Replay(ContinuousEngine* engine, int num_events) {
  workloads::BikeSharingConfig config;
  config.num_events = num_events;
  auto events = workloads::GenerateBikeSharingStream(config);
  ASSERT_TRUE(engine->RegisterText(kQuery).ok());
  for (const auto& event : events) {
    ASSERT_TRUE(engine->Ingest(event.graph, event.timestamp).ok());
  }
  ASSERT_TRUE(engine->Drain().ok());
}

TEST(EngineObservabilityTest, StatsForUnknownQueryIsNotFound) {
  ContinuousEngine engine;
  auto stats = engine.StatsFor("nope");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  auto latency = engine.LatencyFor("nope");
  ASSERT_FALSE(latency.ok());
  EXPECT_EQ(latency.status().code(), StatusCode::kNotFound);
}

// Every evaluation is timed once: per query, the stage histograms, the
// QueryStats stage fields and the whole-evaluation histogram carry the
// same durations, exactly, serial and with parallel evaluation.
TEST(EngineObservabilityTest, StageHistogramsCoverEveryEvaluation) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.eval_threads = threads;
    ContinuousEngine engine(options);
    // A second query due at the same instants makes every batch two
    // queries wide, so four threads evaluate them in parallel.
    ASSERT_TRUE(engine
                    .RegisterText(R"(
      REGISTER QUERY q2 STARTING AT '1970-01-01T00:05'
      {
        MATCH (b:Bike)-[r:rentedAt]->(s:Station)
        WITHIN PT10M
        EMIT s.id SNAPSHOT EVERY PT5M
      })")
                    .ok());
    Replay(&engine, 12);
    if (threads > 1) {
      EXPECT_GT(engine.metrics()
                    .FindCounter("seraph_engine_parallel_evals_total")
                    ->value(),
                0);
    }
    for (const char* query : {"q", "q2"}) {
      SCOPED_TRACE(query);
      QueryStats stats = *engine.StatsFor(query);
      ASSERT_GT(stats.evaluations, 0);
      const std::pair<const char*, int64_t> stages[] = {
          {"window", stats.window_micros},
          {"snapshot", stats.snapshot_micros},
          {"match", stats.match_micros},
          {"policy", stats.policy_micros},
          {"sink", stats.sink_micros}};
      int64_t stage_sum = 0;
      int64_t stats_sum = 0;
      for (const auto& [stage, stats_micros] : stages) {
        const Histogram* h = engine.metrics().FindHistogram(
            "seraph_stage_micros", {{"query", query}, {"stage", stage}});
        ASSERT_NE(h, nullptr) << stage;
        EXPECT_EQ(h->count(), stats.evaluations) << stage;
        EXPECT_EQ(h->sum(), stats_micros) << stage;
        stage_sum += h->sum();
        stats_sum += stats_micros;
      }
      const Histogram* total = engine.metrics().FindHistogram(
          "seraph_query_eval_micros", {{"query", query}});
      ASSERT_NE(total, nullptr);
      EXPECT_EQ(total->count(), stats.evaluations);
      EXPECT_EQ(total->sum(), stage_sum);
      EXPECT_EQ(total->sum(), stats_sum);
      EXPECT_EQ(engine.LatencyFor(query)->sum, total->sum());
      // The registry's evaluation counter agrees with QueryStats, and the
      // reuse split partitions the evaluations.
      EXPECT_EQ(engine.metrics()
                    .FindCounter("seraph_query_evaluations_total",
                                 {{"query", query}})
                    ->value(),
                stats.evaluations);
      EXPECT_EQ(stats.reused_results + stats.fresh_executions,
                stats.evaluations);
    }
  }
}

TEST(EngineObservabilityTest, IngestionCountersPerStream) {
  ContinuousEngine engine;
  Replay(&engine, 8);
  const Counter* ingested = engine.metrics().FindCounter(
      "seraph_stream_elements_ingested_total", {{"stream", "<default>"}});
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->value(), 8);
}

TEST(EngineObservabilityTest, SnapshotMaintenanceCounters) {
  ContinuousEngine engine;  // Incremental maintenance on by default.
  Replay(&engine, 12);
  QueryStats stats = *engine.StatsFor("q");
  EXPECT_GT(stats.snapshots_incremental, 0);
  EXPECT_EQ(stats.snapshots_rebuilt, 0);
  // Every stream element entered some window at some point.
  EXPECT_EQ(stats.window_elements_added, 12);
  EXPECT_GT(stats.window_elements_evicted, 0);  // PT20M window, 1h stream.

  EngineOptions rebuild;
  rebuild.incremental_snapshots = false;
  ContinuousEngine engine2(rebuild);
  Replay(&engine2, 12);
  QueryStats stats2 = *engine2.StatsFor("q");
  EXPECT_EQ(stats2.snapshots_incremental, 0);
  EXPECT_GT(stats2.snapshots_rebuilt, 0);
}

TEST(EngineObservabilityTest, TracerCapturesPipelineSpans) {
  TraceRecorder recorder;
  recorder.Enable();
  EngineOptions options;
  options.tracer = &recorder;
  ContinuousEngine engine(options);
  Replay(&engine, 8);
  ASSERT_GT(recorder.size(), 0u);
  bool saw_eval = false, saw_snapshot = false, saw_ingest = false;
  for (const auto& event : recorder.events()) {
    if (event.name == "evaluate") saw_eval = true;
    if (event.name == "snapshot") saw_snapshot = true;
    if (event.name == "ingest") saw_ingest = true;
  }
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_ingest);
  // Span nesting: every 'sink' child must lie inside some 'evaluate'
  // parent. The evaluate span runs to the end of sink delivery precisely
  // so the merged trace nests even with a worker-to-coordinator
  // scheduling gap between the policy and sink stages.
  for (const auto& child : recorder.events()) {
    if (child.name != "sink") continue;
    bool contained = false;
    for (const auto& parent : recorder.events()) {
      if (parent.name != "evaluate") continue;
      if (parent.ts_micros <= child.ts_micros &&
          parent.ts_micros + parent.dur_micros >=
              child.ts_micros + child.dur_micros) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "sink span escapes its evaluate parent";
  }
  ExpectBalancedJson(recorder.ToJson());
}

TEST(EngineObservabilityTest, MetricsSurviveUnregister) {
  ContinuousEngine engine;
  Replay(&engine, 8);
  int64_t evals = engine.StatsFor("q")->evaluations;
  ASSERT_TRUE(engine.Unregister("q").ok());
  EXPECT_FALSE(engine.StatsFor("q").ok());
  // The registry still exposes the completed query's series.
  const Counter* total = engine.metrics().FindCounter(
      "seraph_query_evaluations_total", {{"query", "q"}});
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), evals);
  EXPECT_EQ(
      engine.metrics().FindGauge("seraph_queries_registered")->value(), 0);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

struct CapturedLine {
  internal_logging::Severity severity;
  std::string message;
};

class LogCapture {
 public:
  LogCapture() {
    internal_logging::SetLogSink(
        [this](internal_logging::Severity severity, const char*, int,
               const std::string& message) {
          lines_.push_back({severity, message});
        });
  }
  ~LogCapture() {
    internal_logging::SetLogSink(nullptr);
    internal_logging::SetMinLogSeverity(
        internal_logging::Severity::kInfo);
  }
  const std::vector<CapturedLine>& lines() const { return lines_; }

 private:
  std::vector<CapturedLine> lines_;
};

TEST(LoggingTest, SinkCapturesMessages) {
  LogCapture capture;
  SERAPH_LOG(INFO) << "hello " << 42;
  SERAPH_LOG(WARNING) << "uh oh";
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0].message, "hello 42");
  EXPECT_EQ(capture.lines()[0].severity,
            internal_logging::Severity::kInfo);
  EXPECT_EQ(capture.lines()[1].message, "uh oh");
}

TEST(LoggingTest, MinSeverityFiltersLowerLevels) {
  LogCapture capture;
  internal_logging::SetMinLogSeverity(
      internal_logging::Severity::kError);
  SERAPH_LOG(INFO) << "dropped";
  SERAPH_LOG(WARNING) << "dropped too";
  SERAPH_LOG(ERROR) << "kept";
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].message, "kept");
}

TEST(LoggingTest, DcheckPassesOnTrueCondition) {
  // Under !NDEBUG this evaluates; under NDEBUG it compiles away. Either
  // way a true condition must not abort.
  SERAPH_DCHECK(1 + 1 == 2) << "arithmetic still works";
  SUCCEED();
}

}  // namespace
}  // namespace seraph
