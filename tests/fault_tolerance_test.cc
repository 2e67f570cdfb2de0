// Fault-tolerant ingestion and delivery: the full queue → driver →
// engine → sink loop under injected transport and sink faults.
//
// The contract asserted here (docs/INTERNALS.md, "Failure model"):
//  * zero element loss — every produced element reaches the engine
//    exactly once, no matter how many pumps fail in between;
//  * result equivalence — a faulty run emits the same per-query results
//    as a fault-free run over the same events;
//  * sink isolation — a permanently failing sink is quarantined after N
//    consecutive failures without affecting other sinks or evaluation,
//    and its rejected results land in the dead-letter queue;
//  * observability — failures, retries, and dead-letter traffic are
//    visible in the engine's metrics registry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "fault_doubles.h"
#include "graph/graph_builder.h"
#include "io/json.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "seraph/sinks.h"
#include "seraph/stream_driver.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id) {
  return GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build();
}

constexpr char kCountQuery[] = R"(
  REGISTER QUERY q STARTING AT '1970-01-01T00:05'
  { MATCH (n:X) WITHIN PT30M EMIT n.id SNAPSHOT EVERY PT5M })";

// Every fault-injection test starts and ends with a clean global
// injector so tests cannot leak armed points into each other.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// FaultInjector / RetryPolicy primitives
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, InjectorScheduleFailsExactHits) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmSchedule("p", {2, 4});
  EXPECT_TRUE(fi.Fire("p").ok());
  EXPECT_FALSE(fi.Fire("p").ok());
  EXPECT_TRUE(fi.Fire("p").ok());
  Status s = fi.Fire("p");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(s.IsTransient());
  EXPECT_TRUE(fi.Fire("p").ok());
  EXPECT_EQ(fi.hits("p"), 5);
  EXPECT_EQ(fi.failures("p"), 2);
  // Unarmed points never fail and are not counted as armed hits.
  EXPECT_TRUE(fi.Fire("other").ok());
}

TEST_F(FaultToleranceTest, InjectorArmNextRecovers) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmNext("p", 2);
  EXPECT_FALSE(fi.Fire("p").ok());
  EXPECT_FALSE(fi.Fire("p").ok());
  EXPECT_TRUE(fi.Fire("p").ok());
}

TEST_F(FaultToleranceTest, InjectorProbabilityIsSeedDeterministic) {
  FaultInjector& fi = FaultInjector::Global();
  auto run = [&fi](uint64_t seed) {
    fi.Reset();
    fi.Seed(seed);
    fi.ArmProbability("p", 0.5);
    std::string outcomes;
    for (int i = 0; i < 64; ++i) outcomes += fi.Fire("p").ok() ? '.' : 'x';
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // 2^-64 false-failure chance; fine.
}

TEST_F(FaultToleranceTest, RetryPolicyDeterministicBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_millis = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_millis = 50;
  EXPECT_EQ(policy.DelayMillisFor(1), 10);
  EXPECT_EQ(policy.DelayMillisFor(2), 20);
  EXPECT_EQ(policy.DelayMillisFor(3), 40);
  EXPECT_EQ(policy.DelayMillisFor(4), 50);  // Capped.
  EXPECT_EQ(policy.DelayMillisFor(100), 50);

  EXPECT_TRUE(policy.ShouldRetry(Status::Unavailable("x"), 1));
  EXPECT_TRUE(policy.ShouldRetry(Status::Unavailable("x"), 4));
  EXPECT_FALSE(policy.ShouldRetry(Status::Unavailable("x"), 5));
  // Permanent errors are never retried.
  EXPECT_FALSE(policy.ShouldRetry(Status::EvaluationError("x"), 1));
  EXPECT_FALSE(RetryPolicy::None().ShouldRetry(Status::Unavailable("x"), 1));
}

// ---------------------------------------------------------------------------
// Sink failure reporting
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, StreamSinksReportFailedStreams) {
  TimeAnnotatedTable result;
  result.window = TimeInterval{T(0), T(5)};
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  PrintingSink printing(&os, {}, /*include_empty=*/true);
  CsvSink csv(&os, {});
  JsonLinesSink json(&os);
  EXPECT_EQ(printing.OnResult("q", T(5), result).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(csv.OnResult("q", T(5), result).code(), StatusCode::kUnavailable);
  EXPECT_EQ(json.OnResult("q", T(5), result).code(),
            StatusCode::kUnavailable);
  // A recovered stream accepts the next delivery — including the CSV
  // header, which must not have been latched by the failed attempt.
  os.clear();
  EXPECT_TRUE(csv.OnResult("q", T(5), result).ok());
  EXPECT_EQ(os.str().find("query,evaluation_time"), 0u);
}

TEST_F(FaultToleranceTest, RetryingSinkRetriesTransientFailures) {
  TimeAnnotatedTable result;
  result.window = TimeInterval{T(0), T(5)};
  RetryPolicy policy;
  policy.max_attempts = 3;
  {
    // Fails delivery #1 only: one retry succeeds.
    FailNthSink flaky({1}, Status::Unavailable("hiccup"));
    RetryingSink retrying(&flaky, policy);
    EXPECT_TRUE(retrying.OnResult("q", T(5), result).ok());
    EXPECT_EQ(retrying.retries(), 1);
    EXPECT_EQ(flaky.calls(), 2);
    EXPECT_GT(retrying.backoff_millis_total(), 0);
  }
  {
    // Permanently broken consumer: no retries, error surfaces.
    FailNthSink broken = FailNthSink::AlwaysFailingFrom(
        1, Status::EvaluationError("schema mismatch"));
    RetryingSink retrying(&broken, policy);
    EXPECT_EQ(retrying.OnResult("q", T(5), result).code(),
              StatusCode::kEvaluationError);
    EXPECT_EQ(retrying.retries(), 0);
    EXPECT_EQ(broken.calls(), 1);
  }
}

// ---------------------------------------------------------------------------
// Engine-level sink isolation
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, EngineRetriesTransientSinkFailures) {
  DeadLetterQueue dlq;
  EngineOptions options;
  options.dead_letter = &dlq;
  ContinuousEngine engine(options);
  CollectingSink collector;
  // Fail every 2nd delivery transiently; the engine's per-sink retry
  // absorbs every failure.
  FlakySink flaky(&collector, 2);
  SinkPolicy policy;
  policy.retry.max_attempts = 3;
  engine.AddSink(&flaky, "flaky", policy);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());  // Evaluations at 5/10/15/20.
  EXPECT_EQ(collector.ResultsFor("q").size(), 4u);
  EXPECT_TRUE(dlq.empty());
  EXPECT_FALSE(engine.SinkQuarantined("flaky"));
  EXPECT_GT(
      engine.metrics().FindCounter("seraph_sink_retries_total",
                                   {{"sink", "flaky"}})->value(),
      0);
  EXPECT_EQ(engine.metrics().FindCounter("seraph_sink_failures_total",
                                         {{"sink", "flaky"}})->value(),
            0);
}

TEST_F(FaultToleranceTest, PermanentlyFailingSinkIsQuarantinedAndIsolated) {
  DeadLetterQueue dlq;
  EngineOptions options;
  options.dead_letter = &dlq;
  ContinuousEngine engine(options);
  CollectingSink healthy;
  FailNthSink broken = FailNthSink::AlwaysFailingFrom(
      1, Status::EvaluationError("consumer schema mismatch"));
  SinkPolicy policy;
  policy.retry.max_attempts = 2;  // Permanent errors skip retry anyway.
  policy.quarantine_after = 3;
  engine.AddSink(&healthy, "healthy", SinkPolicy{});
  engine.AddSink(&broken, "broken", policy);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(1)).ok());
  // 6 evaluations (5..30): the broken sink fails 3 and is quarantined;
  // evaluation and the healthy sink never notice.
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  EXPECT_EQ(healthy.ResultsFor("q").size(), 6u);
  EXPECT_TRUE(engine.SinkQuarantined("broken"));
  EXPECT_FALSE(engine.SinkQuarantined("healthy"));
  EXPECT_EQ(broken.calls(), 3);  // Stopped receiving after quarantine.
  // All six results were captured, not lost: the three rejected ones and
  // the three the quarantined sink never received.
  ASSERT_EQ(dlq.sink_results(), 6);
  EXPECT_EQ(dlq.entries()[0].source, "broken");
  EXPECT_EQ(dlq.entries()[0].query, "q");
  EXPECT_EQ(dlq.entries()[0].error.code(), StatusCode::kEvaluationError);
  EXPECT_EQ(dlq.entries()[3].source, "broken");
  EXPECT_EQ(dlq.entries()[3].timestamp, T(20));
  EXPECT_EQ(dlq.entries()[3].attempts, 0);
  EXPECT_EQ(dlq.entries()[3].error.code(), StatusCode::kUnavailable);
  // Metrics: failures counted (a quarantined sink is not called, so it
  // does not fail), every dead letter counted, quarantine gauge raised.
  EXPECT_EQ(engine.metrics().FindCounter("seraph_sink_failures_total",
                                         {{"sink", "broken"}})->value(),
            3);
  EXPECT_EQ(engine.metrics().FindCounter("seraph_sink_dead_lettered_total",
                                         {{"sink", "broken"}})->value(),
            6);
  EXPECT_EQ(engine.metrics().FindGauge("seraph_sink_quarantined",
                                       {{"sink", "broken"}})->value(),
            1);
  EXPECT_EQ(engine.metrics().FindGauge("seraph_sink_quarantined",
                                       {{"sink", "healthy"}})->value(),
            0);
  // Dead-letter entries serialize to JSON lines.
  std::ostringstream os;
  ASSERT_TRUE(dlq.WriteJsonLines(&os).ok());
  EXPECT_NE(os.str().find("\"kind\":\"sink_result\""), std::string::npos);
  EXPECT_NE(os.str().find("\"source\":\"broken\""), std::string::npos);
  // Operator intervention: revival clears the quarantine.
  ASSERT_TRUE(engine.ReviveSink("broken").ok());
  EXPECT_FALSE(engine.SinkQuarantined("broken"));
  EXPECT_FALSE(engine.ReviveSink("nope").ok());
}

// ---------------------------------------------------------------------------
// Driver recovery: loss-free delivery under transport faults
// ---------------------------------------------------------------------------

// Produces `count` events at minutes 1, 3, 5, ... into the queue.
void ProduceEvents(EventQueue* queue, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(queue->Produce(Item(i + 1), T(1 + 2 * i)).ok());
  }
}

// Runs the same query over the same events with no faults and returns
// the collected results (the oracle for result-equivalence checks).
TimeVaryingTable FaultFreeOracle(int count) {
  EventQueue queue;
  ProduceEvents(&queue, count);
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  EXPECT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver driver(&queue, &engine, {});
  auto delivered = driver.PumpAll();
  EXPECT_TRUE(delivered.ok());
  EXPECT_TRUE(driver.Finish().ok());
  return sink.ResultsFor("q");
}

void ExpectSameResults(const TimeVaryingTable& actual,
                       const TimeVaryingTable& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.entries()[i].window, expected.entries()[i].window);
    EXPECT_EQ(io::ToJson(actual.entries()[i].table.Canonicalized()),
              io::ToJson(expected.entries()[i].table.Canonicalized()))
        << "result " << i << " diverged";
  }
}

TEST_F(FaultToleranceTest, DeliveryFaultsLoseNothingAndMatchFaultFreeRun) {
  const int kEvents = 12;
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  EventQueue queue;
  ProduceEvents(&queue, kEvents);
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.poll_batch = 4;
  options.delivery_retry.max_attempts = 2;
  StreamDriver driver(&queue, &engine, options);

  // Fail deliveries #2, #3 (same element: retry then pump failure), and
  // #7. Attempt #2 retries in-pump into attempt #3, which fails too →
  // the pump errors, re-seeks, and the next pump redelivers.
  FaultInjector::Global().ArmSchedule("driver.deliver", {2, 3, 7});
  int failed_pumps = 0;
  for (int i = 0; i < 10; ++i) {
    auto pumped = driver.PumpAll();
    if (pumped.ok()) break;
    EXPECT_TRUE(pumped.status().IsTransient());
    ++failed_pumps;
  }
  EXPECT_EQ(failed_pumps, 1);  // Hit #7 is absorbed by the in-pump retry.
  ASSERT_TRUE(driver.Finish().ok());

  // Zero loss, exactly once: every element is in the engine's stream.
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  EXPECT_EQ(driver.delivered_total(), kEvents);
  EXPECT_EQ(driver.dead_lettered(), 0);
  EXPECT_GT(driver.retries(), 0);
  EXPECT_EQ(driver.reseeks(), 1);
  ExpectSameResults(sink.ResultsFor("q"), expected);
}

TEST_F(FaultToleranceTest, PollFaultsAreRetriableWithoutLoss) {
  const int kEvents = 10;
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  FlakyQueue queue(/*fail_every=*/2);  // Every 2nd poll times out.
  ProduceEvents(&queue, kEvents);
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.poll_batch = 3;
  StreamDriver driver(&queue, &engine, options);
  for (int i = 0; i < 20; ++i) {
    auto pumped = driver.PumpAll();
    if (pumped.ok()) break;
    EXPECT_TRUE(pumped.status().IsTransient());
  }
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  EXPECT_GT(queue.failures(), 0);
  ExpectSameResults(sink.ResultsFor("q"), expected);
}

TEST_F(FaultToleranceTest, ReorderedReleasesSurviveDeliveryFailure) {
  // Satellite: buffered-but-unreleased elements must survive a failed
  // Deliver and be retried on the next pump.
  EventQueue queue;
  ASSERT_TRUE(queue.Produce(Item(1), T(10)).ok());
  ASSERT_TRUE(queue.Produce(Item(2), T(12)).ok());
  ASSERT_TRUE(queue.Produce(Item(3), T(20)).ok());
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.allowed_lateness = Duration::FromMinutes(5);
  options.delivery_retry = RetryPolicy::None();
  StreamDriver driver(&queue, &engine, options);

  // Watermark after the third element is 15: elements @10 and @12 are
  // released together; delivery of the *first* release fails once.
  FaultInjector::Global().ArmSchedule("driver.deliver", {1});
  auto pumped = driver.PumpAll();
  ASSERT_FALSE(pumped.ok());
  // Both released elements are parked, neither lost nor delivered.
  EXPECT_EQ(driver.pending(), 2u);
  EXPECT_EQ(engine.stream().size(), 0u);

  // Next pump retries the parked releases first.
  pumped = driver.PumpAll();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  EXPECT_EQ(*pumped, 2);
  EXPECT_EQ(driver.pending(), 0u);
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(engine.stream().size(), 3u);
  // Stream order was preserved through the failure.
  EXPECT_EQ(engine.stream().at(0).timestamp, T(10));
  EXPECT_EQ(engine.stream().at(1).timestamp, T(12));
  EXPECT_EQ(engine.stream().at(2).timestamp, T(20));
  EXPECT_EQ(driver.dropped(), 0);
}

TEST_F(FaultToleranceTest, PoisonElementIsDeadLetteredNotWedged) {
  const int kEvents = 6;
  EventQueue queue;
  ProduceEvents(&queue, kEvents);
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  DeadLetterQueue dlq;
  StreamDriver::Options options;
  options.delivery_retry = RetryPolicy::None();  // 1 try per pump.
  options.element_error_budget = 2;              // 2 failed pumps → poison.
  options.dead_letter = &dlq;
  StreamDriver driver(&queue, &engine, options);

  // Element #3 fails twice (hit 3 on the first pump, hit 4 when the
  // second pump redelivers it): the first failure aborts the pump, the
  // second exhausts the error budget and routes the element to the
  // dead-letter queue; the pump then continues with #4..#6.
  FaultInjector::Global().ArmSchedule("driver.deliver", {3, 4});
  auto pumped = driver.PumpAll();
  ASSERT_FALSE(pumped.ok());
  EXPECT_EQ(driver.delivered_total(), 2);
  pumped = driver.PumpAll();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  ASSERT_TRUE(driver.Finish().ok());

  // The poison element was quarantined with its status and attempt
  // count; everything else was delivered.
  EXPECT_EQ(driver.dead_lettered(), 1);
  EXPECT_EQ(dlq.elements(), 1);
  EXPECT_EQ(dlq.entries()[0].timestamp, T(5));  // Element #3 is at minute 5.
  EXPECT_EQ(dlq.entries()[0].attempts, 2);
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents - 1));
  std::ostringstream os;
  ASSERT_TRUE(dlq.WriteJsonLines(&os).ok());
  EXPECT_NE(os.str().find("\"kind\":\"stream_element\""), std::string::npos);
  EXPECT_NE(os.str().find("\"element\":{\"nodes\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chaos: probabilistic faults on every edge of the loop at once
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, ChaosRunDeliversExactlyOnceAndMatchesOracle) {
  const int kEvents = 40;
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  uint64_t seed = 42;
  if (const char* env = std::getenv("SERAPH_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  FaultInjector& fi = FaultInjector::Global();
  fi.Seed(seed);
  fi.ArmProbability("driver.deliver", 0.25);
  fi.ArmProbability("queue.poll", 0.2);

  EventQueue queue;
  ProduceEvents(&queue, kEvents);
  DeadLetterQueue dlq;
  EngineOptions engine_options;
  engine_options.dead_letter = &dlq;
  ContinuousEngine engine(engine_options);
  CollectingSink collector;
  FlakySink flaky(&collector, /*fail_every=*/3);
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 4;
  engine.AddSink(&flaky, "chaos-sink", sink_policy);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());

  StreamDriver::Options options;
  options.poll_batch = 5;
  options.delivery_retry.max_attempts = 3;
  options.element_error_budget = 1000;  // Chaos is transient; no poison.
  options.dead_letter = &dlq;
  StreamDriver driver(&queue, &engine, options);

  // Pump until the whole queue made it through (bounded: each iteration
  // makes progress or fails a fault that cannot repeat forever at p<1).
  bool done = false;
  for (int i = 0; i < 10'000 && !done; ++i) {
    auto pumped = driver.PumpAll();
    if (!pumped.ok()) {
      EXPECT_TRUE(pumped.status().IsTransient()) << pumped.status();
      continue;
    }
    done = engine.stream().size() == static_cast<size_t>(kEvents);
  }
  ASSERT_TRUE(done) << "chaos run did not converge";
  for (int i = 0; i < 1000; ++i) {
    if (driver.Finish().ok()) break;
  }

  // Exactly once into the engine, same results as the oracle, nothing
  // dead-lettered (all faults transient), sink retried but never lost a
  // delivery.
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  EXPECT_EQ(driver.delivered_total(), kEvents);
  EXPECT_EQ(driver.dead_lettered(), 0);
  EXPECT_EQ(dlq.size(), 0u);
  ExpectSameResults(collector.ResultsFor("q"), expected);
  EXPECT_FALSE(engine.SinkQuarantined("chaos-sink"));
  EXPECT_GT(driver.retries() + driver.reseeks() + flaky.failures(), 0);
}

// The same chaos scenario with a parallel evaluation fleet: 4 worker
// threads and extra query copies must not change the delivered results,
// and the thread-safety of the injector/metrics/trace paths gets
// exercised under real contention (this test is part of the TSan CI job).
TEST_F(FaultToleranceTest, ChaosRunParallelMatchesOracle) {
  const int kEvents = 40;
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  FaultInjector& fi = FaultInjector::Global();
  fi.Seed(42);
  fi.ArmProbability("driver.deliver", 0.25);
  fi.ArmProbability("queue.poll", 0.2);

  EventQueue queue;
  ProduceEvents(&queue, kEvents);
  DeadLetterQueue dlq;
  EngineOptions engine_options;
  engine_options.dead_letter = &dlq;
  engine_options.eval_threads = 4;
  ContinuousEngine engine(engine_options);
  CollectingSink collector;
  FlakySink flaky(&collector, /*fail_every=*/3);
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 4;
  engine.AddSink(&flaky, "chaos-sink", sink_policy);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  // Sibling copies of the same query (same ET grid) so every instant is
  // a batch of 4 concurrent evaluations.
  for (int i = 0; i < 3; ++i) {
    std::string copy(kCountQuery);
    size_t pos = copy.find("QUERY q");
    ASSERT_NE(pos, std::string::npos);
    copy.replace(pos, 7, "QUERY q" + std::to_string(i + 1));
    ASSERT_TRUE(engine.RegisterText(copy).ok());
  }

  StreamDriver::Options options;
  options.poll_batch = 5;
  options.delivery_retry.max_attempts = 3;
  options.element_error_budget = 1000;
  options.dead_letter = &dlq;
  StreamDriver driver(&queue, &engine, options);

  bool done = false;
  for (int i = 0; i < 10'000 && !done; ++i) {
    auto pumped = driver.PumpAll();
    if (!pumped.ok()) {
      EXPECT_TRUE(pumped.status().IsTransient()) << pumped.status();
      continue;
    }
    done = engine.stream().size() == static_cast<size_t>(kEvents);
  }
  ASSERT_TRUE(done) << "chaos run did not converge";
  for (int i = 0; i < 1000; ++i) {
    if (driver.Finish().ok()) break;
  }

  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  EXPECT_EQ(dlq.evaluation_failures(), 0);
  // Every copy saw the exact oracle results, in order.
  ExpectSameResults(collector.ResultsFor("q"), expected);
  for (int i = 0; i < 3; ++i) {
    ExpectSameResults(collector.ResultsFor("q" + std::to_string(i + 1)),
                      expected);
  }
  EXPECT_FALSE(engine.SinkQuarantined("chaos-sink"));
}

// ---------------------------------------------------------------------------
// Finish() edge cases (satellite)
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, FinishWithNoDeliveriesIsANoOp) {
  EventQueue queue;
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver driver(&queue, &engine, {});
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(engine.evaluations_run(), 0);
  EXPECT_EQ(driver.delivered_total(), 0);
}

TEST_F(FaultToleranceTest, FinishAfterMidPumpErrorDrainsPending) {
  EventQueue queue;
  ASSERT_TRUE(queue.Produce(Item(1), T(10)).ok());
  ASSERT_TRUE(queue.Produce(Item(2), T(20)).ok());
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.allowed_lateness = Duration::FromMinutes(5);
  options.delivery_retry = RetryPolicy::None();
  StreamDriver driver(&queue, &engine, options);
  // The pump offers both elements and releases @10 (watermark 15); its
  // delivery fails → parked.
  FaultInjector::Global().ArmSchedule("driver.deliver", {1});
  ASSERT_FALSE(driver.PumpAll().ok());
  EXPECT_EQ(driver.pending(), 1u);
  // Finish drains the parked element, flushes the buffer, and runs the
  // final evaluations — nothing lost despite the failed pump.
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(engine.stream().size(), 2u);
  EXPECT_GT(engine.evaluations_run(), 0);
}

TEST_F(FaultToleranceTest, DoubleFinishIsIdempotent) {
  EventQueue queue;
  ASSERT_TRUE(queue.Produce(Item(1), T(10)).ok());
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.allowed_lateness = Duration::FromMinutes(5);
  StreamDriver driver(&queue, &engine, options);
  ASSERT_TRUE(driver.PumpAll().ok());
  ASSERT_TRUE(driver.Finish().ok());
  const size_t results = sink.ResultsFor("q").size();
  const int64_t evaluations = engine.evaluations_run();
  ASSERT_TRUE(driver.Finish().ok());
  EXPECT_EQ(sink.ResultsFor("q").size(), results);
  EXPECT_EQ(engine.evaluations_run(), evaluations);
}

TEST_F(FaultToleranceTest, LateFloodIsCountedNotDelivered) {
  UnorderedQueue queue;
  queue.Add(Item(1), T(60));
  // A flood of elements far older than the watermark (60 − 5 = 55).
  for (int i = 0; i < 8; ++i) {
    queue.Add(Item(100 + i), T(10 + i));
  }
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.allowed_lateness = Duration::FromMinutes(5);
  StreamDriver driver(&queue, &engine, options);
  ASSERT_TRUE(driver.PumpAll().ok());
  EXPECT_EQ(driver.dropped(), 8);
  ASSERT_TRUE(driver.Finish().ok());
  // Only the on-time element reached the engine; drop accounting is
  // stable across Finish.
  EXPECT_EQ(engine.stream().size(), 1u);
  EXPECT_EQ(driver.dropped(), 8);
}

// ---------------------------------------------------------------------------
// Overload chaos: bounded ingest with backpressure under injected faults
// (docs/INTERNALS.md, "Overload & backpressure")
// ---------------------------------------------------------------------------

// Sustained over-capacity ingest into a 5-slot queue with produce, poll,
// and delivery faults armed. The producer relieves backpressure by
// pumping the consumer whenever a produce is refused (the same loop
// seraph_run and latency_harness use). The contract, per policy:
//  * block / reject — nothing is lost: the engine receives every element
//    exactly once and the results match the unbounded fault-free oracle
//    bit-identically;
//  * shed_oldest — delivered ∪ shed partitions the input exactly; every
//    eviction is accounted and surfaced through the shed callback.
void OverloadChaosRun(OverflowPolicy policy, uint64_t seed) {
  SCOPED_TRACE("policy=" + std::string(OverflowPolicyName(policy)) +
               " seed=" + std::to_string(seed));
  const int kEvents = 40;
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();  // The oracle below must run fault-free.
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  fi.Seed(seed);
  fi.ArmProbability("queue.produce", 0.2);
  fi.ArmProbability("queue.poll", 0.15);
  fi.ArmProbability("driver.deliver", 0.2);

  EventQueue::Options queue_options;
  queue_options.capacity = 5;
  queue_options.overflow_policy = policy;
  EventQueue queue(queue_options);
  ManualClock clock(0);
  queue.SetClock(&clock);  // `block` waits in virtual time: never hangs.
  std::vector<Timestamp> shed;
  queue.SetShedCallback(
      [&](const StreamElement& e) { shed.push_back(e.timestamp); });

  DeadLetterQueue dlq;
  EngineOptions engine_options;
  engine_options.dead_letter = &dlq;
  ContinuousEngine engine(engine_options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver::Options options;
  options.poll_batch = 3;
  options.delivery_retry.max_attempts = 3;
  options.element_error_budget = 1000;  // Chaos is transient; no poison.
  options.dead_letter = &dlq;
  StreamDriver driver(&queue, &engine, options);

  // Over-capacity production with the backpressure loop.
  for (int i = 0; i < kEvents; ++i) {
    bool produced = false;
    for (int attempt = 0; attempt < 10'000 && !produced; ++attempt) {
      Status s = queue.Produce(Item(i + 1), T(1 + 2 * i));
      if (s.ok()) {
        produced = true;
        break;
      }
      ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
      auto pumped = driver.PumpAll();
      if (!pumped.ok()) {
        EXPECT_TRUE(pumped.status().IsTransient());
      }
    }
    ASSERT_TRUE(produced) << "event " << i << " never admitted";
  }
  // Drain the tail through the remaining faults.
  bool done = false;
  for (int i = 0; i < 10'000 && !done; ++i) {
    auto pumped = driver.PumpAll();
    if (!pumped.ok()) {
      EXPECT_TRUE(pumped.status().IsTransient());
      continue;
    }
    done = engine.stream().size() + shed.size() ==
           static_cast<size_t>(kEvents);
  }
  ASSERT_TRUE(done) << "overload chaos run did not converge";
  for (int i = 0; i < 1000; ++i) {
    if (driver.Finish().ok()) break;
  }

  // Exact accounting: the shed callback saw precisely shed_total
  // evictions, and delivered ∪ shed partitions the input.
  EXPECT_EQ(static_cast<int64_t>(shed.size()), queue.shed_total());
  ASSERT_EQ(engine.stream().size() + shed.size(),
            static_cast<size_t>(kEvents));
  std::multiset<int64_t> seen;
  for (size_t i = 0; i < engine.stream().size(); ++i) {
    seen.insert(engine.stream().at(i).timestamp.millis());
  }
  for (const Timestamp& t : shed) seen.insert(t.millis());
  std::multiset<int64_t> produced_all;
  for (int i = 0; i < kEvents; ++i) produced_all.insert(T(1 + 2 * i).millis());
  EXPECT_EQ(seen, produced_all);

  if (policy == OverflowPolicy::kShedOldest) {
    EXPECT_EQ(queue.rejected_total(), 0);
  } else {
    // Loss-free policies: delivered results are bit-identical to the
    // unbounded fault-free oracle.
    EXPECT_TRUE(shed.empty());
    EXPECT_EQ(queue.shed_total(), 0);
    EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
    EXPECT_EQ(driver.delivered_total(), kEvents);
    ExpectSameResults(sink.ResultsFor("q"), expected);
  }
  // Memory stayed bounded: the queue never retained more than capacity.
  EXPECT_LE(queue.depth(), queue_options.capacity);
}

// SERAPH_FAULT_SEED pins the run to one seed (same override as the
// delivery chaos tests); otherwise each policy runs seeds 1..3.
std::vector<uint64_t> OverloadSeeds() {
  if (const char* env = std::getenv("SERAPH_FAULT_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3};
}

TEST_F(FaultToleranceTest, OverloadChaosBlockPolicyMatchesOracle) {
  for (uint64_t seed : OverloadSeeds()) {
    OverloadChaosRun(OverflowPolicy::kBlock, seed);
  }
}

TEST_F(FaultToleranceTest, OverloadChaosRejectPolicyMatchesOracle) {
  for (uint64_t seed : OverloadSeeds()) {
    OverloadChaosRun(OverflowPolicy::kReject, seed);
  }
}

TEST_F(FaultToleranceTest, OverloadChaosShedOldestPartitionsInput) {
  for (uint64_t seed : OverloadSeeds()) {
    OverloadChaosRun(OverflowPolicy::kShedOldest, seed);
  }
}

// ---------------------------------------------------------------------------
// Evaluation deadlines through the isolation path
// ---------------------------------------------------------------------------

constexpr char kSlowQuery[] = R"(
  REGISTER QUERY slow STARTING AT '1970-01-01T00:05'
  { MATCH (n:X) WITHIN PT30M EMIT n.id SNAPSHOT EVERY PT5M })";

// A deadline overrun is not transient: it burns the query's error budget
// and disables it through the same isolation path as evaluation errors,
// while the rest of the fleet's output is unchanged. The overrun is
// injected via the "eval.deadline" fault point (armed only when a
// deadline is configured), re-coded by the engine as kDeadlineExceeded.
TEST_F(FaultToleranceTest, EvalDeadlineDisablesOnlyTheOffendingQuery) {
  const int kEvents = 12;
  TimeVaryingTable expected = FaultFreeOracle(kEvents);

  EngineOptions engine_options;
  engine_options.eval_deadline_millis = 25;
  engine_options.query_error_budget = 2;
  DeadLetterQueue dlq;
  engine_options.dead_letter = &dlq;
  ContinuousEngine engine(engine_options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());  // "q", healthy.
  ASSERT_TRUE(engine.RegisterText(kSlowQuery).ok());   // The victim.
  // Per evaluation instant the batch runs q then slow; fire on hits 2
  // and 4 — slow's first two evaluations — to exhaust its budget.
  FaultInjector::Global().ArmSchedule("eval.deadline", {2, 4});

  EventQueue queue;
  ProduceEvents(&queue, kEvents);
  StreamDriver driver(&queue, &engine, {});
  ASSERT_TRUE(driver.PumpAll().ok());
  ASSERT_TRUE(driver.Finish().ok());

  // The offender is disabled with the deadline recorded...
  EXPECT_TRUE(engine.QueryDisabled("slow"));
  auto stats = engine.StatsFor("slow");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->eval_failures, 2);
  EXPECT_EQ(stats->last_error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(dlq.size(), 0u);  // The failed instants are dead-lettered.
  // ...and the healthy query's output is bit-identical to a clean run.
  EXPECT_FALSE(engine.QueryDisabled("q"));
  ExpectSameResults(sink.ResultsFor("q"), expected);

  // Revive: the deadline victim rejoins the fleet like any other
  // budget-disabled query.
  ASSERT_TRUE(engine.ReviveQuery("slow").ok());
  EXPECT_FALSE(engine.QueryDisabled("slow"));
}

}  // namespace
}  // namespace seraph
