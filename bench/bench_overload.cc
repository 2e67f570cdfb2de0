// Overload-path costs (docs/INTERNALS.md, "Overload & backpressure"):
// what a bounded queue charges the producer per admission under each
// overflow policy, and what degraded mode buys the driver when it has a
// backlog to catch up on. Compare the labelled series in the
// bench-baseline diff; the absolute numbers size `--queue-capacity` and
// `--shed-lag-ms` for a deployment.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_observability.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/stream_driver.h"
#include "stream/event_queue.h"

namespace seraph {
namespace {

std::shared_ptr<const PropertyGraph> OneNode() {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder().Node(1, {"X"}, {{"id", Value::Int(1)}}).Build());
}

// Produce → (on refusal) poll + trim, against a queue 16x smaller than
// the workload, under each policy. The ManualClock pins `block` to
// virtual time so its bounded wait costs attempts, not wall clock. The
// per-element rate is the producer-visible admission cost including the
// policy's resolution work (trim scan, eviction, retry).
void BM_BoundedAdmission(benchmark::State& state) {
  const auto policy = static_cast<OverflowPolicy>(state.range(0));
  const int kEvents = 1024;
  EventQueue::Options options;
  options.capacity = 64;
  options.overflow_policy = policy;
  auto graph = OneNode();
  ManualClock clock(0);
  int64_t shed = 0;
  for (auto _ : state) {
    EventQueue queue(options);
    queue.SetClock(&clock);
    queue.SetShedCallback([&](const StreamElement&) { ++shed; });
    queue.Subscribe("c");
    for (int i = 0; i < kEvents; ++i) {
      while (!queue.Produce(graph, Timestamp::FromMillis(i)).ok()) {
        auto polled = queue.Poll("c", options.capacity);
        benchmark::DoNotOptimize(polled);
        queue.TrimCommitted();
      }
    }
    // Drain the tail so every iteration starts from the same state.
    auto rest = queue.Poll("c", kEvents);
    benchmark::DoNotOptimize(rest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
  state.counters["shed"] = static_cast<double>(shed);
  state.SetLabel(OverflowPolicyName(policy));
}
BENCHMARK(BM_BoundedAdmission)
    ->Arg(static_cast<int>(OverflowPolicy::kBlock))
    ->Arg(static_cast<int>(OverflowPolicy::kReject))
    ->Arg(static_cast<int>(OverflowPolicy::kShedOldest));

// A driver facing a 4096-element backlog (event-time lag ~4 s), normal
// vs. degraded: degraded mode polls 16x larger batches, so the delta is
// the per-pump overhead it amortizes away. No queries are registered —
// the cost measured is the delivery loop itself.
void BM_DegradedCatchUp(benchmark::State& state) {
  const bool degraded = state.range(0) != 0;
  const int kEvents = 4096;
  auto graph = OneNode();
  int64_t degraded_entries = 0;
  int64_t delivered_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue queue;
    for (int i = 0; i < kEvents; ++i) {
      (void)queue.Produce(graph, Timestamp::FromMillis(i));
    }
    ContinuousEngine engine;
    StreamDriver::Options options;
    options.poll_batch = 16;
    if (degraded) {
      options.shed_lag_millis = 1;  // Any backlog counts as overload.
      options.degraded_poll_batch = 256;
    }
    StreamDriver driver(&queue, &engine, options);
    state.ResumeTiming();
    auto delivered = driver.PumpAll();
    benchmark::DoNotOptimize(delivered);
    degraded_entries = driver.degraded_entries();
    delivered_total = driver.delivered_total();
  }
  // Both arms must hand every element over: degraded mode only changes
  // the batch size.
  if (!benchsupport::SameRowsAsReference(state, delivered_total, kEvents)) {
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
  // Makes a silently-disarmed degraded arm visible in the output.
  state.counters["degraded_entries"] = static_cast<double>(degraded_entries);
  state.SetLabel(degraded ? "degraded" : "normal");
}
BENCHMARK(BM_DegradedCatchUp)->Arg(0)->Arg(1);

}  // namespace
}  // namespace seraph

BENCHMARK_MAIN();
