// The acceptance guard for the emit-latency layer: arrival stamping and
// per-element latency accounting must stay within a few percent of a
// stamping-disabled engine (docs/INTERNALS.md, "Latency accounting &
// lag"). Arg(0) runs with `latency_stamping = false` (the ablation arm),
// Arg(1) with the default stamping on — compare the two labelled series
// in the bench-baseline diff.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_observability.h"
#include "seraph/continuous_engine.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace {

// The full running-example pipeline end to end, toggled on stamping.
// Everything else (queries, events, sinks) is identical across the two
// arms, so the delta isolates the cost of NowMicros stamping at ingest
// plus the cursor walk and histogram records at delivery. Stamping must
// not change the answer: the stamping-off arm is the reference.
void BM_StampingOverheadGuard(benchmark::State& state) {
  const bool stamping = state.range(0) != 0;
  std::vector<workloads::Event> events =
      workloads::BuildRunningExampleStream();
  int64_t latency_samples = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    EngineOptions options;
    options.latency_stamping = stamping;
    ContinuousEngine engine(options);
    rows = benchsupport::ReplayRunningExample(engine, events);
    benchmark::DoNotOptimize(engine);
    const Histogram* h =
        engine.metrics().FindHistogram("seraph_engine_emit_latency_micros");
    latency_samples = h != nullptr ? h->Snapshot().count : 0;
  }
  EngineOptions reference_options;
  reference_options.latency_stamping = false;
  ContinuousEngine reference(reference_options);
  if (!benchsupport::SameRowsAsReference(
          state, rows, benchsupport::ReplayRunningExample(reference, events))) {
    return;
  }
  // Stamping on must actually record; off must record nothing — the
  // counter makes a silently-broken arm visible in the bench output.
  state.counters["latency_samples"] = static_cast<double>(latency_samples);
  state.SetLabel(stamping ? "stamping_on" : "stamping_off");
}
BENCHMARK(BM_StampingOverheadGuard)->Arg(0)->Arg(1);

// The hot half of the stamping cost in isolation: ingest-only (no
// evaluations), so the per-element clock read and watermark/lag gauge
// updates dominate.
void BM_IngestStampingOnly(benchmark::State& state) {
  const bool stamping = state.range(0) != 0;
  std::vector<workloads::Event> events =
      workloads::BuildRunningExampleStream();
  for (auto _ : state) {
    EngineOptions options;
    options.latency_stamping = stamping;
    ContinuousEngine engine(options);
    for (const auto& event : events) {
      (void)engine.Ingest(event.graph, event.timestamp);
    }
    benchmark::DoNotOptimize(engine);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(stamping ? "stamping_on" : "stamping_off");
}
BENCHMARK(BM_IngestStampingOnly)->Arg(0)->Arg(1);

}  // namespace
}  // namespace seraph

BENCHMARK_MAIN();
