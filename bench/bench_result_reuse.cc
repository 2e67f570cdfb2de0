// Ablation: result reuse on unchanged window contents (§6 "avoidable
// re-executions"). A bursty stream leaves many consecutive evaluation
// instants with identical active substreams; with reuse enabled those
// evaluations skip matching entirely. It is the one measurement of
// EngineOptions::reuse_unchanged_windows.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_observability.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

// A bursty stream: `bursts` bursts of activity separated by long silences.
std::vector<workloads::Event> BurstyStream(int bursts, int quiet_minutes) {
  workloads::BikeSharingConfig config;
  config.num_events = 6;  // 30 minutes of activity per burst.
  config.num_users = 60;
  config.num_stations = 25;
  std::vector<workloads::Event> all;
  Timestamp offset = Timestamp::FromMillis(0);
  for (int b = 0; b < bursts; ++b) {
    config.seed = 100 + b;
    config.start = offset;
    auto burst = workloads::GenerateBikeSharingStream(config);
    all.insert(all.end(), burst.begin(), burst.end());
    offset = offset + Duration::FromMinutes(30 + quiet_minutes);
  }
  return all;
}

// Registers the query, ingests `events` and drains the engine. Returns
// false when the engine fails.
bool Replay(ContinuousEngine& engine, CountingSink& sink,
            const std::vector<workloads::Event>& events) {
  engine.AddSink(&sink);
  (void)engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    {
      MATCH (b:Bike)-[r:rentedAt]->(s:Station)
      WITHIN PT20M
      EMIT r.user_id, s.id ON ENTERING EVERY PT1M
    })");
  for (const auto& event : events) {
    (void)engine.Ingest(event.graph, event.timestamp);
  }
  return engine.Drain().ok();
}

// The no-reuse arm is the reference: a reused result must be the one a
// fresh evaluation would have emitted.
void BM_BurstyStream(benchmark::State& state) {
  bool reuse = state.range(0) != 0;
  int quiet = static_cast<int>(state.range(1));
  auto events = BurstyStream(4, quiet);
  int64_t reused = 0;
  int64_t evals = 0;
  int64_t rows = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    EngineOptions options;
    options.reuse_unchanged_windows = reuse;
    engine.emplace(options);
    CountingSink sink;
    if (!Replay(*engine, sink, events)) {
      state.SkipWithError("drain failed");
      return;
    }
    if (!stages.End(state, *engine, "q")) return;
    QueryStats stats = *engine->StatsFor("q");
    reused += stats.reused_results;
    evals += stats.evaluations;
    rows = sink.rows();
  }
  EngineOptions reference_options;
  reference_options.reuse_unchanged_windows = false;
  ContinuousEngine reference(reference_options);
  CountingSink reference_sink;
  if (!Replay(reference, reference_sink, events)) {
    state.SkipWithError("reference drain failed");
    return;
  }
  if (!benchsupport::SameRowsAsReference(state, rows, reference_sink.rows())) {
    return;
  }
  state.counters["evaluations"] =
      static_cast<double>(evals) / state.iterations();
  state.counters["reused"] = static_cast<double>(reused) / state.iterations();
  stages.Report(state);
  state.SetLabel(std::string(reuse ? "reuse" : "no_reuse") + "/quiet=" +
                 std::to_string(quiet) + "m");
}
BENCHMARK(BM_BurstyStream)
    ->ArgsProduct({{0, 1}, {30, 120}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
