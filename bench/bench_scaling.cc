// Engine scaling sweeps: evaluation cost vs. window width, slide period,
// and stream density for a fixed simple query (the Fig. 5 pipeline minus
// pathological pattern blow-ups, so the window machinery dominates).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_observability.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

std::string RentalQuery(int width_minutes, int every_minutes) {
  return "REGISTER QUERY sq STARTING AT '1970-01-01T00:05' { "
         "MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT" +
         std::to_string(width_minutes) +
         "M EMIT r.user_id, s.id ON ENTERING EVERY PT" +
         std::to_string(every_minutes) + "M }";
}

std::vector<workloads::Event> Events(int count, int users) {
  workloads::BikeSharingConfig config;
  config.num_events = count;
  config.num_users = users;
  config.num_stations = 30;
  return workloads::GenerateBikeSharingStream(config);
}

void Drive(const std::string& query,
           const std::vector<workloads::Event>& events,
           benchmark::State& state) {
  int64_t evals = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    engine.emplace();
    CountingSink sink;
    engine->AddSink(&sink);
    (void)engine->RegisterText(query);
    for (const auto& event : events) {
      (void)engine->Ingest(event.graph, event.timestamp);
    }
    if (!engine->Drain().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    if (!stages.End(state, *engine)) return;
    evals += engine->evaluations_run();
  }
  state.counters["evaluations_per_run"] =
      static_cast<double>(evals) / state.iterations();
  stages.Report(state);
}

void BM_WindowWidthSweep(benchmark::State& state) {
  static auto events = Events(96, 60);  // 8 hours.
  Drive(RentalQuery(static_cast<int>(state.range(0)), 5), events, state);
  state.SetLabel("width=" + std::to_string(state.range(0)) + "m");
}
BENCHMARK(BM_WindowWidthSweep)->Arg(10)->Arg(30)->Arg(60)->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_SlideSweep(benchmark::State& state) {
  static auto events = Events(96, 60);
  Drive(RentalQuery(60, static_cast<int>(state.range(0))), events, state);
  state.SetLabel("every=" + std::to_string(state.range(0)) + "m");
}
BENCHMARK(BM_SlideSweep)->Arg(1)->Arg(5)->Arg(15)->Arg(30)
    ->Unit(benchmark::kMillisecond);

void BM_StreamDensitySweep(benchmark::State& state) {
  auto events = Events(48, static_cast<int>(state.range(0)));
  Drive(RentalQuery(30, 5), events, state);
  state.SetLabel("users=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_StreamDensitySweep)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMillisecond);

void BM_ConcurrentQueries(benchmark::State& state) {
  static auto events = Events(48, 60);
  int queries = static_cast<int>(state.range(0));
  int64_t evals = 0;
  for (auto _ : state) {
    ContinuousEngine engine;
    CountingSink sink;
    engine.AddSink(&sink);
    for (int i = 0; i < queries; ++i) {
      std::string q = RentalQuery(10 + 10 * i, 5);
      q.replace(q.find("sq"), 2, "sq" + std::to_string(i));
      (void)engine.RegisterText(q);
    }
    for (const auto& event : events) {
      (void)engine.Ingest(event.graph, event.timestamp);
    }
    if (!engine.Drain().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    evals += engine.evaluations_run();
  }
  state.counters["evaluations_per_run"] =
      static_cast<double>(evals) / state.iterations();
  state.SetLabel(std::to_string(queries) + " queries");
}
BENCHMARK(BM_ConcurrentQueries)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
