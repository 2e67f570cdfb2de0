// Table 1's three continuous queries end to end: micro-mobility fraud
// (Listing 5, bounded variant), network monitoring (Listing 2
// reconstruction, shortestPath + z-score), and POLE surveillance.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_observability.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"
#include "workloads/network.h"
#include "workloads/pole.h"

namespace {

using namespace seraph;

void RunStream(const std::string& query,
               const std::vector<workloads::Event>& events,
               benchmark::State& state) {
  int64_t rows = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    engine.emplace();
    CountingSink sink;
    engine->AddSink(&sink);
    if (!engine->RegisterText(query).ok()) {
      state.SkipWithError("register failed");
      return;
    }
    for (const auto& event : events) {
      (void)engine->Ingest(event.graph, event.timestamp);
    }
    if (!engine->Drain().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    if (!stages.End(state, *engine)) return;
    rows += sink.rows();
  }
  stages.Report(state);
  state.counters["alert_rows_per_run"] =
      static_cast<double>(rows) / state.iterations();
  int64_t elements = 0;
  for (const auto& e : events) {
    elements += static_cast<int64_t>(e.graph.num_relationships());
  }
  state.counters["stream_rels"] = static_cast<double>(elements);
}

void BM_MicroMobilityFraud(benchmark::State& state) {
  workloads::BikeSharingConfig config;
  config.num_events = static_cast<int>(state.range(0));
  config.num_users = 60;
  config.num_stations = 40;
  config.fraud_fraction = 0.08;
  auto events = workloads::GenerateBikeSharingStream(config);
  RunStream(R"(
    REGISTER QUERY student_trick STARTING AT '1970-01-01T00:05'
    {
      MATCH (b:Bike)-[r:rentedAt]->(s:Station),
            q = (b)-[:returnedAt|rentedAt*3..5]-(o:Station)
      WITHIN PT1H
      WITH r, s, q, relationships(q) AS rels
      WHERE ALL(e IN rels WHERE
            e.user_id = r.user_id AND e.val_time > r.val_time AND
            (e.duration IS NULL OR e.duration < 20))
      EMIT r.user_id, s.id, r.val_time
      ON ENTERING EVERY PT5M
    })",
            events, state);
  state.SetLabel("bike_sharing/" + std::to_string(state.range(0)) +
                 "events");
}
BENCHMARK(BM_MicroMobilityFraud)->Arg(24)->Arg(48)
    ->Unit(benchmark::kMillisecond);

void BM_NetworkMonitoring(benchmark::State& state) {
  workloads::NetworkConfig config;
  config.num_ticks = static_cast<int>(state.range(0));
  config.failure_probability = 0.15;
  auto events = workloads::GenerateNetworkStream(config);
  RunStream(workloads::NetworkMonitoringSeraphQuery(config.start +
                                                    config.tick_period),
            events, state);
  state.SetLabel("network/" + std::to_string(state.range(0)) + "ticks");
}
BENCHMARK(BM_NetworkMonitoring)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_CrimeInvestigation(benchmark::State& state) {
  workloads::PoleConfig config;
  config.num_events = static_cast<int>(state.range(0));
  config.crime_probability = 0.3;
  auto events = workloads::GeneratePoleStream(config);
  RunStream(workloads::CrimeInvestigationSeraphQuery(config.start +
                                                     config.event_period),
            events, state);
  state.SetLabel("pole/" + std::to_string(state.range(0)) + "events");
}
BENCHMARK(BM_CrimeInvestigation)->Arg(24)->Arg(48)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
