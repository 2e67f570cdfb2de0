// Ablation (DESIGN.md §7.3): the cost and output volume of the three
// report policies over the same stream and query. SNAPSHOT pays output
// volume (it re-emits standing results every period); the delta policies
// pay one bag difference per evaluation but emit only changes.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_observability.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

std::string QueryWithPolicy(const char* policy) {
  std::string q = R"(
    REGISTER QUERY pq STARTING AT '1970-01-01T00:05'
    {
      MATCH (b:Bike)-[r:rentedAt]->(s:Station)
      WITHIN PT1H
      EMIT r.user_id, s.id, r.val_time
  )";
  q += policy;
  q += " EVERY PT5M }";
  return q;
}

void BM_ReportPolicy(benchmark::State& state) {
  const char* policies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};
  const char* policy = policies[state.range(0)];

  workloads::BikeSharingConfig config;
  config.num_events = 48;
  config.num_users = 80;
  config.num_stations = 25;
  auto events = workloads::GenerateBikeSharingStream(config);

  int64_t rows = 0;
  int64_t evals = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    engine.emplace();
    CountingSink sink;
    engine->AddSink(&sink);
    if (!engine->RegisterText(QueryWithPolicy(policy)).ok()) {
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
    if (!stages.End(state, *engine, "pq")) return;
    rows += sink.rows();
    evals += sink.evaluations();
  }
  stages.Report(state);
  state.counters["rows_emitted_per_run"] =
      state.iterations() > 0
          ? static_cast<double>(rows) / state.iterations()
          : 0;
  state.counters["evaluations_per_run"] =
      state.iterations() > 0
          ? static_cast<double>(evals) / state.iterations()
          : 0;
  state.SetLabel(policy);
}
BENCHMARK(BM_ReportPolicy)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
