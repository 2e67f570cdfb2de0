// Regenerates the paper's worked results (Tables 2, 5, 6) and measures the
// running example end to end:
//  * one-time Cypher (Listing 1) over the merged Figure-2 store;
//  * the full continuous replay of Listing 5 over the Figure-1 stream.
// On startup it prints the three tables so the bench log doubles as the
// reproduction record (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <iostream>
#include <optional>

#include "bench_observability.h"
#include "common/trace.h"
#include "cypher/executor.h"
#include "cypher/parser.h"
#include "seraph/continuous_engine.h"
#include "seraph/seraph_parser.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

Timestamp At(int hour, int minute) {
  return Timestamp::FromCivil(2022, 10, 14, hour, minute).value();
}

void PrintReproducedTables() {
  std::cout << "=== Reproduction: Table 2 (Listing 1 at 15:40) ===\n";
  PropertyGraph merged = workloads::BuildRunningExampleMergedGraph();
  auto query = ParseCypherQuery(workloads::RunningExampleCypherQuery());
  ExecutionOptions options;
  options.now = At(15, 40);
  auto table2 = ExecuteQueryOnGraph(*query, merged, options);
  std::cout << table2->Canonicalized().ToAsciiTable(
      {"r.user_id", "s.id", "r.val_time", "hops"});

  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  (void)engine.RegisterText(workloads::RunningExampleSeraphQuery());
  for (const auto& event : workloads::BuildRunningExampleStream()) {
    (void)engine.Ingest(event.graph, event.timestamp);
  }
  (void)engine.Drain();
  for (auto [h, m, label] :
       {std::tuple<int, int, const char*>{15, 15, "Table 5 (15:15h)"},
        {15, 40, "Table 6 (15:40h)"}}) {
    auto result = sink.ResultAt("student_trick", At(h, m));
    std::cout << "=== Reproduction: " << label << " ===\n"
              << TimeAnnotatedTable{result->table, result->window}
                     .WithAnnotations()
                     .Canonicalized()
                     .ToAsciiTable({"r.user_id", "s.id", "r.val_time",
                                    "hops", "win_start", "win_end"});
  }
  // Stage breakdown of the replay above, as one JSON line on stderr, so
  // the bench log records where pipeline time went.
  benchsupport::DumpEngineMetricsJson(engine, "running_example_replay");
}

// Table 2: one-time Cypher query over the merged store.
void BM_Table2_OneTimeCypher(benchmark::State& state) {
  PropertyGraph merged = workloads::BuildRunningExampleMergedGraph();
  auto query = ParseCypherQuery(workloads::RunningExampleCypherQuery());
  ExecutionOptions options;
  options.now = At(15, 40);
  for (auto _ : state) {
    auto result = ExecuteQueryOnGraph(*query, merged, options);
    if (!result.ok() || result->size() != 2) {
      state.SkipWithError("unexpected Table 2 result");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Table2_OneTimeCypher);

// Tables 5/6: full continuous replay (register, ingest 5 events, run the
// 12-instant ET grid).
void BM_Tables5and6_ContinuousReplay(benchmark::State& state) {
  bool incremental = state.range(0) != 0;
  std::vector<workloads::Event> events =
      workloads::BuildRunningExampleStream();
  int64_t rows = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    EngineOptions options;
    options.incremental_snapshots = incremental;
    engine.emplace(options);
    CollectingSink sink;
    engine->AddSink(&sink);
    (void)engine->RegisterText(workloads::RunningExampleSeraphQuery());
    for (const auto& event : events) {
      (void)engine->Ingest(event.graph, event.timestamp);
    }
    (void)engine->Drain();
    if (!stages.End(state, *engine, "student_trick")) return;
    for (const auto& entry : sink.ResultsFor("student_trick").entries()) {
      rows += static_cast<int64_t>(entry.table.size());
    }
  }
  state.counters["rows_per_replay"] =
      static_cast<double>(rows) / state.iterations();
  stages.Report(state);
  state.SetLabel(incremental ? "incremental" : "rebuild");
}
BENCHMARK(BM_Tables5and6_ContinuousReplay)->Arg(0)->Arg(1);

// Observability overhead guard: the full continuous replay with (0) no
// recorder attached, (1) a recorder attached but disabled — the
// always-on-metrics default — and (2) tracing fully enabled. The
// acceptance bar is (1) within noise (<2%) of (0); compare the two rows
// in the timing output.
void BM_TracingOverheadGuard(benchmark::State& state) {
  int mode = static_cast<int>(state.range(0));
  std::vector<workloads::Event> events =
      workloads::BuildRunningExampleStream();
  TraceRecorder recorder;
  if (mode == 2) recorder.Enable();
  for (auto _ : state) {
    EngineOptions options;
    if (mode >= 1) options.tracer = &recorder;
    ContinuousEngine engine(options);
    CollectingSink sink;
    engine.AddSink(&sink);
    (void)engine.RegisterText(workloads::RunningExampleSeraphQuery());
    for (const auto& event : events) {
      (void)engine.Ingest(event.graph, event.timestamp);
    }
    (void)engine.Drain();
    benchmark::DoNotOptimize(engine);
    if (mode == 2) {
      state.counters["trace_events"] =
          static_cast<double>(recorder.size());
      recorder.Clear();
    }
  }
  state.SetLabel(mode == 0   ? "no_recorder"
                 : mode == 1 ? "disabled_recorder"
                             : "enabled_recorder");
}
BENCHMARK(BM_TracingOverheadGuard)->Arg(0)->Arg(1)->Arg(2);

// Parsing the two canonical queries.
void BM_ParseListing1(benchmark::State& state) {
  std::string text = workloads::RunningExampleCypherQuery();
  for (auto _ : state) {
    auto query = ParseCypherQuery(text);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_ParseListing1);

void BM_ParseListing5(benchmark::State& state) {
  std::string text = workloads::RunningExampleSeraphQuery();
  for (auto _ : state) {
    auto query = ParseSeraphQuery(text);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_ParseListing5);

}  // namespace

int main(int argc, char** argv) {
  PrintReproducedTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
