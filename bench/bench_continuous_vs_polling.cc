// The paper's motivating comparison (Section 3.3 vs. Section 5): Seraph's
// native continuous engine against the external-polling workaround, which
// merges everything into one ever-growing store and re-runs a plain
// Cypher query (with explicit time predicates) every period.
//
// Expected shape: the baseline's per-poll cost grows with the total store
// (it re-matches history it will then filter out), while the native
// engine's cost tracks the window content; the gap widens with stream
// length. The baseline also re-reports standing results (no ON ENTERING).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_observability.h"
#include "cypher/parser.h"
#include "seraph/continuous_engine.h"
#include "seraph/polling_baseline.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

constexpr char kSeraphQuery[] = R"(
  REGISTER QUERY rentals STARTING AT '1970-01-01T00:05'
  {
    MATCH (b:Bike)-[r:rentedAt]->(s:Station)
    WITHIN PT30M
    EMIT r.user_id, s.id, r.val_time
    ON ENTERING EVERY PT5M
  })";

// The equivalent one-time query the workaround must run: it windows by
// val_time against datetime() because the store has no window notion.
constexpr char kPollingQuery[] = R"(
  WITH datetime() AS win_end, datetime() - duration('PT30M') AS win_start
  MATCH (b:Bike)-[r:rentedAt]->(s:Station)
  WHERE win_start < r.val_time AND r.val_time <= win_end
  RETURN r.user_id, s.id, r.val_time
)";

std::vector<workloads::Event> MakeEvents(int count) {
  workloads::BikeSharingConfig config;
  config.num_events = count;
  config.num_users = 60;
  config.num_stations = 25;
  return workloads::GenerateBikeSharingStream(config);
}

void BM_NativeContinuous(benchmark::State& state) {
  auto events = MakeEvents(static_cast<int>(state.range(0)));
  int64_t rows = 0;
  std::optional<ContinuousEngine> engine;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    stages.Begin();
    engine.emplace();
    CountingSink sink;
    engine->AddSink(&sink);
    (void)engine->RegisterText(kSeraphQuery);
    for (const auto& event : events) {
      (void)engine->Ingest(event.graph, event.timestamp);
    }
    if (!engine->Drain().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    if (!stages.End(state, *engine, "rentals")) return;
    rows += sink.rows();
  }
  state.counters["rows_per_run"] =
      static_cast<double>(rows) / state.iterations();
  stages.Report(state);
  state.SetLabel("native/" + std::to_string(state.range(0)) + "events");
}
BENCHMARK(BM_NativeContinuous)->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_PollingWorkaround(benchmark::State& state) {
  auto events = MakeEvents(static_cast<int>(state.range(0)));
  Timestamp horizon = events.empty() ? Timestamp() : events.back().timestamp;
  int64_t rows = 0;
  for (auto _ : state) {
    auto query = ParseCypherQuery(kPollingQuery);
    PollingBaseline baseline(std::move(query).value(),
                             Timestamp::FromMillis(5 * 60'000),
                             Duration::FromMinutes(5));
    size_t next = 0;
    for (int64_t poll_ms = 5 * 60'000; poll_ms <= horizon.millis();
         poll_ms += 5 * 60'000) {
      Timestamp poll = Timestamp::FromMillis(poll_ms);
      while (next < events.size() && events[next].timestamp <= poll) {
        (void)baseline.Ingest(events[next++].graph);
      }
      auto due = baseline.AdvanceTo(poll);
      if (!due.ok()) {
        state.SkipWithError("poll failed");
        return;
      }
      for (const auto& [at, table] : *due) {
        rows += static_cast<int64_t>(table.size());
      }
    }
  }
  state.counters["rows_per_run"] =
      static_cast<double>(rows) / state.iterations();
  state.SetLabel("polling/" + std::to_string(state.range(0)) + "events");
}
BENCHMARK(BM_PollingWorkaround)->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
