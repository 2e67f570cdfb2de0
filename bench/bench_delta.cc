// Ablation: delta matching (docs/INTERNALS.md, "Incremental
// evaluation"). A large window with a small churning hot set is the
// regime the partial-match index targets: full re-matching scans every
// window node at every instant (cost linear in window size), while the
// delta path repairs the index from the advance's dirty sets and emits
// from it (cost proportional to churn). With the churn held fixed, the
// steady-state evaluation latency must stay essentially flat as the
// window grows 1x → 8x under delta matching, and grow linearly without
// it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_observability.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"

namespace {

using namespace seraph;

Timestamp T(int64_t minutes) {
  return Timestamp::FromMillis(minutes * 60'000);
}

std::string IsoMinute(int64_t minutes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "1970-01-01T%02d:%02d",
                static_cast<int>(minutes / 60),
                static_cast<int>(minutes % 60));
  return buf;
}

constexpr int kBaseWindowMinutes = 8;  // WITHIN at multiplier 1.
constexpr int kFillNodesPerMinute = 100;
constexpr int kHotNodes = 16;   // Fixed churning subset, ids 1..16.
constexpr int kChurnMinutes = 8;

// One element per minute. Fill elements carry bulk :N nodes (fresh ids)
// wired with F-typed relationships — window ballast the pattern's E-type
// anchor rejects but a full re-match must still scan. Churn elements
// re-merge the hot nodes (payload update → dirty nodes) and add fresh
// E-typed relationships among them (dirty rels), so every advance's
// dirty set is O(hot + one evicted fill element) regardless of the
// window multiplier.
struct DeltaWorkload {
  std::vector<std::pair<int64_t, PropertyGraph>> events;  // (minute, graph).
  int64_t fill_end;  // First churn minute; evaluations start here.
  int64_t end;       // Last minute + 1.
};

DeltaWorkload BuildWorkload(int window_minutes) {
  DeltaWorkload out;
  int64_t next_node_id = 1000;  // Above the hot set.
  int64_t next_rel_id = 1;
  for (int64_t m = 0; m < window_minutes; ++m) {
    GraphBuilder builder;
    std::vector<int64_t> ids;
    for (int i = 0; i < kFillNodesPerMinute; ++i) {
      ids.push_back(next_node_id);
      builder.Node(next_node_id++, {"N"},
                   {{"v", Value::Int(static_cast<int64_t>(i % 10))}});
    }
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      builder.Rel(next_rel_id++, ids[i], ids[i + 1], "F");
    }
    out.events.emplace_back(m, builder.Build());
  }
  out.fill_end = window_minutes;
  for (int64_t m = 0; m < kChurnMinutes; ++m) {
    GraphBuilder builder;
    for (int h = 1; h <= kHotNodes; ++h) {
      builder.Node(h, {"N"}, {{"v", Value::Int((m + h) % 10)}});
    }
    for (int h = 1; h < kHotNodes; ++h) {
      builder.Rel(next_rel_id++, h, h + 1, "E");
    }
    out.events.emplace_back(window_minutes + m, builder.Build());
  }
  out.end = window_minutes + kChurnMinutes;
  return out;
}

// Registers `query` on `engine`, ingests the whole workload and runs the
// first evaluation: a full window build on both arms (delta pays its
// index construction here). Returns false when the engine fails.
bool Prepare(ContinuousEngine& engine, CountingSink& sink,
             const DeltaWorkload& workload, const std::string& query) {
  engine.AddSink(&sink);
  if (!engine.RegisterText(query).ok()) return false;
  for (const auto& [minute, graph] : workload.events) {
    (void)engine.Ingest(graph, T(minute));
  }
  return engine.AdvanceTo(T(workload.fill_end)).ok();
}

// Times only the steady-state churn evaluations: engine construction,
// stream ingestion, and the first evaluation (which pays the one-off
// index build) run with the timer paused. The full arm is the reference:
// delta matching must emit the rows a full re-match emits.
void BM_WindowScaling(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  const int multiplier = static_cast<int>(state.range(1));
  const int window_minutes = kBaseWindowMinutes * multiplier;
  const DeltaWorkload workload = BuildWorkload(window_minutes);
  const std::string query =
      "REGISTER QUERY q STARTING AT '" + IsoMinute(workload.fill_end) +
      "' { MATCH (a:N)-[r:E]->(b:N) WITHIN PT" +
      std::to_string(window_minutes) +
      "M EMIT a.v AS av, b.v AS bv SNAPSHOT EVERY PT1M }";
  int64_t evals = 0;
  int64_t rows = 0;
  std::optional<ContinuousEngine> engine;
  CountingSink sink;
  benchsupport::StageCounters stages;
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions options;
    options.delta_matching = delta;
    engine.emplace(options);
    if (!Prepare(*engine, sink, workload, query)) {
      state.SkipWithError("warmup failed");
      return;
    }
    const int64_t rows_before = sink.rows();
    state.ResumeTiming();
    stages.Begin(&*engine, "q");
    if (!engine->AdvanceTo(T(workload.end + 1)).ok()) {
      state.SkipWithError("advance failed");
      return;
    }
    if (!stages.End(state, *engine, "q")) return;
    evals += static_cast<int64_t>(engine->StatsFor("q")->evaluations) - 1;
    rows = sink.rows() - rows_before;
  }
  EngineOptions reference_options;
  reference_options.delta_matching = false;
  ContinuousEngine reference(reference_options);
  CountingSink reference_sink;
  if (!Prepare(reference, reference_sink, workload, query)) {
    state.SkipWithError("reference warmup failed");
    return;
  }
  const int64_t reference_before = reference_sink.rows();
  if (!reference.AdvanceTo(T(workload.end + 1)).ok()) {
    state.SkipWithError("reference advance failed");
    return;
  }
  if (!benchsupport::SameRowsAsReference(
          state, rows, reference_sink.rows() - reference_before)) {
    return;
  }
  state.counters["evals"] = static_cast<double>(evals) / state.iterations();
  state.counters["window_nodes"] =
      static_cast<double>(window_minutes) * kFillNodesPerMinute;
  if (engine.has_value()) {
    QueryStats stats = *engine->StatsFor("q");
    state.counters["fresh"] = static_cast<double>(stats.fresh_executions);
  }
  stages.Report(state);
  state.SetLabel(std::string(delta ? "delta" : "full") + "/window=" +
                 std::to_string(multiplier) + "x");
}
BENCHMARK(BM_WindowScaling)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
