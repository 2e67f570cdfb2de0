// Shared bench plumbing: fold the per-stage pipeline breakdown of the
// timed regions into google-benchmark user counters (so
// `--benchmark_format=json` / BENCH_*.json rows carry stage costs, not
// just wall time), check that an ablation's arms agree on their answer,
// replay the paper's running example, and dump the whole metrics registry as a tagged JSON line on stderr for
// ad-hoc inspection.
#ifndef SERAPH_BENCH_BENCH_OBSERVABILITY_H_
#define SERAPH_BENCH_BENCH_OBSERVABILITY_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "seraph/continuous_engine.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace benchsupport {

// The stage breakdown of a bench's timed regions, folded into its user
// counters. Per iteration, Begin() where the timed region starts and
// End() where it ends; after the loop, Report() writes per-evaluation
// averages over every timed region. Evaluations outside the regions
// (a paused warm-up, say) are not counted.
class StageCounters {
 public:
  // `engine` is the engine the region evaluates, or null when the region
  // constructs it (then all of its stage time is inside the region).
  void Begin(const ContinuousEngine* engine = nullptr,
             const std::string& query = "") {
    before_ = engine != nullptr ? Stats(*engine, query) : QueryStats{};
    wall_micros_ = 0;
    wall_ = StageTimer(nullptr, "timed_region", "bench", nullptr,
                       &wall_micros_);
  }

  // Adds the region's stage times. The engine's serial stages never
  // overlap, so they cannot add up to more than the region's wall time;
  // if they do, the bench fails and End returns false.
  bool End(benchmark::State& state, const ContinuousEngine& engine,
           const std::string& query = "") {
    wall_.Stop();
    const QueryStats after = Stats(engine, query);
    const int64_t stage_micros = StageMicros(after) - StageMicros(before_);
    if (stage_micros > wall_micros_) {
      state.SkipWithError(("stage times add up to " +
                           std::to_string(stage_micros) +
                           " us, more than the timed region's " +
                           std::to_string(wall_micros_) + " us")
                              .c_str());
      return false;
    }
    after_total_ += after;
    before_total_ += before_;
    return true;
  }

  void Report(benchmark::State& state) const {
    const int64_t evals = after_total_.evaluations - before_total_.evaluations;
    if (evals <= 0) return;
    auto per_eval = [&](int64_t QueryStats::*field) {
      return static_cast<double>(after_total_.*field -
                                 before_total_.*field) /
             static_cast<double>(evals);
    };
    state.counters["stage_window_us"] = per_eval(&QueryStats::window_micros);
    state.counters["stage_snapshot_us"] =
        per_eval(&QueryStats::snapshot_micros);
    state.counters["stage_match_us"] = per_eval(&QueryStats::match_micros);
    state.counters["stage_policy_us"] = per_eval(&QueryStats::policy_micros);
    state.counters["stage_sink_us"] = per_eval(&QueryStats::sink_micros);
    state.counters["reuse_rate"] = per_eval(&QueryStats::reused_results);
  }

 private:
  // `query`'s stats, or the first registered query's when it is empty.
  static QueryStats Stats(const ContinuousEngine& engine,
                          std::string query) {
    if (query.empty()) {
      auto names = engine.QueryNames();
      if (names.empty()) return {};
      query = names.front();
    }
    auto stats = engine.StatsFor(query);
    return stats.ok() ? *stats : QueryStats{};
  }

  static int64_t StageMicros(const QueryStats& s) {
    return s.window_micros + s.snapshot_micros + s.match_micros +
           s.policy_micros + s.sink_micros;
  }

  QueryStats before_;
  QueryStats before_total_;
  QueryStats after_total_;
  int64_t wall_micros_ = 0;
  StageTimer wall_;
};

// Ablation arms must compute the same answer: reports `rows` and fails
// the bench when it differs from the reference arm's count. Returns
// whether they agree.
inline bool SameRowsAsReference(benchmark::State& state, int64_t rows,
                                int64_t reference) {
  state.counters["rows"] = static_cast<double>(rows);
  if (rows == reference) return true;
  state.SkipWithError(("arm computed " + std::to_string(rows) +
                       " rows, the reference arm " +
                       std::to_string(reference))
                          .c_str());
  return false;
}

// The continuous replay of Listing 5 over the Figure-1 stream on
// `engine`. Returns the rows it emitted.
inline int64_t ReplayRunningExample(
    ContinuousEngine& engine, const std::vector<workloads::Event>& events) {
  CollectingSink sink;
  engine.AddSink(&sink);
  (void)engine.RegisterText(workloads::RunningExampleSeraphQuery());
  for (const auto& event : events) {
    (void)engine.Ingest(event.graph, event.timestamp);
  }
  (void)engine.Drain();
  int64_t rows = 0;
  for (const auto& entry : sink.ResultsFor("student_trick").entries()) {
    rows += static_cast<int64_t>(entry.table.size());
  }
  return rows;
}

// One tagged JSON line on stderr (stdout belongs to the benchmark
// reporter): `SERAPH_ENGINE_METRICS <tag> {...}`.
inline void DumpEngineMetricsJson(const ContinuousEngine& engine,
                                  const std::string& tag) {
  std::cerr << "SERAPH_ENGINE_METRICS " << tag << " "
            << engine.metrics().ToJson() << "\n";
}

}  // namespace benchsupport
}  // namespace seraph

#endif  // SERAPH_BENCH_BENCH_OBSERVABILITY_H_
