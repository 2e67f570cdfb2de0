// Ablation (DESIGN.md §7.2): incremental window maintenance vs. rebuilding
// each evaluation's snapshot from scratch, as a function of the
// window-to-slide ratio. The expectation: rebuild cost grows with the
// window width (it re-merges every covered element each evaluation) while
// incremental cost tracks the slide (the per-step element delta), so the
// gap widens as windows get wider relative to the slide. It is the
// window-width ablation behind EngineOptions::incremental_snapshots.
#include <benchmark/benchmark.h>

#include "bench_observability.h"
#include "stream/snapshot.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraphStream MakeStream(int minutes) {
  workloads::BikeSharingConfig config;
  config.num_events = minutes / 5;
  config.event_period = Duration::FromMinutes(5);
  config.num_users = 80;
  config.num_stations = 25;
  PropertyGraphStream stream;
  (void)workloads::AppendEvents(
      workloads::GenerateBikeSharingStream(config), &stream);
  return stream;
}

// One full pass: slide a window of `width` minutes by 5-minute steps over
// the whole stream, materializing the snapshot at every step. Returns the
// snapshots' nodes and relationships summed over the steps, the answer
// both arms must agree on.
int64_t Pass(const PropertyGraphStream& stream, bool incremental, int width,
             int64_t* steps) {
  const int64_t horizon = 480;
  int64_t rows = 0;
  auto count = [&](const PropertyGraph& snapshot) {
    rows += static_cast<int64_t>(snapshot.num_nodes() +
                                 snapshot.num_relationships());
    ++*steps;
  };
  if (incremental) {
    IncrementalSnapshotter inc(&stream, IntervalBounds::kLeftOpenRightClosed);
    for (int64_t end = 5; end <= horizon; end += 5) {
      (void)inc.Advance(TimeInterval{T(end - width), T(end)});
      count(inc.graph());
    }
  } else {
    for (int64_t end = 5; end <= horizon; end += 5) {
      count(*BuildSnapshot(stream, TimeInterval{T(end - width), T(end)},
                           IntervalBounds::kLeftOpenRightClosed));
    }
  }
  return rows;
}

// The rebuild arm is the reference: the incremental snapshot must hold
// exactly what a rebuild from scratch holds.
void BM_WindowMaintenance(benchmark::State& state) {
  bool incremental = state.range(0) != 0;
  int width = static_cast<int>(state.range(1));
  static PropertyGraphStream stream = MakeStream(480);  // 8 hours.
  int64_t rows = 0;
  int64_t steps = 0;
  for (auto _ : state) {
    rows = Pass(stream, incremental, width, &steps);
  }
  int64_t reference_steps = 0;
  benchsupport::SameRowsAsReference(
      state, rows, Pass(stream, false, width, &reference_steps));
  state.counters["evaluations"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kIsRate);
  state.SetLabel(std::string(incremental ? "incremental" : "rebuild") +
                 "/width=" + std::to_string(width) + "m/slide=5m");
}
BENCHMARK(BM_WindowMaintenance)
    ->ArgsProduct({{0, 1}, {15, 60, 120, 240}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
