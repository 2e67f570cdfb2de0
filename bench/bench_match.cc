// Pattern-matching throughput (the MATCH step of Fig. 5): fixed-hop
// chains, variable-length expansion depth, shortestPath BFS, the
// label-indexed-seed vs. full-scan ablation (DESIGN.md §7.5), the
// most-selective-label seed ablation, and morsel-partitioned parallel
// matching scaling (docs/INTERNALS.md, "Intra-query parallelism").
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "bench_observability.h"
#include "common/thread_pool.h"
#include "cypher/executor.h"
#include "cypher/matcher.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"

namespace {

using namespace seraph;

// A layered graph: `layers` levels of `width` nodes, each node linked to
// two nodes of the next layer; first layer labelled Src, last Dst, all
// labelled N.
PropertyGraph Layered(int layers, int width) {
  GraphBuilder b;
  auto id = [width](int layer, int i) {
    return static_cast<int64_t>(layer) * width + i + 1;
  };
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      if (layer == 0) {
        b.Node(id(layer, i), {"N", "Src"}, {{"i", Value::Int(i)}});
      } else if (layer == layers - 1) {
        b.Node(id(layer, i), {"N", "Dst"}, {{"i", Value::Int(i)}});
      } else {
        b.Node(id(layer, i), {"N"}, {{"i", Value::Int(i)}});
      }
    }
  }
  int64_t rel = 0;
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      b.Rel(++rel, id(layer, i), id(layer + 1, i), "E");
      b.Rel(++rel, id(layer, i), id(layer + 1, (i + 1) % width), "E");
    }
  }
  return b.Build();
}

Table MustRun(const Query& q, const PropertyGraph& g) {
  ExecutionOptions options;
  auto result = ExecuteQueryOnGraph(q, g, options);
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

// The `c` of a `RETURN count(*) AS c` query.
int64_t Count(const Table& t) { return t.rows()[0].GetOrNull("c").AsInt(); }

int64_t CountOf(const std::string& text, const PropertyGraph& g) {
  auto q = ParseCypherQuery(text);
  if (!q.ok()) std::abort();
  return Count(MustRun(*q, g));
}

void BM_FixedChain(benchmark::State& state) {
  int hops = static_cast<int>(state.range(0));
  PropertyGraph g = Layered(hops + 1, 32);
  std::string text = "MATCH (a:Src)";
  for (int i = 0; i < hops; ++i) text += "-[:E]->()";
  text += " RETURN count(*) AS c";
  auto q = ParseCypherQuery(text);
  for (auto _ : state) {
    Table t = MustRun(*q, g);
    benchmark::DoNotOptimize(t);
  }
  state.SetLabel(std::to_string(hops) + " hops");
}
BENCHMARK(BM_FixedChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_VarLengthDepth(benchmark::State& state) {
  int max = static_cast<int>(state.range(0));
  PropertyGraph g = Layered(10, 16);
  auto q = ParseCypherQuery("MATCH (a:Src)-[:E*1.." + std::to_string(max) +
                            "]->(x) RETURN count(*) AS c");
  int64_t matches = 0;
  for (auto _ : state) {
    matches = Count(MustRun(*q, g));
  }
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_VarLengthDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_ShortestPath(benchmark::State& state) {
  int layers = static_cast<int>(state.range(0));
  PropertyGraph g = Layered(layers, 16);
  auto q = ParseCypherQuery(
      "MATCH p = shortestPath((a:Src {i: 0})-[:E*..32]-(b:Dst {i: 0})) "
      "RETURN length(p) AS len");
  for (auto _ : state) {
    Table t = MustRun(*q, g);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShortestPath)->Arg(4)->Arg(8)->Arg(16);

// Ablation: seeding node candidates from the label index vs. scanning all
// nodes. Both arms ask for the same rows; the scan arm states the label as
// a WHERE predicate, which the matcher cannot seed from.
void BM_SeedSelectivity(benchmark::State& state) {
  bool indexed = state.range(0) != 0;
  PropertyGraph g = Layered(12, 64);  // 768 nodes, 64 Src.
  const std::string reference = "MATCH (a:Src)-[:E]->(b) RETURN count(*) AS c";
  auto q = ParseCypherQuery(indexed ? reference
                                    : "MATCH (a)-[:E]->(b) "
                                      "WHERE 'Src' IN labels(a) "
                                      "RETURN count(*) AS c");
  int64_t rows = 0;
  for (auto _ : state) {
    rows = Count(MustRun(*q, g));
  }
  benchsupport::SameRowsAsReference(state, rows, CountOf(reference, g));
  state.SetLabel(indexed ? "label_indexed_seed" : "full_scan_seed");
}
// Named arms: the committed BM_SeedSelectivity/0 baseline timed a scan
// that answered a different query, so it must not be diffed against this.
BENCHMARK(BM_SeedSelectivity)->ArgName("label_seed")->Arg(1)->Arg(0);

// Ablation: greedy join ordering across comma patterns. The query lists an
// unselective disconnected pattern first; the optimizer starts from the
// selective one instead and turns the cross product into a pinned join.
void BM_JoinOrder(benchmark::State& state) {
  bool optimized = state.range(0) != 0;
  PropertyGraph g = Layered(8, 48);
  auto q = ParseCypherQuery(
      "MATCH (x)-[:E]->(y), (a:Src {i: 0})-[:E]->(x) "
      "RETURN count(*) AS c");
  ExecutionOptions options;
  options.optimize_match_order = optimized;
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = ExecuteQueryOnGraph(*q, g, options);
    if (!result.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    rows = Count(*result);
  }
  benchsupport::SameRowsAsReference(state, rows, Count(MustRun(*q, g)));
  state.SetLabel(optimized ? "greedy_join_order" : "textual_order");
}
BENCHMARK(BM_JoinOrder)->Arg(1)->Arg(0);

// Ablation: seed-label selection. A two-label seed (:N:Src) must start
// from the selective Src index (width nodes), not the textual-first N
// index (layers × width nodes). The result bag is identical either way —
// this measures pure seed-scan cost.
void BM_MultiLabelSeed(benchmark::State& state) {
  bool selective_first = state.range(0) != 0;
  PropertyGraph g = Layered(12, 64);  // 768 N nodes, 64 of them Src.
  // Same semantics, different textual label order; the matcher picks the
  // most selective index regardless, so both arms should cost alike (the
  // ablation documents the fix for the labels[0]-only seed selection).
  const std::string reference =
      "MATCH (a:Src:N)-[:E]->(b) RETURN count(*) AS c";
  auto q = ParseCypherQuery(selective_first
                                ? reference
                                : "MATCH (a:N:Src)-[:E]->(b) "
                                  "RETURN count(*) AS c");
  int64_t rows = 0;
  for (auto _ : state) {
    rows = Count(MustRun(*q, g));
  }
  benchsupport::SameRowsAsReference(state, rows, CountOf(reference, g));
  state.SetLabel(selective_first ? "selective_label_first"
                                 : "unselective_label_first");
}
BENCHMARK(BM_MultiLabelSeed)->Arg(1)->Arg(0);

// Morsel-partitioned parallel matching over a >=100k-seed scan. The
// serial result is computed once as an oracle and every parallel run is
// diffed against it row by row (bit-identical contract) before timing
// starts. Arg = thread count; 1 = the serial matcher itself.
void BM_ParallelSeedScan(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  // 3 layers × 100k: the Src layer alone provides 100k seed candidates.
  static const PropertyGraph* graph = [] {
    return new PropertyGraph(Layered(3, 100'000));
  }();
  static const Query* query = [] {
    auto parsed = ParseCypherQuery(
        "MATCH (a:Src)-[:E]->(b)-[:E]->(c) RETURN count(*) AS c");
    if (!parsed.ok()) std::abort();
    return new Query(std::move(parsed).value());
  }();
  static const Table* oracle = [] {
    return new Table(MustRun(*query, *graph));
  }();

  ThreadPool pool(threads);
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1024;
  par.morsel_size = 2048;
  ExecutionOptions options;
  options.match_parallelism = threads > 1 ? &par : nullptr;

  // Oracle diff: identical rows, identical order.
  {
    auto check = ExecuteQueryOnGraph(*query, *graph, options);
    if (!check.ok() || check->rows().size() != oracle->rows().size()) {
      state.SkipWithError("parallel result diverges from serial oracle");
      return;
    }
    for (size_t i = 0; i < oracle->rows().size(); ++i) {
      if (!(check->rows()[i] == oracle->rows()[i])) {
        state.SkipWithError("parallel row differs from serial oracle");
        return;
      }
    }
  }

  for (auto _ : state) {
    auto result = ExecuteQueryOnGraph(*query, *graph, options);
    if (!result.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(threads > 1 ? std::to_string(threads) + " match threads"
                             : "serial matcher");
}
BENCHMARK(BM_ParallelSeedScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
