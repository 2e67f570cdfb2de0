// The sharded serving tier (src/shard/): pluggable partitioners, query
// placement over the shard set the partitioners imply, deterministic
// (t, query, shard)-ordered merge, fleet health gauges, and coordinated
// in-memory capture/restore. The randomized sharded-vs-single oracle
// lives in tests/sharded_equivalence_test.cc; this file pins the unit
// behaviors the oracle builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
#include "seraph/continuous_engine.h"
#include "shard/partitioner.h"
#include "shard/sharded_engine.h"

namespace seraph {
namespace shard {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id) {
  return GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build();
}

PropertyGraph Labeled(const std::string& label, int64_t id) {
  return GraphBuilder().Node(id, {label}, {{"id", Value::Int(id)}}).Build();
}

// Records the merged fleet output exactly as delivered: one entry per
// emission, in arrival order, capturing the (t, query) key the merge
// contract sorts by.
class OrderSink final : public EmitSink {
 public:
  struct Entry {
    int64_t t_millis;
    std::string query;
    std::string json;
  };

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    entries_.push_back(
        Entry{evaluation_time.millis(), query_name, io::ToJson(table)});
    return Status::OK();
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(PartitionerTest, StableHashIsStableAcrossCallsAndOverloads) {
  // FNV-1a 64-bit offset basis: the hash of the empty string. Pinning
  // the constant pins the whole function — shard assignment must
  // survive restarts and match across builds.
  EXPECT_EQ(StableHash64(std::string()), 14695981039346656037ull);
  const std::string text = "seraph-query-name";
  EXPECT_EQ(StableHash64(text), StableHash64(text));
  EXPECT_EQ(StableHash64(text), StableHash64(text.data(), text.size()));
  EXPECT_NE(StableHash64(text), StableHash64(std::string("other")));
}

TEST(PartitionerTest, BroadcastCoversEveryShard) {
  auto partitioner = Broadcast();
  const PropertyGraph graph = Item(1);
  EXPECT_EQ(partitioner->ShardsFor(graph, T(1), 1), (std::vector<int>{0}));
  EXPECT_EQ(partitioner->ShardsFor(graph, T(1), 4),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(partitioner->placement(4).kind, PlacementKind::kBroadcast);
  EXPECT_STREQ(partitioner->name(), "broadcast");
}

TEST(PartitionerTest, FixedShardClampsOutOfRangeIndexes) {
  const PropertyGraph graph = Item(1);
  EXPECT_EQ(FixedShard(2)->ShardsFor(graph, T(1), 4), (std::vector<int>{2}));
  EXPECT_EQ(FixedShard(2)->placement(4).fixed_shard, 2);
  EXPECT_EQ(FixedShard(2)->placement(4).kind, PlacementKind::kFixed);
  // A mis-sized fleet still routes somewhere deterministic.
  EXPECT_EQ(FixedShard(7)->ShardsFor(graph, T(1), 4), (std::vector<int>{3}));
  EXPECT_EQ(FixedShard(7)->placement(4).fixed_shard, 3);
  EXPECT_EQ(FixedShard(-1)->ShardsFor(graph, T(1), 4), (std::vector<int>{0}));
}

TEST(PartitionerTest, HashByNodeIdIsDeterministicAndCoLocating) {
  auto partitioner = HashByNodeId();
  // Single shard: trivially fixed.
  EXPECT_EQ(partitioner->ShardsFor(Item(9), T(1), 1), (std::vector<int>{0}));
  EXPECT_EQ(partitioner->placement(1).kind, PlacementKind::kFixed);
  EXPECT_EQ(partitioner->placement(4).kind, PlacementKind::kScattered);
  // Deterministic, in range, and keyed by the smallest node id: a graph
  // containing nodes {5, 9} lands where the anchor node 5 lands.
  for (int64_t id = 1; id <= 64; ++id) {
    auto shards = partitioner->ShardsFor(Item(id), T(1), 4);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_GE(shards[0], 0);
    EXPECT_LT(shards[0], 4);
    EXPECT_EQ(shards, partitioner->ShardsFor(Item(id), T(99), 4));
  }
  const PropertyGraph pair = GraphBuilder()
                                 .Node(5, {"X"})
                                 .Node(9, {"X"})
                                 .Rel(1, 5, 9, "linked")
                                 .Build();
  EXPECT_EQ(partitioner->ShardsFor(pair, T(1), 4),
            partitioner->ShardsFor(Item(5), T(1), 4));
  // An element with no nodes hashes to shard 0.
  EXPECT_EQ(partitioner->ShardsFor(PropertyGraph(), T(1), 4),
            (std::vector<int>{0}));
}

// ---------------------------------------------------------------------------
// Query placement
// ---------------------------------------------------------------------------

std::string CountQuery(const std::string& name, const std::string& from) {
  return "REGISTER QUERY " + name +
         " STARTING AT '1970-01-01T00:05' { MATCH (n:X) WITHIN PT30M" +
         (from.empty() ? "" : " FROM " + from) +
         " EMIT n.id SNAPSHOT EVERY PT5M }";
}

TEST(ShardedEngineTest, BroadcastQueriesGetOneStableHomeShard) {
  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine fleet(options);
  for (const std::string name : {"qa", "qb", "qc", "qd", "qe"}) {
    auto placement = fleet.RegisterText(CountQuery(name, ""));
    ASSERT_TRUE(placement.ok()) << placement.status();
    ASSERT_EQ(placement->shards.size(), 1u) << name;
    // Home = stable hash of the name — independent of registration order
    // and process, so a restart re-derives the same placement.
    EXPECT_EQ(placement->shards[0],
              static_cast<int>(StableHash64(name) % 4u));
    auto back = fleet.PlacementFor(name);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->shards, placement->shards);
  }
  EXPECT_EQ(fleet.QueryNames().size(), 5u);
  EXPECT_EQ(fleet.RegisterText(CountQuery("qa", "")).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fleet.PlacementFor("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedEngineTest, PlacementFollowsPartitionersAndRejectsConflicts) {
  ShardedEngineOptions options;
  options.shards = 3;
  ShardedEngine fleet(options);
  fleet.AddRoute("left", HasLabel("L"), FixedShard(0));
  fleet.AddRoute("right", HasLabel("R"), FixedShard(2));
  fleet.AddRoute("scatter", AcceptAll(), HashByNodeId());

  auto left = fleet.RegisterText(
      "REGISTER QUERY q_left STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:L) WITHIN PT30M FROM left EMIT n.id EVERY PT5M }");
  ASSERT_TRUE(left.ok()) << left.status();
  EXPECT_EQ(left->shards, (std::vector<int>{0}));

  // A scattered stream forces every shard (union semantics).
  auto scattered = fleet.RegisterText(
      "REGISTER QUERY q_scatter STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT30M FROM scatter EMIT n.id EVERY PT5M }");
  ASSERT_TRUE(scattered.ok()) << scattered.status();
  EXPECT_EQ(scattered->shards, (std::vector<int>{0, 1, 2}));

  // Two streams pinned to different shards: no shard sees both.
  auto conflict = fleet.RegisterText(
      "REGISTER QUERY q_conflict STARTING AT '1970-01-01T00:05' {"
      " MATCH (a:L) WITHIN PT30M FROM left"
      " MATCH (b:R) WITHIN PT30M FROM right"
      " EMIT a.id EVERY PT5M }");
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);

  // Scattered + fixed: likewise impossible on one shard.
  auto mixed = fleet.RegisterText(
      "REGISTER QUERY q_mixed STARTING AT '1970-01-01T00:05' {"
      " MATCH (a:X) WITHIN PT30M FROM scatter"
      " MATCH (b:L) WITHIN PT30M FROM left"
      " EMIT a.id EVERY PT5M }");
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  // Failed registrations left nothing behind.
  EXPECT_EQ(fleet.PlacementFor("q_conflict").status().code(),
            StatusCode::kNotFound);

  // A stream nothing routes into is empty everywhere; the query still
  // gets a broadcast-style home instead of failing.
  auto ghost = fleet.RegisterText(
      "REGISTER QUERY q_ghost STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT30M FROM nowhere EMIT n.id EVERY PT5M }");
  ASSERT_TRUE(ghost.ok()) << ghost.status();
  EXPECT_EQ(ghost->shards.size(), 1u);
}

// ---------------------------------------------------------------------------
// Ingest routing, merge order, gauges
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, MergedOutputIsOrderedByTimeThenQuery) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  // Pinned sub-streams on different shards, plus the default broadcast
  // route, which keeps both shard clocks advancing on every element.
  fleet.AddRoute("left", HasLabel("L"), FixedShard(0));
  fleet.AddRoute("right", HasLabel("R"), FixedShard(1));
  ASSERT_TRUE(fleet
                  .RegisterText(
                      "REGISTER QUERY a_left STARTING AT '1970-01-01T00:05' "
                      "{ MATCH (n:L) WITHIN PT30M FROM left EMIT n.id "
                      "SNAPSHOT EVERY PT5M }")
                  .ok());
  ASSERT_TRUE(fleet
                  .RegisterText(
                      "REGISTER QUERY b_right STARTING AT '1970-01-01T00:05' "
                      "{ MATCH (n:R) WITHIN PT30M FROM right EMIT n.id "
                      "SNAPSHOT EVERY PT5M }")
                  .ok());
  OrderSink sink;
  fleet.AddSink(&sink);

  for (int i = 0; i < 12; ++i) {
    // Alternate partitions; timestamps strictly increasing.
    const PropertyGraph graph =
        (i % 2 == 0) ? Labeled("L", 100 + i) : Labeled("R", 200 + i);
    auto delivered = fleet.Ingest(graph, T(1 + i));
    ASSERT_TRUE(delivered.ok()) << delivered.status();
    // Default broadcast (2 shards) + the matching pinned lane.
    EXPECT_EQ(*delivered, 3);
    ASSERT_TRUE(fleet.PumpAll().ok());
  }
  ASSERT_TRUE(fleet.Finish().ok());

  ASSERT_FALSE(sink.entries().empty());
  EXPECT_EQ(fleet.released_total(),
            static_cast<int64_t>(sink.entries().size()));
  for (size_t i = 1; i < sink.entries().size(); ++i) {
    const OrderSink::Entry& prev = sink.entries()[i - 1];
    const OrderSink::Entry& curr = sink.entries()[i];
    // Non-decreasing time; ties broken by query name ("a_left" before
    // "b_right") — the deterministic merge contract.
    EXPECT_TRUE(prev.t_millis < curr.t_millis ||
                (prev.t_millis == curr.t_millis && prev.query <= curr.query))
        << "entry " << i << ": (" << prev.t_millis << "," << prev.query
        << ") then (" << curr.t_millis << "," << curr.query << ")";
  }
  // Both queries actually emitted.
  EXPECT_TRUE(std::any_of(sink.entries().begin(), sink.entries().end(),
                          [](const auto& e) { return e.query == "a_left"; }));
  EXPECT_TRUE(std::any_of(sink.entries().begin(), sink.entries().end(),
                          [](const auto& e) { return e.query == "b_right"; }));

  // The health surface: per-shard and fleet watermarks agree at the last
  // ingested instant, and the fleet watermark is the slowest shard's.
  EXPECT_EQ(fleet.FleetWatermarkMillis(), T(12).millis());
  const Gauge* fleet_gauge =
      fleet.metrics().FindGauge("seraph_fleet_watermark_millis", {});
  ASSERT_NE(fleet_gauge, nullptr);
  EXPECT_EQ(fleet_gauge->value(), T(12).millis());
  for (const std::string shard : {"0", "1"}) {
    const Gauge* gauge = fleet.metrics().FindGauge(
        "seraph_shard_watermark_millis", {{"shard", shard}});
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), T(12).millis());
  }
}

TEST(ShardedEngineTest, UnroutedElementsAreCountedAsDropped) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  // Replace the default catch-all: only L-labeled elements route.
  fleet.AddRoute("", HasLabel("L"), Broadcast());
  auto routed = fleet.Ingest(Labeled("L", 1), T(1));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, 2);  // Broadcast to both shards.
  auto dropped = fleet.Ingest(Labeled("M", 2), T(2));
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0);
  const Counter* counter =
      fleet.metrics().FindCounter("seraph_router_dropped_total", {});
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 1);
  const Counter* routed_counter = fleet.metrics().FindCounter(
      "seraph_router_routed_total", {{"stream", "<default>"}});
  ASSERT_NE(routed_counter, nullptr);
  EXPECT_EQ(routed_counter->value(), 2);  // One element, two shards.
}

// ---------------------------------------------------------------------------
// Cross-shard stats, disable/revive, capture/restore
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, ScatteredQueryStatsSumAndReviveSpansShards) {
  ShardedEngineOptions options;
  options.shards = 2;
  options.engine.query_error_budget = 2;
  ShardedEngine fleet(options);
  fleet.AddRoute("scatter", AcceptAll(), HashByNodeId());
  // Division by zero fails every evaluation with an element in window;
  // the budget disables the query on each shard independently.
  auto placement = fleet.RegisterText(
      "REGISTER QUERY flaky STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT30M FROM scatter EMIT n.id / 0 EVERY PT5M }");
  ASSERT_TRUE(placement.ok()) << placement.status();
  ASSERT_EQ(placement->shards, (std::vector<int>{0, 1}));

  // Enough elements that both shards hold at least one (ids 1..8 spread
  // by hash), then enough evaluations to exhaust both budgets.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.Ingest(Item(i + 1), T(1 + i)).ok());
    ASSERT_TRUE(fleet.PumpAll().ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Ingest(Item(100 + i), T(10 + 5 * i)).ok());
    ASSERT_TRUE(fleet.PumpAll().ok());
  }
  EXPECT_TRUE(fleet.QueryDisabled("flaky"));
  auto stats = fleet.StatsFor("flaky");
  ASSERT_TRUE(stats.ok());
  // Summed across both placement shards: strictly more failures than any
  // single shard's budget allows.
  EXPECT_GE(stats->eval_failures, 4);
  EXPECT_FALSE(stats->last_error.ok());

  ASSERT_TRUE(fleet.ReviveQuery("flaky").ok());
  EXPECT_FALSE(fleet.QueryDisabled("flaky"));
  EXPECT_FALSE(fleet.ReviveQuery("ghost").ok());

  const std::string json = fleet.QueriesStatusJson();
  EXPECT_NE(json.find("\"name\":\"flaky\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\":[0,1]"), std::string::npos) << json;
}

TEST(ShardedEngineTest, CaptureRestoreSplitRunConcatenatesExactly) {
  auto make_fleet = [](OrderSink* sink) {
    ShardedEngineOptions options;
    options.shards = 2;
    auto fleet = std::make_unique<ShardedEngine>(options);
    if (sink != nullptr) fleet->AddSink(sink);
    EXPECT_TRUE(fleet->RegisterText(CountQuery("q", "")).ok());
    return fleet;
  };

  // The uninterrupted run.
  OrderSink oracle;
  auto full = make_fleet(&oracle);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(full->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    ASSERT_TRUE(full->PumpAll().ok());
  }
  ASSERT_TRUE(full->Finish().ok());
  ASSERT_FALSE(oracle.entries().empty());

  // The split run: capture after the prefix, restore into a fresh fleet,
  // continue with the suffix.
  OrderSink prefix_sink;
  auto first = make_fleet(&prefix_sink);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(first->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    ASSERT_TRUE(first->PumpAll().ok());
  }
  std::vector<EngineCheckpoint> images = first->CaptureCheckpoints();
  ASSERT_EQ(images.size(), 2u);

  OrderSink suffix_sink;
  auto second = make_fleet(&suffix_sink);
  ASSERT_TRUE(second->RestoreFrom(images).ok());
  // Restoring twice (fleet no longer fresh) is rejected.
  EXPECT_FALSE(second->RestoreFrom(images).ok());
  for (int i = 6; i < 12; ++i) {
    ASSERT_TRUE(second->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    ASSERT_TRUE(second->PumpAll().ok());
  }
  ASSERT_TRUE(second->Finish().ok());

  // prefix + suffix == oracle, entry for entry.
  ASSERT_EQ(prefix_sink.entries().size() + suffix_sink.entries().size(),
            oracle.entries().size());
  for (size_t i = 0; i < oracle.entries().size(); ++i) {
    const OrderSink::Entry& got =
        i < prefix_sink.entries().size()
            ? prefix_sink.entries()[i]
            : suffix_sink.entries()[i - prefix_sink.entries().size()];
    EXPECT_EQ(got.t_millis, oracle.entries()[i].t_millis) << "entry " << i;
    EXPECT_EQ(got.query, oracle.entries()[i].query) << "entry " << i;
    EXPECT_EQ(got.json, oracle.entries()[i].json) << "entry " << i;
  }
}

// A durable lane trims only what a checkpoint covers, so a bounded one
// frees space only when the backpressure pump lets a batch barrier
// commit. Ingest never pumps here (as in seraph_run), so every refusal
// goes through ShardedEngine's own backpressure loop.
TEST(ShardedEngineTest, BoundedDurableLaneIngestsAndRestoresThroughCommits) {
  const std::string dir = ::testing::TempDir() + "seraph_bounded_lane";
  std::filesystem::remove_all(dir);
  auto make_fleet = [&](OrderSink* sink, bool durable, size_t capacity) {
    ShardedEngineOptions options;
    if (durable) options.checkpoint_dir = dir;
    options.checkpoint_fsync = false;
    options.checkpoint_every = 1;
    options.queue.capacity = capacity;
    options.queue.overflow_policy = OverflowPolicy::kReject;
    auto fleet = std::make_unique<ShardedEngine>(options);
    fleet->AddSink(sink);
    EXPECT_TRUE(fleet->RegisterText(CountQuery("q", "")).ok());
    return fleet;
  };
  auto ingest = [](ShardedEngine* fleet, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(fleet->Ingest(Item(i + 1), T(1 + 2 * i)).ok()) << i;
    }
  };
  auto expect_same = [](const OrderSink& got, const OrderSink& want) {
    ASSERT_EQ(got.entries().size(), want.entries().size());
    for (size_t i = 0; i < want.entries().size(); ++i) {
      EXPECT_EQ(got.entries()[i].t_millis, want.entries()[i].t_millis);
      EXPECT_EQ(got.entries()[i].json, want.entries()[i].json) << i;
    }
  };

  OrderSink oracle;
  auto reference = make_fleet(&oracle, /*durable=*/false, 0);
  ingest(reference.get(), 0, 12);
  ASSERT_TRUE(reference->Finish().ok());
  ASSERT_FALSE(oracle.entries().empty());

  // A lane smaller than one checkpoint interval cannot free a slot: the
  // third element arrives before the first evaluation (00:05) commits.
  {
    OrderSink sink;
    auto small = make_fleet(&sink, /*durable=*/true, 2);
    ASSERT_TRUE(small->Ingest(Item(1), T(1)).ok());
    ASSERT_TRUE(small->Ingest(Item(2), T(3)).ok());
    Result<int> refused = small->Ingest(Item(3), T(5));
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.status().message().find("before the next checkpoint"),
              std::string::npos)
        << refused.status().ToString();
  }
  std::filesystem::remove_all(dir);

  // Live: twelve elements through a four-slot lane (elements come every
  // 2 min, evaluations every 5 min).
  OrderSink live_sink;
  auto live = make_fleet(&live_sink, /*durable=*/true, 4);
  ingest(live.get(), 0, 12);
  ASSERT_TRUE(live->Finish().ok());
  // The full lane makes room (pump, commit, trim) before each produce,
  // so no element is refused.
  EXPECT_GT(live->Totals().trimmed, 0);
  EXPECT_EQ(live->Totals().rejected, 0);
  expect_same(live_sink, oracle);
  live.reset();

  // Replay: a first life logs six elements and stops before any
  // evaluation, so nothing is checkpointed; the bounded restore must
  // replay all six through the four-slot lane, then continue.
  std::filesystem::remove_all(dir);
  OrderSink unused;
  auto first = make_fleet(&unused, /*durable=*/true, 0);
  ingest(first.get(), 0, 6);
  first.reset();
  OrderSink restored_sink;
  auto restored = make_fleet(&restored_sink, /*durable=*/true, 4);
  ASSERT_TRUE(restored->Restore().ok());
  ASSERT_EQ(restored->ingested_elements(), 6u);
  ingest(restored.get(), 6, 12);
  ASSERT_TRUE(restored->Finish().ok());
  EXPECT_TRUE(unused.entries().empty());
  expect_same(restored_sink, oracle);

  // A bounded restore over the finished run replays the covered prefix
  // without filling the lane, and has nothing left to emit.
  restored.reset();
  OrderSink again_sink;
  auto again = make_fleet(&again_sink, /*durable=*/true, 4);
  ASSERT_TRUE(again->Restore().ok());
  ASSERT_TRUE(again->Finish().ok());
  EXPECT_TRUE(again_sink.entries().empty());
  std::filesystem::remove_all(dir);
}

// Nothing but the fleet drains a lane, so a full one under `block` makes
// room by pumping before it produces: no produce waits out
// block_timeout_millis (a timed-out wait is a refusal plus a retry), and
// every element is admitted.
TEST(ShardedEngineTest, FullBlockingLaneMakesRoomBeforeProducing) {
  ShardedEngineOptions options;
  options.queue.capacity = 1;
  options.queue.overflow_policy = OverflowPolicy::kBlock;
  ShardedEngine fleet(options);
  OrderSink sink;
  fleet.AddSink(&sink);
  ASSERT_TRUE(fleet.RegisterText(CountQuery("q", "")).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fleet.Ingest(Item(i + 1), T(1 + 2 * i)).ok()) << i;
  }
  ASSERT_TRUE(fleet.Finish().ok());
  const ShardedEngine::LaneTotals totals = fleet.Totals();
  EXPECT_EQ(totals.rejected, 0);
  EXPECT_EQ(totals.producer_retries, 0);
  EXPECT_EQ(totals.delivered, 5);
  EXPECT_FALSE(sink.entries().empty());
}

}  // namespace
}  // namespace shard
}  // namespace seraph
