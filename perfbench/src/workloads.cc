#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "measure.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "seraph/continuous_engine.h"
#include "shard/sharded_engine.h"
#include "workloads/bike_sharing.h"
#include "workloads/network.h"
#include "workloads/pole.h"

namespace perfbench {
namespace {

using seraph::ContinuousEngine;
using seraph::Duration;
using seraph::EngineOptions;
using seraph::PropertyGraph;
using seraph::QueryStats;
using seraph::Result;
using seraph::Status;
using seraph::Timestamp;
namespace fs = std::filesystem;

// ---- Workload sizes (README.md, "Calibration") ----

// rpq_paths: five-minute batches per pass (every stream).
constexpr int kRpqBatches = 450;
// crime_window: five-minute batches per pass.
constexpr int kCrimeBatches = 600;
// serve_durable: the fixed open-loop send rate, elements per second.
constexpr double kServeRate = 300.0;
// serve_durable: checkpoint every this many completed evaluation batches
// (one batch per second of event time = every 10 elements); README.md,
// "Calibration", explains the choice.
constexpr int64_t kServeCheckpointEvery = 50;
// Minimum recovery trials per run behind the recovery_s median (and, in
// closed loop, set-up-only trials behind the setup_s median).
constexpr int kMinTrials = 9;
// Set-ups and recoveries per serve_durable run behind the setup_s and
// recovery_s medians.
constexpr int kServeSetups = 5;
constexpr int kServeRecoveryTrials = 5;

// One element of a generated input.
struct Element {
  std::string stream;  // "" = the default stream.
  std::shared_ptr<const PropertyGraph> graph;
  Timestamp t;
};

// A generated input and the queries that evaluate it.
struct Input {
  std::vector<std::string> queries;  // REGISTER QUERY texts.
  std::vector<std::string> names;
  std::vector<Element> elements;  // Timestamp order.
  // Leading elements that fill the windows; they run in set-up, outside
  // the timed region. Always a whole timestamp group.
  size_t warmup = 0;
  std::vector<std::pair<std::string, std::string>> params;
};

std::vector<Element> ToElements(std::vector<seraph::workloads::Event> events,
                                const std::string& stream) {
  std::vector<Element> out;
  out.reserve(events.size());
  for (auto& event : events) {
    out.push_back(Element{
        stream,
        std::make_shared<const PropertyGraph>(std::move(event.graph)),
        event.timestamp});
  }
  return out;
}

size_t CountUpTo(const std::vector<Element>& elements, Timestamp end) {
  size_t n = 0;
  while (n < elements.size() && elements[n].t <= end) ++n;
  return n;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The Listing-5 student_trick query over one rental stream.
std::string StudentTrickQuery(const std::string& name,
                              const std::string& stream) {
  return "REGISTER QUERY " + name + " STARTING AT '1970-01-01T00:05'\n" +
         R"({
  MATCH (b:Bike)-[r:rentedAt]->(s:Station),
        q = (b)-[:returnedAt|rentedAt*3..4]-(o:Station)
  WITHIN PT1H FROM )" + stream + R"(
  WITH r, s, q, relationships(q) AS rels
  WHERE ALL(e IN rels WHERE
        e.user_id = r.user_id AND e.val_time > r.val_time AND
        (e.duration IS NULL OR e.duration < 20))
  EMIT r.user_id, s.id, r.val_time
  ON ENTERING EVERY PT5M
})";
}

Input RpqPathsInput(const RunConfig& config) {
  const int batches = config.tiny ? 24 : kRpqBatches;
  // One city, two populations on their own streams: 1 in 12 users (8.3%)
  // plays the trick. A fixed count, where a per-user coin would make the
  // number of fraudsters, and with it the matcher's work, vary by seed.
  seraph::workloads::BikeSharingConfig honest;
  honest.num_events = batches;
  honest.num_users = config.tiny ? 55 : 440;
  honest.num_stations = config.tiny ? 40 : 320;
  honest.num_bikes = config.tiny ? 100 : 800;
  honest.fraud_fraction = 0.0;
  honest.seed = SubSeed(config.seed, 1);
  seraph::workloads::BikeSharingConfig fraud = honest;
  fraud.num_users = config.tiny ? 5 : 40;
  fraud.fraud_fraction = 1.0;
  fraud.seed = SubSeed(config.seed, 5);
  seraph::workloads::NetworkConfig network;
  network.num_ticks = batches;
  network.tick_period = Duration::FromMinutes(5);
  network.failure_probability = 0.15;
  network.seed = SubSeed(config.seed, 2);

  // Interleave in event time; equal timestamps keep this order.
  auto by_time = [](const Element& a, const Element& b) { return a.t < b.t; };
  std::vector<Element> rentals;
  std::vector<Element> honest_rentals =
      ToElements(GenerateBikeSharingStream(honest), "rentals_honest");
  std::vector<Element> fraud_rentals =
      ToElements(GenerateBikeSharingStream(fraud), "rentals_fraud");
  std::merge(honest_rentals.begin(), honest_rentals.end(),
             fraud_rentals.begin(), fraud_rentals.end(),
             std::back_inserter(rentals), by_time);
  std::vector<Element> topology =
      ToElements(GenerateNetworkStream(network), "network");
  Input input;
  std::merge(rentals.begin(), rentals.end(), topology.begin(),
             topology.end(), std::back_inserter(input.elements), by_time);
  input.queries = {
      StudentTrickQuery("student_trick_honest", "rentals_honest"),
      StudentTrickQuery("student_trick_fraud", "rentals_fraud"),
      R"(REGISTER QUERY network_monitor STARTING AT '1970-01-01T00:05'
{
  MATCH p = shortestPath(
      (r:Rack)-[:CONNECTS*..15]-(e:Router {role: 'egress', tick: r.tick}))
  WITHIN PT50M FROM network
  WITH r, p, length(p) AS len
  WHERE (len - 5.0) / 0.3 > 3.0
  EMIT r.rack_id, r.tick, len
  SNAPSHOT EVERY PT5M
})"};
  input.names = {"student_trick_honest", "student_trick_fraud",
                 "network_monitor"};
  input.warmup = CountUpTo(input.elements, Timestamp::FromMillis(3'600'000));
  input.params = {{"batches", std::to_string(batches)},
                  {"batch_period", "PT5M"},
                  {"honest_users", std::to_string(honest.num_users)},
                  {"fraud_users", std::to_string(fraud.num_users)},
                  {"stations", std::to_string(honest.num_stations)},
                  {"bikes", std::to_string(honest.num_bikes)},
                  {"network_failure_probability", "0.15"},
                  {"warmup", "PT1H"}};
  return input;
}

Input CrimeWindowInput(const RunConfig& config) {
  seraph::workloads::PoleConfig pole;
  pole.num_events = config.tiny ? 40 : kCrimeBatches;
  pole.num_persons = config.tiny ? 100 : 2000;
  pole.num_locations = config.tiny ? 10 : 200;
  pole.sightings_per_event = config.tiny ? 10 : 100;
  pole.crime_probability = 0.3;
  pole.event_period = Duration::FromMinutes(5);
  pole.seed = SubSeed(config.seed, 3);

  Input input;
  input.elements = ToElements(GeneratePoleStream(pole), "");
  input.queries = {R"(REGISTER QUERY crime_watch STARTING AT '1970-01-01T00:05'
{
  MATCH (p:Person)-[s:PRESENT_AT]->(l:Location)<-[o:OCCURRED_AT]-(c:Crime)
  WITHIN PT2H
  EMIT p.person_id, c.crime_id, l.location_id, s.time
  ON ENTERING EVERY PT5M
})"};
  input.names = {"crime_watch"};
  input.warmup = CountUpTo(input.elements, Timestamp::FromMillis(7'200'000));
  input.params = {{"batches", std::to_string(pole.num_events)},
                  {"batch_period", "PT5M"},
                  {"persons", std::to_string(pole.num_persons)},
                  {"locations", std::to_string(pole.num_locations)},
                  {"sightings_per_batch",
                   std::to_string(pole.sightings_per_event)},
                  {"crime_probability", "0.3"},
                  {"warmup", "PT2H"}};
  return input;
}

// Elements serve_durable sends open loop after the window fill.
int64_t ServeElements(const RunConfig& config) {
  if (config.tiny) return 400;
  return static_cast<int64_t>(kServeRate * std::max(config.seconds, 1));
}

Input ServeDurableInput(const RunConfig& config) {
  // The windows fill in the first 30 s of event time (300 elements).
  constexpr int kWarmupElements = 300;
  seraph::workloads::PoleConfig pole;
  pole.num_events = static_cast<int>(
      kWarmupElements + ServeElements(config));
  pole.num_persons = 500;
  pole.num_locations = 50;
  pole.sightings_per_event = 5;
  pole.crime_probability = 0.1;
  pole.event_period = Duration::FromMillis(100);
  pole.seed = SubSeed(config.seed, 4);

  Input input;
  input.elements = ToElements(GeneratePoleStream(pole), "");
  const std::string start = " STARTING AT '1970-01-01T00:00:01'\n";
  auto add = [&](const std::string& name, const std::string& body) {
    input.names.push_back(name);
    input.queries.push_back("REGISTER QUERY " + name + start + "{\n" + body +
                            "\n}");
  };
  const std::string crime_join =
      "  MATCH (p:Person)-[s:PRESENT_AT]->(l:Location)"
      "<-[o:OCCURRED_AT]-(c:Crime)\n";
  add("crime_enter", crime_join +
                         "  WITHIN PT10S\n"
                         "  EMIT p.person_id, c.crime_id, l.location_id\n"
                         "  ON ENTERING EVERY PT1S");
  add("crime_exit", crime_join +
                        "  WITHIN PT5S\n"
                        "  EMIT p.person_id, c.crime_id, l.location_id\n"
                        "  ON EXITING EVERY PT1S");
  add("visits_enter",
      "  MATCH (p:Person)-[s:PRESENT_AT]->(l:Location)\n"
      "  WITHIN PT5S\n"
      "  EMIT p.person_id, l.location_id, s.time\n"
      "  ON ENTERING EVERY PT1S");
  add("visits_exit",
      "  MATCH (p:Person)-[s:PRESENT_AT]->(l:Location)\n"
      "  WITHIN PT5S\n"
      "  EMIT p.person_id, l.location_id, s.time\n"
      "  ON EXITING EVERY PT1S");
  add("location_load",
      "  MATCH (p:Person)-[s:PRESENT_AT]->(l:Location)\n"
      "  WITHIN PT5S\n"
      "  EMIT l.location_id AS location, count(*) AS visits\n"
      "  SNAPSHOT EVERY PT1S");
  add("crime_counts",
      "  MATCH (c:Crime)-[o:OCCURRED_AT]->(l:Location)\n"
      "  WITHIN PT30S\n"
      "  EMIT l.location_id AS location, count(*) AS crimes\n"
      "  SNAPSHOT EVERY PT1S");
  add("copresence",
      "  MATCH (a:Person)-[:PRESENT_AT]->(l:Location)"
      "<-[:PRESENT_AT]-(b:Person)\n"
      "  WITHIN PT3S\n"
      "  WHERE a.person_id < b.person_id\n"
      "  EMIT a.person_id, b.person_id, l.location_id\n"
      "  ON ENTERING EVERY PT1S");
  add("suspect_trail",
      "  MATCH (c:Crime)-[:OCCURRED_AT]->(l:Location)"
      "<-[:PRESENT_AT]-(p:Person)-[:PRESENT_AT]->(m:Location)\n"
      "  WITHIN PT10S\n"
      "  WHERE m.location_id <> l.location_id\n"
      "  EMIT c.crime_id, p.person_id, m.location_id\n"
      "  ON ENTERING EVERY PT1S");
  input.warmup = kWarmupElements;
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.0f", kServeRate);
  input.params = {{"rate_per_s", rate},
                  {"elements", std::to_string(pole.num_events)},
                  {"event_time_per_element", "PT0.1S"},
                  {"persons", "500"},
                  {"locations", "50"},
                  {"sightings_per_element", "5"},
                  {"crime_probability", "0.1"},
                  {"queries", std::to_string(input.names.size())},
                  {"shards", "1"},
                  {"eval_threads", "2"},
                  {"checkpoint_every", std::to_string(kServeCheckpointEvery)},
                  {"checkpoint_fsync", "true"},
                  {"warmup", "PT30S"}};
  return input;
}

Input MakeInput(const RunConfig& config) {
  if (config.workload == "rpq_paths") return RpqPathsInput(config);
  if (config.workload == "crime_window") return CrimeWindowInput(config);
  return ServeDurableInput(config);
}

// ---- Counters read from the engine's public stats and registry ----

constexpr int64_t QueryStats::*kStatFields[] = {
    &QueryStats::evaluations,           &QueryStats::reused_results,
    &QueryStats::rows_emitted,          &QueryStats::result_rows,
    &QueryStats::snapshots_incremental, &QueryStats::snapshots_rebuilt,
    &QueryStats::window_elements_added, &QueryStats::window_elements_evicted,
    &QueryStats::fresh_executions,      &QueryStats::window_micros,
    &QueryStats::snapshot_micros,       &QueryStats::match_micros,
    &QueryStats::policy_micros,         &QueryStats::sink_micros,
    &QueryStats::eval_failures};

// Cumulative engine counters; the timed region is the difference of two
// readings (Minus), never an average that includes set-up work.
struct Counters {
  QueryStats stats;  // Summed over the workload's queries.
  std::map<std::string, int64_t> match_us;  // Per query.
  int64_t delta_hits = 0;
  int64_t delta_fallbacks = 0;
  int64_t delta_rebuilds = 0;
  int64_t delta_entries = 0;  // Gauge: index size at the reading.
  int64_t batches = 0;
  int64_t batch_evals = 0;
  int64_t parallel_evals = 0;
  int64_t sink_failures = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_failures = 0;
  int64_t checkpoint_us = 0;
  int64_t checkpoint_bytes_max = 0;  // Gauge-like: lifetime maximum.
  int64_t driver_delivered = 0;
  int64_t driver_dead_lettered = 0;
  int64_t shed = 0;
};

int64_t CounterValue(const seraph::MetricsRegistry& registry,
                     const std::string& name,
                     const seraph::MetricLabels& labels = {}) {
  const seraph::Counter* c = registry.FindCounter(name, labels);
  return c == nullptr ? 0 : c->value();
}

void AddEngineCounters(const ContinuousEngine& engine,
                       const std::vector<std::string>& names,
                       const std::string& consumer, Counters* c) {
  for (const std::string& name : names) {
    Result<QueryStats> stats = engine.StatsFor(name);
    if (!stats.ok()) continue;  // Not placed on this shard.
    for (auto field : kStatFields) c->stats.*field += stats.value().*field;
    c->match_us[name] += stats.value().match_micros;
  }
  const seraph::MetricsRegistry& r = engine.metrics();
  for (const std::string& name : names) {
    const seraph::MetricLabels q{{"query", name}};
    c->delta_hits += CounterValue(r, "seraph_delta_hits_total", q);
    c->delta_fallbacks += CounterValue(r, "seraph_delta_fallbacks_total", q);
    c->delta_rebuilds += CounterValue(r, "seraph_delta_rebuilds_total", q);
    if (const seraph::Gauge* g = r.FindGauge("seraph_delta_index_entries", q)) {
      c->delta_entries += g->value();
    }
  }
  if (const seraph::Histogram* h =
          r.FindHistogram("seraph_engine_eval_batch_size")) {
    c->batches += h->count();
    c->batch_evals += h->sum();
  }
  c->parallel_evals += CounterValue(r, "seraph_engine_parallel_evals_total");
  c->sink_failures += CounterValue(r, "seraph_sink_failures_total",
                                   {{"sink", "bench"}});
  c->checkpoints += CounterValue(r, "seraph_checkpoint_total");
  c->checkpoint_failures += CounterValue(r, "seraph_checkpoint_failures_total");
  if (const seraph::Histogram* h =
          r.FindHistogram("seraph_checkpoint_duration_micros")) {
    c->checkpoint_us += h->sum();
  }
  if (const seraph::Histogram* h = r.FindHistogram("seraph_checkpoint_bytes")) {
    c->checkpoint_bytes_max =
        std::max(c->checkpoint_bytes_max, h->Snapshot().max);
  }
  if (!consumer.empty()) {
    const seraph::MetricLabels lane{{"consumer", consumer}};
    c->driver_delivered += CounterValue(r, "seraph_driver_delivered_total", lane);
    c->driver_dead_lettered +=
        CounterValue(r, "seraph_driver_dead_lettered_total", lane);
    c->shed += CounterValue(r, "seraph_shed_total",
                            {{"component", "driver"}, {"consumer", consumer}});
  }
}

Counters ReadEngine(const ContinuousEngine& engine,
                    const std::vector<std::string>& names) {
  Counters c;
  AddEngineCounters(engine, names, "", &c);
  return c;
}

// The fleet's lane consumer of the default stream on shard 0.
constexpr char kServeConsumer[] = "shard-0/<default>";

Counters ReadFleet(const seraph::shard::ShardedEngine& fleet,
                   const std::vector<std::string>& names) {
  Counters c;
  for (int s = 0; s < fleet.num_shards(); ++s) {
    AddEngineCounters(*fleet.shard_engine(s), names, kServeConsumer, &c);
  }
  c.sink_failures +=
      CounterValue(fleet.metrics(), "seraph_sharded_sink_failures_total");
  c.shed += CounterValue(fleet.metrics(), "seraph_router_dropped_total");
  return c;
}

Counters Minus(const Counters& after, const Counters& before) {
  Counters d = after;
  for (auto field : kStatFields) d.stats.*field -= before.stats.*field;
  for (auto& [name, us] : d.match_us) {
    auto it = before.match_us.find(name);
    if (it != before.match_us.end()) us -= it->second;
  }
  d.delta_hits -= before.delta_hits;
  d.delta_fallbacks -= before.delta_fallbacks;
  d.delta_rebuilds -= before.delta_rebuilds;
  d.batches -= before.batches;
  d.batch_evals -= before.batch_evals;
  d.parallel_evals -= before.parallel_evals;
  d.sink_failures -= before.sink_failures;
  d.checkpoints -= before.checkpoints;
  d.checkpoint_failures -= before.checkpoint_failures;
  d.checkpoint_us -= before.checkpoint_us;
  d.driver_delivered -= before.driver_delivered;
  d.driver_dead_lettered -= before.driver_dead_lettered;
  d.shed -= before.shed;
  return d;
}

void Accumulate(const Counters& x, Counters* into) {
  for (auto field : kStatFields) into->stats.*field += x.stats.*field;
  for (const auto& [name, us] : x.match_us) into->match_us[name] += us;
  into->delta_hits += x.delta_hits;
  into->delta_fallbacks += x.delta_fallbacks;
  into->delta_rebuilds += x.delta_rebuilds;
  into->delta_entries = std::max(into->delta_entries, x.delta_entries);
  into->batches += x.batches;
  into->batch_evals += x.batch_evals;
  into->parallel_evals += x.parallel_evals;
  into->sink_failures += x.sink_failures;
  into->checkpoints += x.checkpoints;
  into->checkpoint_failures += x.checkpoint_failures;
  into->checkpoint_us += x.checkpoint_us;
  into->checkpoint_bytes_max =
      std::max(into->checkpoint_bytes_max, x.checkpoint_bytes_max);
  into->driver_delivered += x.driver_delivered;
  into->driver_dead_lettered += x.driver_dead_lettered;
  into->shed += x.shed;
}

// Failures a run may count: failed evaluations, sink failures, and
// elements dead-lettered, shed or dropped on the way in.
int64_t Failures(const Counters& c) {
  return c.stats.eval_failures + c.sink_failures + c.driver_dead_lettered +
         c.shed;
}

// ---- The benchmark's sink ----

// Digests every emission and, inside the timed region, records each
// evaluation's emit delay: the wall time from the moment its instant t
// became due (the due time of the first element with timestamp >= t) to
// this OnResult.
class BenchSink final : public seraph::EmitSink {
 public:
  explicit BenchSink(SpanLog* spans) : spans_(spans) {}

  Status OnResult(const std::string& query, Timestamp t,
                  const seraph::TimeAnnotatedTable& table) override {
    ScopedSpan span(timed ? spans_ : nullptr, "bench_sink", "bench_sink");
    const int64_t now = NowMicros();
    const uint64_t h = EmissionHash(query, t, table);
    digest.Add(h);
    if (keep_hashes) hashes.push_back(h);
    if (!timed) return Status::OK();
    ++emits;
    rows += static_cast<int64_t>(table.table.size());
    auto it = std::lower_bound(
        due.begin(), due.end(), t.millis(),
        [](const std::pair<int64_t, int64_t>& d, int64_t v) {
          return d.first < v;
        });
    if (it == due.end()) {
      ++undue;
    } else {
      delays.push_back(now - it->second);
    }
    return Status::OK();
  }

  // (element timestamp millis, due micros), ascending timestamps.
  std::vector<std::pair<int64_t, int64_t>> due;
  bool timed = false;
  bool keep_hashes = false;
  Digest digest;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> delays;
  int64_t emits = 0;
  int64_t rows = 0;
  int64_t undue = 0;

 private:
  SpanLog* spans_;
};

EngineOptions ReferenceOptions() {
  EngineOptions options;
  options.delta_matching = false;
  options.reuse_unchanged_windows = false;
  options.incremental_snapshots = false;
  options.eval_threads = 1;
  options.match_threads = 1;
  return options;
}

Status RegisterAll(const Input& input, ContinuousEngine* engine) {
  for (const std::string& text : input.queries) {
    if (Status s = engine->RegisterText(text); !s.ok()) return s;
  }
  return Status::OK();
}

// Deep copies of the first `count` input graphs.
std::vector<std::shared_ptr<const PropertyGraph>> CopyGraphs(
    const Input& input, size_t count) {
  std::vector<std::shared_ptr<const PropertyGraph>> graphs;
  graphs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    graphs.push_back(
        std::make_shared<const PropertyGraph>(*input.elements[i].graph));
  }
  return graphs;
}

// ---- Closed loop ----

struct ClosedPass {
  Digest digest;
  int64_t setup_us = 0;
  int64_t register_us = 0;
  int64_t timed_us = 0;
  int64_t timed_elements = 0;
  int64_t ingest_us = 0;
  int64_t advance_us = 0;
  std::vector<int64_t> delays;
  int64_t undue = 0;
  Counters timed;
  int64_t emits = 0;
  int64_t rows = 0;
  // The engine is declared last so it dies before the recorder and sink
  // it points to.
  std::unique_ptr<seraph::TraceRecorder> recorder;
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<ContinuousEngine> engine;
};

// One pass: set-up (engine, registration, window fill), then, unless
// `setup_only`, the timed region, which ingests every element of a
// timestamp before advancing the engine clock to it.
Result<ClosedPass> RunClosedPass(const Input& input, SpanLog* spans,
                                 bool setup_only) {
  // Per-pass copies: the engine owns its stream as a client's would;
  // copying is input preparation and not measured.
  std::vector<std::shared_ptr<const PropertyGraph>> graphs = CopyGraphs(
      input, setup_only ? input.warmup : input.elements.size());
  ClosedPass pass;
  pass.recorder = std::make_unique<seraph::TraceRecorder>();
  EngineOptions options;
  if (spans != nullptr) {
    pass.recorder->Enable();
    options.tracer = pass.recorder.get();
  }
  pass.sink = std::make_unique<BenchSink>(spans);
  BenchSink& sink = *pass.sink;
  const size_t n = input.elements.size();
  size_t i = 0;
  SpanLog* timed_spans = nullptr;
  auto run_group = [&](bool timed) -> Status {
    const Timestamp t = input.elements[i].t;
    sink.due.emplace_back(t.millis(), NowMicros());
    while (i < n && input.elements[i].t == t) {
      const int64_t start = NowMicros();
      Status s;
      {
        ScopedSpan span(timed_spans, "ingest", "ingest");
        s = pass.engine->IngestTo(input.elements[i].stream,
                                  std::move(graphs[i]), t);
      }
      if (timed) pass.ingest_us += NowMicros() - start;
      if (!s.ok()) return s;
      ++i;
    }
    const int64_t start = NowMicros();
    Status s;
    {
      ScopedSpan span(timed_spans, "advance", "engine");
      s = pass.engine->AdvanceTo(t);
    }
    if (timed) pass.advance_us += NowMicros() - start;
    return s;
  };

  const int64_t setup_start = NowMicros();
  pass.engine = std::make_unique<ContinuousEngine>(options);
  pass.engine->AddSink(&sink, "bench");
  const int64_t register_start = NowMicros();
  if (Status s = RegisterAll(input, pass.engine.get()); !s.ok()) return s;
  pass.register_us = NowMicros() - register_start;
  while (i < input.warmup) {
    if (Status s = run_group(false); !s.ok()) return s;
  }
  pass.setup_us = NowMicros() - setup_start;
  if (setup_only) return pass;

  const Counters before = ReadEngine(*pass.engine, input.names);
  sink.timed = true;
  timed_spans = spans;
  const int64_t timed_start = NowMicros();
  while (i < n) {
    if (Status s = run_group(true); !s.ok()) return s;
  }
  pass.timed_us = NowMicros() - timed_start;
  pass.timed = Minus(ReadEngine(*pass.engine, input.names), before);
  pass.timed_elements = static_cast<int64_t>(n - input.warmup);
  pass.digest = sink.digest;
  pass.delays = std::move(sink.delays);
  pass.undue = sink.undue;
  pass.emits = sink.emits;
  pass.rows = sink.rows;
  if (spans != nullptr) {
    spans->ImportEngineTrace(*pass.recorder, timed_start);
    pass.recorder->Clear();
  }
  return pass;
}

struct Recovery {
  std::vector<int64_t> recovery_us;
  std::vector<int64_t> restore_us;
  int64_t replayed = 0;
};

int64_t Median(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

// Recovery of a closed-loop engine, in two steps. First its end-of-pass
// state is checkpointed to disk (not measured); every pass ends in the
// same state, so one checkpoint serves the whole run.
Result<seraph::EngineCheckpoint> CheckpointForRecovery(
    const ContinuousEngine& live, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  seraph::persist::CheckpointOptions options;
  options.dir = dir;
  options.keep = 1;
  seraph::persist::CheckpointManager manager(options);
  if (Status s = manager.Checkpoint(const_cast<ContinuousEngine*>(&live));
      !s.ok()) {
    return s;
  }
  // RecoverOnce compares the clock and the query states only. The
  // captured streams share every element graph with the live engine and
  // would keep the first pass's stream resident for the whole run.
  seraph::EngineCheckpoint want = live.CaptureCheckpoint();
  want.streams.clear();
  return want;
}

// Then each trial times a fresh engine's registration, restore and
// catch-up, and checks it resumed at the live engine's state.
Status RecoverOnce(const Input& input, const std::string& dir,
                   const seraph::EngineCheckpoint& want, SpanLog* spans,
                   Recovery* recovery) {
  const int64_t start = NowMicros();
  ContinuousEngine engine;
  if (Status s = RegisterAll(input, &engine); !s.ok()) return s;
  Result<seraph::persist::CheckpointImage> image =
      seraph::persist::LoadLatestCheckpoint(dir);
  if (!image.ok()) return image.status();
  const int64_t restore_start = NowMicros();
  {
    ScopedSpan span(spans, "restore", "persist");
    if (Status s = seraph::persist::RestoreEngine(image.value(), &engine);
        !s.ok()) {
      return s;
    }
  }
  recovery->restore_us.push_back(NowMicros() - restore_start);
  if (Status s = engine.Drain(); !s.ok()) return s;
  recovery->recovery_us.push_back(NowMicros() - start);
  const seraph::EngineCheckpoint got = engine.CaptureCheckpoint();
  bool same = got.clock == want.clock &&
              got.queries.size() == want.queries.size();
  for (size_t q = 0; same && q < got.queries.size(); ++q) {
    same = got.queries[q].next_eval == want.queries[q].next_eval &&
           got.queries[q].stats.evaluations ==
               want.queries[q].stats.evaluations &&
           got.queries[q].previous_result == want.queries[q].previous_result;
  }
  if (!same) {
    return Status::Internal("restored engine does not match the live one");
  }
  return Status::OK();
}

// ---- Report assembly ----

void AddMetric(Report* report, std::string name, double value,
               std::string unit) {
  report->metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t StageMicros(const QueryStats& s) {
  return s.window_micros + s.snapshot_micros + s.match_micros +
         s.policy_micros + s.sink_micros;
}

// Values behind the per-layer metrics of one traced measurement.
struct LayerNumbers {
  int64_t passes = 0;  // Per-layer values are per pass.
  Counters c;
  int64_t ingest_us = 0;
  int64_t advance_us = 0;
  int64_t register_us = 0;
  int64_t sink_emits = 0;
  int64_t sink_rows = 0;
  int64_t shard_ingest_us = 0;
  int64_t shard_pump_us = 0;
  int64_t shard_released = 0;
  int64_t queue_depth_max = 0;
  int64_t handoff_depth_max = 0;
  int64_t late_max_us = 0;
  int64_t restore_us = 0;
  int64_t replayed = 0;
  double overhead_share = 0;
  std::map<std::string, int64_t> self_us;
};

const char* const kTraceLayers[] = {"ingest", "engine", "window",
                                    "snapshot", "match", "delta",
                                    "policy", "sink", "bench_sink",
                                    "shard", "persist"};

void AddLayerMetrics(const LayerNumbers& x, Report* report) {
  const double k = static_cast<double>(std::max<int64_t>(x.passes, 1));
  const QueryStats& s = x.c.stats;
  const int64_t busy_us = x.advance_us + x.shard_pump_us;
  AddMetric(report, "engine.ingest_us", x.ingest_us / k, "us");
  AddMetric(report, "engine.advance_us", x.advance_us / k, "us");
  AddMetric(report, "engine.evaluations", s.evaluations / k, "count");
  AddMetric(report, "engine.reuse_ratio",
            Ratio(s.reused_results, s.evaluations), "ratio");
  AddMetric(report, "engine.stage_share",
            Ratio(StageMicros(s), busy_us), "ratio");
  AddMetric(report, "match.us", s.match_micros / k, "us");
  AddMetric(report, "match.rows", s.result_rows / k, "count");
  AddMetric(report, "match.fresh", s.fresh_executions / k, "count");
  AddMetric(report, "cypher.register_us", x.register_us / k, "us");
  AddMetric(report, "window.us", s.window_micros / k, "us");
  AddMetric(report, "snapshot.us", s.snapshot_micros / k, "us");
  AddMetric(report, "snapshot.incremental", s.snapshots_incremental / k,
            "count");
  AddMetric(report, "snapshot.rebuilt", s.snapshots_rebuilt / k, "count");
  AddMetric(report, "window.elements_added", s.window_elements_added / k,
            "count");
  AddMetric(report, "window.elements_evicted", s.window_elements_evicted / k,
            "count");
  AddMetric(report, "delta.hits", x.c.delta_hits / k, "count");
  AddMetric(report, "delta.fallbacks", x.c.delta_fallbacks / k, "count");
  AddMetric(report, "delta.rebuilds", x.c.delta_rebuilds / k, "count");
  AddMetric(report, "delta.hit_ratio",
            Ratio(x.c.delta_hits, x.c.delta_hits + x.c.delta_fallbacks),
            "ratio");
  AddMetric(report, "delta.index_entries", x.c.delta_entries, "count");
  AddMetric(report, "policy.us", s.policy_micros / k, "us");
  AddMetric(report, "sink.us", s.sink_micros / k, "us");
  AddMetric(report, "sink.emits", x.sink_emits / k, "count");
  AddMetric(report, "sink.rows", x.sink_rows / k, "count");
  AddMetric(report, "shard.ingest_us", x.shard_ingest_us / k, "us");
  AddMetric(report, "shard.pump_us", x.shard_pump_us / k, "us");
  AddMetric(report, "shard.released", x.shard_released / k, "count");
  AddMetric(report, "queue.depth_max", x.queue_depth_max, "count");
  AddMetric(report, "driver.delivered", x.c.driver_delivered / k, "count");
  AddMetric(report, "loadgen.handoff_depth_max", x.handoff_depth_max,
            "count");
  AddMetric(report, "scheduler.batch_size_mean",
            Ratio(x.c.batch_evals, x.c.batches), "count");
  AddMetric(report, "scheduler.parallel_evals", x.c.parallel_evals / k,
            "count");
  AddMetric(report, "persist.checkpoints", x.c.checkpoints / k, "count");
  AddMetric(report, "persist.checkpoint_us", x.c.checkpoint_us / k, "us");
  AddMetric(report, "persist.checkpoint_bytes_max", x.c.checkpoint_bytes_max,
            "bytes");
  AddMetric(report, "persist.restore_us", x.restore_us, "us");
  AddMetric(report, "persist.replayed", x.replayed, "count");
  AddMetric(report, "loadgen.late_max_ms", x.late_max_us / 1000.0, "ms");
  for (const char* layer : kTraceLayers) {
    auto it = x.self_us.find(layer);
    AddMetric(report, std::string("trace.") + layer + ".self_us",
              it == x.self_us.end() ? 0.0 : it->second / k, "us");
  }
  AddMetric(report, "trace.overhead_share", x.overhead_share, "ratio");
}

void AddDelayMetrics(std::vector<int64_t> delays, Report* report) {
  std::sort(delays.begin(), delays.end());
  const int64_t n = static_cast<int64_t>(delays.size());
  AddMetric(report, "emit_delay_p50_us",
            static_cast<double>(Percentile(delays, 50)), "us");
  AddMetric(report, "emit_delay_p99_us",
            static_cast<double>(Percentile(delays, 99)), "us");
  report->notes.push_back("emit delay samples: " + std::to_string(n) +
                          " (beyond p99: " +
                          std::to_string(TailSamples(n, 99)) + ")");
}

void WriteTrace(const RunConfig& config, SpanLog* spans) {
  spans->ResolveParents();
  if (config.trace_out.empty()) return;
  std::ofstream out(config.trace_out);
  out << spans->ToChromeJson();
}

std::string RunId(const RunConfig& config) {
  return config.workload + "-" + std::to_string(config.seed) + "-" +
         std::to_string(NowMicros());
}

Result<Report> RunClosedLoop(const RunConfig& config, const Input& input,
                             const std::string& expected_digest) {
  Report report;
  report.params = input.params;
  ResetPeakRss();
  const double rss_base = RssMb();
  SpanLog spans(config.trace, RunId(config));
  const int64_t budget_us = static_cast<int64_t>(config.seconds) * 1'000'000;

  std::vector<int64_t> setup_us;
  std::vector<int64_t> delays;
  int64_t timed_us = 0;
  int64_t timed_elements = 0;
  int64_t undue = 0;
  bool digests_match = true;
  Counters totals;
  LayerNumbers layers;
  int64_t traced_us = 0;
  int64_t untraced_us = 0;
  int64_t passes = 0;
  std::string pass_ms;
  CpuRotation rotation;
  const std::string recovery_dir =
      config.work_dir + "/recovery-" + std::to_string(config.seed);
  seraph::EngineCheckpoint want;
  Recovery recovery;
  // Runs on the CPU of the pass before it.
  auto setup_and_recover = [&]() -> Status {
    Result<ClosedPass> setup = RunClosedPass(input, nullptr, true);
    if (!setup.ok()) return setup.status();
    setup_us.push_back(setup.value().setup_us);
    return RecoverOnce(input, recovery_dir, want,
                       config.trace ? &spans : nullptr, &recovery);
  };
  // Untraced: passes until the budget is measured. Traced: alternate an
  // untraced and a traced pass (the pair gives the tracing overhead).
  while (passes == 0 || timed_us < budget_us ||
         (config.trace && passes % 2 == 1)) {
    const bool traced = config.trace && passes % 2 == 1;
    // A traced pass runs on its untraced partner's CPU.
    if (!traced) rotation.PinNext();
    Result<ClosedPass> pass =
        RunClosedPass(input, traced ? &spans : nullptr, false);
    if (!pass.ok()) return pass.status();
    ClosedPass& p = pass.value();
    ++passes;
    digests_match = digests_match && p.digest.Hex() == expected_digest;
    report.digest = p.digest.Hex();
    setup_us.push_back(p.setup_us);
    pass_ms += " " + std::to_string(p.timed_us / 1000);
    timed_us += p.timed_us;
    timed_elements += p.timed_elements;
    undue += p.undue;
    delays.insert(delays.end(), p.delays.begin(), p.delays.end());
    Accumulate(p.timed, &totals);
    report.attempted += p.timed.stats.evaluations + p.timed_elements;
    report.failed += Failures(p.timed);
    if (traced) {
      traced_us += p.timed_us;
      layers.passes += 1;
      Accumulate(p.timed, &layers.c);
      layers.ingest_us += p.ingest_us;
      layers.advance_us += p.advance_us;
      layers.register_us += p.register_us;
      layers.sink_emits += p.emits;
      layers.sink_rows += p.rows;
    } else {
      untraced_us += p.timed_us;
    }
    if (passes == 1) {
      Result<seraph::EngineCheckpoint> image =
          CheckpointForRecovery(*p.engine, recovery_dir);
      if (!image.ok()) return image.status();
      want = std::move(image.value());
    }
    p.engine.reset();  // So its memory never overlaps the trials'.
    // Set-up and recovery are short next to a pass; trials between the
    // passes sample the whole run, not one moment of it.
    if (Status s = setup_and_recover(); !s.ok()) return s;
  }
  const double mem_peak_mb = PeakRssMb() - rss_base;
  while (static_cast<int>(recovery.recovery_us.size()) < kMinTrials) {
    rotation.PinNext();
    if (Status s = setup_and_recover(); !s.ok()) return s;
  }
  rotation.Release();
  std::error_code ec;
  fs::remove_all(recovery_dir, ec);

  report.correct = digests_match && undue == 0;
  if (undue > 0) {
    report.notes.push_back(std::to_string(undue) +
                           " emissions had no due element");
  }
  report.notes.push_back(
      "passes: " + std::to_string(passes) + ", timed elements: " +
      std::to_string(timed_elements) + ", output digest: " + report.digest);
  report.notes.push_back("timed ms per pass:" + pass_ms);
  std::string recovery_ms;
  for (int64_t us : recovery.recovery_us) {
    recovery_ms += " " + std::to_string(us / 1000);
  }
  report.notes.push_back("recovery ms per trial:" + recovery_ms);
  for (const auto& [name, us] : totals.match_us) {
    report.notes.push_back("match.us." + name + ": " + std::to_string(us));
  }

  if (!config.trace) {
    AddMetric(&report, "events_per_s",
              timed_elements / (timed_us / 1e6), "1/s");
    AddDelayMetrics(std::move(delays), &report);
    AddMetric(&report, "setup_s", Median(setup_us) / 1e6, "s");
    AddMetric(&report, "mem_peak_mb", mem_peak_mb, "MB");
    AddMetric(&report, "recovery_s", Median(recovery.recovery_us) / 1e6,
              "s");
    return report;
  }
  layers.restore_us = Median(recovery.restore_us);
  layers.overhead_share = Ratio(traced_us, untraced_us) - 1.0;
  WriteTrace(config, &spans);
  layers.self_us = spans.SelfMicrosByLayer();
  // Per-layer values are per traced pass; persist spans come from the
  // recovery trials, so report theirs per trial.
  layers.self_us["persist"] = static_cast<int64_t>(
      layers.self_us["persist"] * layers.passes /
      static_cast<int64_t>(recovery.recovery_us.size()));
  AddLayerMetrics(layers, &report);
  return report;
}

// ---- Open loop (serve_durable) ----

seraph::shard::ShardedEngineOptions ServeOptions(
    const std::string& dir, seraph::TraceRecorder* tracer) {
  seraph::shard::ShardedEngineOptions options;
  options.shards = 1;
  options.engine.eval_threads = 2;
  options.engine.tracer = tracer;
  options.checkpoint_dir = dir;
  options.checkpoint_fsync = true;
  options.checkpoint_every = kServeCheckpointEvery;
  return options;
}

Result<int64_t> RegisterFleet(const Input& input,
                              seraph::shard::ShardedEngine* fleet) {
  const int64_t start = NowMicros();
  for (const std::string& text : input.queries) {
    auto placed = fleet->RegisterText(text);
    if (!placed.ok()) return placed.status();
  }
  return NowMicros() - start;
}

struct ServeRun {
  Digest digest;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> setup_us;
  int64_t register_us = 0;
  int64_t timed_us = 0;
  int64_t timed_elements = 0;
  std::vector<int64_t> delays;
  int64_t undue = 0;
  int64_t emits = 0;
  int64_t rows = 0;
  Counters timed;
  int64_t released = 0;
  int64_t ingest_us = 0;
  int64_t pump_us = 0;
  int64_t queue_depth_max = 0;
  int64_t handoff_depth_max = 0;
  int64_t late_max_us = 0;
  int64_t watermark_ms = 0;
};

// Hands element indices from the generator to the serving thread.
struct Handoff {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;  // Guarded by mu.
  bool done = false;         // Guarded by mu.
};

// One open-loop run: kServeSetups set-ups (the last one serves), then
// the generator (this thread) sends each element at its scheduled time
// while one serving thread alone calls Ingest/PumpAll on the fleet.
Result<ServeRun> RunServeOnce(const Input& input, const std::string& dir,
                              SpanLog* spans) {
  std::vector<std::shared_ptr<const PropertyGraph>> graphs =
      CopyGraphs(input, input.elements.size());
  seraph::TraceRecorder recorder;
  if (spans != nullptr) recorder.Enable();
  ServeRun run;
  BenchSink sink(spans);
  sink.keep_hashes = true;
  std::unique_ptr<seraph::shard::ShardedEngine> fleet;
  std::error_code ec;
  for (int k = 0; k < kServeSetups; ++k) {
    fleet.reset();
    fs::remove_all(dir, ec);
    sink.due.clear();
    sink.digest = Digest();
    sink.hashes.clear();
    const int64_t start = NowMicros();
    fleet = std::make_unique<seraph::shard::ShardedEngine>(
        ServeOptions(dir, spans != nullptr ? &recorder : nullptr));
    fleet->AddSink(&sink);
    Result<int64_t> register_us = RegisterFleet(input, fleet.get());
    if (!register_us.ok()) return register_us.status();
    run.register_us = register_us.value();
    // Window fill, closed loop in chunks of one evaluation instant.
    for (size_t i = 0; i < input.warmup; ++i) {
      sink.due.emplace_back(input.elements[i].t.millis(), NowMicros());
      auto sent = fleet->Ingest(input.elements[i].graph, input.elements[i].t);
      if (!sent.ok()) return sent.status();
      if ((i + 1) % 10 == 0 || i + 1 == input.warmup) {
        if (Status s = fleet->PumpAll(); !s.ok()) return s;
      }
    }
    run.setup_us.push_back(NowMicros() - start);
  }
  recorder.Clear();

  const size_t n = input.elements.size();
  const double interval_us = 1e6 / kServeRate;
  const int64_t t0 = NowMicros() + 2000;
  for (size_t i = input.warmup; i < n; ++i) {
    sink.due.emplace_back(
        input.elements[i].t.millis(),
        t0 + static_cast<int64_t>((i - input.warmup) * interval_us));
  }
  const Counters before = ReadFleet(*fleet, input.names);
  const int64_t released_before = fleet->released_total();
  sink.timed = true;

  Handoff handoff;
  std::atomic<bool> abort{false};
  Status serve_status;
  std::thread server([&] {
    std::vector<size_t> batch;
    auto fail = [&](Status s) {
      serve_status = std::move(s);
      abort.store(true);
    };
    while (true) {
      {
        std::unique_lock<std::mutex> lock(handoff.mu);
        handoff.cv.wait(lock,
                        [&] { return !handoff.ready.empty() || handoff.done; });
        if (handoff.ready.empty()) break;
        batch.assign(handoff.ready.begin(), handoff.ready.end());
        handoff.ready.clear();
      }
      run.queue_depth_max = std::max<int64_t>(
          run.queue_depth_max, static_cast<int64_t>(batch.size()));
      for (size_t index : batch) {
        const int64_t start = NowMicros();
        Result<int> sent = 0;
        {
          ScopedSpan span(spans, "ingest", "ingest");
          sent = fleet->Ingest(std::move(graphs[index]),
                               input.elements[index].t);
        }
        run.ingest_us += NowMicros() - start;
        if (!sent.ok()) return fail(sent.status());
      }
      const int64_t start = NowMicros();
      Status s;
      {
        ScopedSpan span(spans, "pump", "shard");
        s = fleet->PumpAll();
      }
      run.pump_us += NowMicros() - start;
      if (!s.ok()) return fail(s);
    }
    const int64_t start = NowMicros();
    Status s;
    {
      ScopedSpan span(spans, "pump", "shard");
      s = fleet->Finish();
    }
    run.pump_us += NowMicros() - start;
    if (!s.ok()) fail(s);
  });

  for (size_t i = input.warmup; i < n && !abort.load(); ++i) {
    const int64_t scheduled = sink.due[i].second;
    const int64_t wait = scheduled - NowMicros();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
    run.late_max_us = std::max(run.late_max_us, NowMicros() - scheduled);
    {
      std::lock_guard<std::mutex> lock(handoff.mu);
      handoff.ready.push_back(i);
      run.handoff_depth_max = std::max<int64_t>(
          run.handoff_depth_max, static_cast<int64_t>(handoff.ready.size()));
    }
    handoff.cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(handoff.mu);
    handoff.done = true;
  }
  handoff.cv.notify_one();
  server.join();
  if (!serve_status.ok()) return serve_status;
  run.timed_us = NowMicros() - t0;
  run.timed_elements = static_cast<int64_t>(n - input.warmup);
  run.timed = Minus(ReadFleet(*fleet, input.names), before);
  run.released = fleet->released_total() - released_before;
  run.watermark_ms = fleet->FleetWatermarkMillis();
  run.digest = sink.digest;
  run.hashes = std::move(sink.hashes);
  run.delays = std::move(sink.delays);
  run.undue = sink.undue;
  run.emits = sink.emits;
  run.rows = sink.rows;
  if (spans != nullptr) spans->ImportEngineTrace(recorder, t0);
  return run;
}

// Recovery of the serving fleet: a fresh fleet restores from a copy of
// the run's checkpoint directory (newest generation plus ingest logs)
// and replays to the live fleet's watermark. Its output must be exactly
// the live fleet's output from the restored cut on.
Result<Recovery> ProbeServeRecovery(const Input& input, const ServeRun& live,
                                    const std::string& dir, SpanLog* spans) {
  Recovery recovery;
  std::error_code ec;
  for (int trial = 0; trial < kServeRecoveryTrials; ++trial) {
    const std::string copy = dir + "-restore";
    fs::remove_all(copy, ec);
    fs::copy(dir, copy, fs::copy_options::recursive, ec);
    if (ec) return Status::Internal("cannot copy " + dir + ": " + ec.message());
    BenchSink sink(nullptr);
    sink.keep_hashes = true;
    const int64_t start = NowMicros();
    seraph::shard::ShardedEngine fleet(ServeOptions(copy, nullptr));
    fleet.AddSink(&sink);
    Result<int64_t> registered = RegisterFleet(input, &fleet);
    if (!registered.ok()) return registered.status();
    const int64_t restore_start = NowMicros();
    {
      ScopedSpan span(spans, "restore", "persist");
      if (Status s = fleet.Restore(); !s.ok()) return s;
    }
    recovery.restore_us.push_back(NowMicros() - restore_start);
    if (Status s = fleet.PumpAll(); !s.ok()) return s;
    if (Status s = fleet.Finish(); !s.ok()) return s;
    recovery.recovery_us.push_back(NowMicros() - start);
    recovery.replayed = ReadFleet(fleet, input.names).driver_delivered;
    const std::vector<uint64_t>& got = sink.hashes;
    const bool resumed =
        fleet.FleetWatermarkMillis() == live.watermark_ms && !got.empty() &&
        got.size() <= live.hashes.size() &&
        std::equal(got.begin(), got.end(),
                   live.hashes.end() - static_cast<ptrdiff_t>(got.size()));
    fs::remove_all(copy, ec);
    if (!resumed) {
      return Status::Internal(
          "restored fleet did not resume with the live fleet's output");
    }
  }
  return recovery;
}

Result<Report> RunServeDurable(const RunConfig& config, const Input& input,
                               const std::string& expected_digest) {
  Report report;
  report.params = input.params;
  ResetPeakRss();
  const double rss_base = RssMb();
  SpanLog spans(config.trace, RunId(config));
  const std::string dir =
      config.work_dir + "/serve-" + std::to_string(config.seed);
  std::error_code ec;

  // A traced run serves twice over the same input: untraced, then traced.
  Result<ServeRun> untraced = RunServeOnce(input, dir, nullptr);
  if (!untraced.ok()) return untraced.status();
  const double mem_peak_mb = PeakRssMb() - rss_base;
  ServeRun* live = &untraced.value();
  Result<ServeRun> traced = ServeRun{};
  if (config.trace) {
    traced = RunServeOnce(input, dir, &spans);
    if (!traced.ok()) return traced.status();
    live = &traced.value();
  }
  Result<Recovery> recovery =
      ProbeServeRecovery(input, *live, dir, config.trace ? &spans : nullptr);
  fs::remove_all(dir, ec);
  if (!recovery.ok()) return recovery.status();

  const ServeRun& u = untraced.value();
  report.digest = live->digest.Hex();
  report.correct = u.digest.Hex() == expected_digest &&
                   live->digest.Hex() == expected_digest && live->undue == 0;
  std::vector<const ServeRun*> runs = {&u};
  if (live != &u) runs.push_back(live);
  for (const ServeRun* r : runs) {
    report.attempted += r->timed.stats.evaluations + r->timed_elements;
    report.failed += Failures(r->timed) + r->timed.checkpoint_failures;
  }
  report.notes.push_back(
      "timed elements: " + std::to_string(u.timed_elements) +
      ", checkpoints: " + std::to_string(u.timed.checkpoints) +
      ", generator late max: " + std::to_string(u.late_max_us) +
      " us, output digest: " + report.digest);
  for (const auto& [name, us] : live->timed.match_us) {
    report.notes.push_back("match.us." + name + ": " + std::to_string(us));
  }

  if (!config.trace) {
    AddMetric(&report, "events_per_s", u.timed_elements / (u.timed_us / 1e6),
              "1/s");
    AddDelayMetrics(u.delays, &report);
    AddMetric(&report, "setup_s", Median(u.setup_us) / 1e6, "s");
    AddMetric(&report, "mem_peak_mb", mem_peak_mb, "MB");
    AddMetric(&report, "recovery_s",
              Median(recovery.value().recovery_us) / 1e6, "s");
    return report;
  }
  const ServeRun& t = traced.value();
  LayerNumbers layers;
  layers.passes = 1;
  layers.c = t.timed;
  layers.register_us = t.register_us;
  layers.sink_emits = t.emits;
  layers.sink_rows = t.rows;
  layers.shard_ingest_us = t.ingest_us;
  layers.shard_pump_us = t.pump_us;
  layers.shard_released = t.released;
  layers.queue_depth_max = t.queue_depth_max;
  layers.handoff_depth_max = t.handoff_depth_max;
  layers.late_max_us = t.late_max_us;
  layers.restore_us = Median(recovery.value().restore_us);
  layers.replayed = recovery.value().replayed;
  // Open loop: the wall is the schedule, so compare serving-thread busy
  // time instead.
  layers.overhead_share =
      Ratio(t.ingest_us + t.pump_us, u.ingest_us + u.pump_us) - 1.0;
  WriteTrace(config, &spans);
  layers.self_us = spans.SelfMicrosByLayer();
  layers.self_us["persist"] /= kServeRecoveryTrials;
  AddLayerMetrics(layers, &report);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"rpq_paths", "crime_window",
                                                 "serve_durable"};
  return names;
}

Result<std::string> ReferenceDigest(const RunConfig& config) {
  const Input input = MakeInput(config);
  ContinuousEngine engine(ReferenceOptions());
  BenchSink sink(nullptr);
  engine.AddSink(&sink, "reference");
  if (Status s = RegisterAll(input, &engine); !s.ok()) return s;
  for (size_t i = 0; i < input.elements.size();) {
    const Timestamp t = input.elements[i].t;
    for (; i < input.elements.size() && input.elements[i].t == t; ++i) {
      if (Status s = engine.IngestTo(input.elements[i].stream,
                                     input.elements[i].graph, t);
          !s.ok()) {
        return s;
      }
    }
    if (Status s = engine.AdvanceTo(t); !s.ok()) return s;
  }
  return sink.digest.Hex();
}

Result<Report> RunWorkload(const RunConfig& config,
                           const std::string& expected_digest) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  const Input input = MakeInput(config);
  if (config.workload == "serve_durable") {
    return RunServeDurable(config, input, expected_digest);
  }
  return RunClosedLoop(config, input, expected_digest);
}

}  // namespace perfbench
