#include "seraph/continuous_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>

#include "common/cancel.h"
#include "common/logging.h"
#include "cypher/executor.h"
#include "cypher/matcher.h"
#include "graph/graph_union.h"
#include "seraph/delta/delta_index.h"
#include "seraph/seraph_parser.h"

namespace seraph {

// ---------------------------------------------------------------------------
// CollectingSink
// ---------------------------------------------------------------------------

Status CollectingSink::OnResult(const std::string& query_name,
                                Timestamp evaluation_time,
                                const TimeAnnotatedTable& table) {
  results_[query_name].Insert(table);
  // Last write wins: a second result for the same (query, timestamp) —
  // e.g. after Unregister/Register of the same name — replaces the first,
  // matching time-varying-table semantics (ResultsFor keeps the full
  // delivery sequence).
  by_time_[query_name].insert_or_assign(evaluation_time, table);
  return Status::OK();
}

const TimeVaryingTable& CollectingSink::ResultsFor(
    const std::string& query_name) const {
  static const TimeVaryingTable* kEmpty = new TimeVaryingTable();
  auto it = results_.find(query_name);
  return it == results_.end() ? *kEmpty : it->second;
}

std::optional<TimeAnnotatedTable> CollectingSink::ResultAt(
    const std::string& query_name, Timestamp t) const {
  auto qit = by_time_.find(query_name);
  if (qit == by_time_.end()) return std::nullopt;
  auto tit = qit->second.find(t);
  if (tit == qit->second.end()) return std::nullopt;
  return tit->second;
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

// Cached registry handles for one query's observability series, resolved
// once at Register so the evaluation hot path never does a name lookup.
struct QueryMetricHandles {
  Counter* evaluations = nullptr;
  Counter* reuse_hits = nullptr;
  Counter* reuse_misses = nullptr;
  Counter* match_rows = nullptr;
  Counter* rows_emitted = nullptr;
  Counter* snapshots_incremental = nullptr;
  Counter* snapshots_rebuilt = nullptr;
  Counter* elements_added = nullptr;
  Counter* elements_evicted = nullptr;
  Counter* entities_recomputed = nullptr;
  Counter* eval_failures = nullptr;
  Gauge* disabled = nullptr;
  Histogram* stage_window = nullptr;
  Histogram* stage_snapshot = nullptr;
  Histogram* stage_match = nullptr;
  Histogram* stage_policy = nullptr;
  Histogram* stage_sink = nullptr;
  Histogram* eval_total = nullptr;
  // Intra-query parallel matching (written by the query's evaluating
  // worker via MatchParallelism — see cypher/matcher.h).
  Counter* match_partitions = nullptr;
  Histogram* match_seeds = nullptr;
  // Expansions cut by the path-filter pushdown (cypher/executor.cc).
  Counter* match_pruned = nullptr;
  // Emit-latency accounting (docs/INTERNALS.md, "Latency accounting &
  // lag"): ingest→emit latency of each covered element, and its queue
  // wait (arrival → evaluation start), the one per-element stage; the
  // per-evaluation stages are seraph_stage_micros above. Written only by
  // the coordinator in FinishDelivery (single-writer histogram contract).
  Histogram* emit_latency = nullptr;
  Histogram* lat_queue = nullptr;
  // Delta matching (seraph/delta): evaluations served from the
  // partial-match index, full executions taken while delta matching was
  // enabled (ineligible query or invalidated index), index rebuilds, and
  // the current index population.
  Counter* delta_hits = nullptr;
  Counter* delta_fallbacks = nullptr;
  Counter* delta_rebuilds = nullptr;
  Gauge* delta_entries = nullptr;
};

struct ContinuousEngine::QueryState {
  RegisteredQuery query;
  bool content_deterministic = false;

  // One window per distinct (stream, WITHIN width) pair a MATCH uses.
  struct WindowState {
    std::string stream;
    Duration width;
    WindowConfig config;
    std::unique_ptr<IncrementalSnapshotter> snapshotter;
    PropertyGraph rebuilt;  // Used when incremental maintenance is off.
    // Element index range covered at the previous evaluation (for the
    // unchanged-window reuse check).
    size_t last_lo = 0;
    size_t last_hi = 0;
    bool has_last_range = false;
    // Snapshotter counters as of the previous evaluation, for deltas.
    SnapshotterStats last_maint;
  };
  // Keyed by "<stream>\n<width_ms>".
  std::map<std::string, WindowState> windows;
  std::string widest_key;  // Window whose bounds annotate emissions.

  Timestamp next_eval;
  // Previous evaluation's (un-annotated) result, for delta policies and
  // for unchanged-window reuse.
  Table previous_result;
  bool has_previous = false;
  bool done = false;  // RETURN-once queries stop after one evaluation.
  // Query isolation (the query-side mirror of sink quarantine).
  int consecutive_failures = 0;
  bool disabled = false;
  QueryStats stats;
  QueryMetricHandles metrics;
  // Emit-latency cursors, one per distinct stream among the query's
  // windows: the index of the first element whose latency has not been
  // charged yet. Advanced only by the coordinator (FinishDelivery) over
  // elements with timestamp <= the delivered instant.
  std::map<std::string, size_t> latency_cursors;
  // Intra-query parallel matching spec handed to the executor. `pool` is
  // set by the scheduler per batch (non-null only when the batch leaves
  // spare workers) and read by this query's single evaluating worker.
  MatchParallelism match_par;
  // Delta-matching index (seraph/delta); null when the query is not
  // eligible or delta matching is disabled. Rebuilt lazily — never
  // serialized into checkpoints — and invalidated on evaluation failure,
  // restore, and revive.
  std::unique_ptr<DeltaIndex> delta;
};

namespace {

std::string WindowKey(const std::string& stream, Duration width) {
  return stream + "\n" + std::to_string(width.millis());
}

// Human-readable window identifier for trace spans ("<stream>/PT..ms").
std::string WindowLabel(const std::string& stream, Duration width) {
  return (stream.empty() ? std::string("<default>") : stream) + "/" +
         std::to_string(width.millis()) + "ms";
}

QueryMetricHandles MakeQueryMetrics(MetricsRegistry* registry,
                                    const std::string& query) {
  const MetricLabels q{{"query", query}};
  QueryMetricHandles m;
  m.evaluations = registry->CounterFor("seraph_query_evaluations_total", q);
  m.reuse_hits = registry->CounterFor("seraph_query_reuse_hits_total", q);
  m.reuse_misses =
      registry->CounterFor("seraph_query_reuse_misses_total", q);
  m.match_rows = registry->CounterFor("seraph_query_match_rows_total", q);
  m.rows_emitted =
      registry->CounterFor("seraph_query_rows_emitted_total", q);
  m.snapshots_incremental =
      registry->CounterFor("seraph_query_snapshots_incremental_total", q);
  m.snapshots_rebuilt =
      registry->CounterFor("seraph_query_snapshots_rebuilt_total", q);
  m.elements_added =
      registry->CounterFor("seraph_window_elements_added_total", q);
  m.elements_evicted =
      registry->CounterFor("seraph_window_elements_evicted_total", q);
  m.entities_recomputed =
      registry->CounterFor("seraph_window_entities_recomputed_total", q);
  m.eval_failures =
      registry->CounterFor("seraph_query_eval_failures_total", q);
  m.disabled = registry->GaugeFor("seraph_query_disabled", q);
  auto stage = [&](const char* name) {
    return registry->HistogramFor(
        "seraph_stage_micros",
        {{"query", query}, {"stage", name}});
  };
  m.stage_window = stage("window");
  m.stage_snapshot = stage("snapshot");
  m.stage_match = stage("match");
  m.stage_policy = stage("policy");
  m.stage_sink = stage("sink");
  m.eval_total = registry->HistogramFor("seraph_query_eval_micros", q);
  m.match_partitions =
      registry->CounterFor("seraph_match_partitions_total", q);
  m.match_seeds =
      registry->HistogramFor("seraph_match_seed_candidates", q);
  m.match_pruned = registry->CounterFor("seraph_match_pruned_total", q);
  m.emit_latency = registry->HistogramFor("seraph_emit_latency_micros", q);
  m.lat_queue = registry->HistogramFor("seraph_emit_stage_micros",
                                       {{"query", query}, {"stage", "queue"}});
  m.delta_hits = registry->CounterFor("seraph_delta_hits_total", q);
  m.delta_fallbacks =
      registry->CounterFor("seraph_delta_fallbacks_total", q);
  m.delta_rebuilds = registry->CounterFor("seraph_delta_rebuilds_total", q);
  m.delta_entries = registry->GaugeFor("seraph_delta_index_entries", q);
  return m;
}

// Resolves each MATCH clause to the snapshot of its (stream, WITHIN)
// window.
class WindowGraphResolver final : public GraphResolver {
 public:
  WindowGraphResolver(
      const std::map<std::string, const PropertyGraph*>& by_key,
      const PropertyGraph* base)
      : by_key_(by_key), base_(base) {}

  const PropertyGraph& GraphFor(const MatchClause& clause,
                                size_t) const override {
    SERAPH_CHECK(clause.within.has_value())
        << "Seraph MATCH without WITHIN reached the resolver";
    auto it = by_key_.find(WindowKey(clause.from_stream, *clause.within));
    SERAPH_CHECK(it != by_key_.end()) << "no snapshot for WITHIN window";
    return *it->second;
  }

  const PropertyGraph& BaseGraph() const override { return *base_; }

 private:
  const std::map<std::string, const PropertyGraph*>& by_key_;
  const PropertyGraph* base_;
};

}  // namespace

ContinuousEngine::ContinuousEngine(EngineOptions options)
    : options_(std::move(options)) {
  batch_size_ = metrics_.HistogramFor("seraph_engine_eval_batch_size");
  parallel_evals_ =
      metrics_.CounterFor("seraph_engine_parallel_evals_total");
  stuck_evals_ = metrics_.GaugeFor("seraph_engine_stuck_evals");
  fleet_emit_latency_ =
      metrics_.HistogramFor("seraph_engine_emit_latency_micros");
  engine_clock_millis_ = metrics_.GaugeFor("seraph_engine_clock_millis");
}

const Clock* ContinuousEngine::LatencyClock() const {
  return options_.clock != nullptr ? options_.clock : Clock::Steady();
}

ContinuousEngine::StreamObs* ContinuousEngine::ObsFor(
    const std::string& stream) {
  auto it = stream_obs_.find(stream);
  if (it == stream_obs_.end()) {
    const std::string label = stream.empty() ? "<default>" : stream;
    const MetricLabels labels{{"stream", label}};
    StreamObs obs;
    obs.ingested =
        metrics_.CounterFor("seraph_stream_elements_ingested_total", labels);
    obs.watermark_millis =
        metrics_.GaugeFor("seraph_stream_watermark_millis", labels);
    obs.lag_millis = metrics_.GaugeFor("seraph_stream_lag_millis", labels);
    obs.lag_max_millis =
        metrics_.GaugeFor("seraph_stream_lag_max_millis", labels);
    it = stream_obs_.emplace(stream, obs).first;
  }
  return &it->second;
}

void ContinuousEngine::UpdateLagGauges() {
  const int64_t clock_ms = clock_started_ ? clock_.millis() : 0;
  engine_clock_millis_->Set(clock_ms);
  for (auto& [name, obs] : stream_obs_) {
    if (!obs.any_ingested) continue;
    int64_t lag = obs.watermark_value - clock_ms;
    if (lag < 0) lag = 0;
    obs.lag_millis->Set(lag);
    if (lag > obs.lag_max_value) {
      obs.lag_max_value = lag;
      obs.lag_max_millis->Set(lag);
    }
  }
}

ContinuousEngine::~ContinuousEngine() = default;

void ContinuousEngine::AddSink(EmitSink* sink) {
  sinks_.Add(sink, "sink" + std::to_string(sinks_.size()), SinkPolicy{});
}

void ContinuousEngine::AddSink(EmitSink* sink, std::string name,
                               SinkPolicy policy) {
  sinks_.Add(sink, std::move(name), policy);
}

bool ContinuousEngine::SinkQuarantined(const std::string& name) const {
  return sinks_.Quarantined(name);
}

Status ContinuousEngine::ReviveSink(const std::string& name) {
  return sinks_.Revive(name);
}

bool ContinuousEngine::QueryDisabled(const std::string& name) const {
  auto it = queries_.find(name);
  return it != queries_.end() && it->second->disabled;
}

Status ContinuousEngine::ReviveQuery(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  QueryState* state = it->second.get();
  state->disabled = false;
  state->consecutive_failures = 0;
  state->metrics.disabled->Set(0);
  // The index missed every advance while the query was disabled.
  if (state->delta != nullptr) state->delta->Invalidate();
  return Status::OK();
}

void SinkSet::Add(EmitSink* sink, std::string name, SinkPolicy policy) {
  State state;
  state.sink = sink;
  state.name = std::move(name);
  state.policy = policy;
  const MetricLabels labels{{"sink", state.name}};
  state.deliveries =
      metrics_->CounterFor(family_ + "_deliveries_total", labels);
  state.failures = metrics_->CounterFor(family_ + "_failures_total", labels);
  state.retries = metrics_->CounterFor(family_ + "_retries_total", labels);
  state.dead_lettered =
      metrics_->CounterFor(family_ + "_dead_lettered_total", labels);
  state.quarantined_gauge =
      metrics_->GaugeFor(family_ + "_quarantined", labels);
  sinks_.push_back(std::move(state));
}

bool SinkSet::Quarantined(const std::string& name) const {
  for (const State& state : sinks_) {
    if (state.name == name) return state.quarantined;
  }
  return false;
}

Status SinkSet::Revive(const std::string& name) {
  for (State& state : sinks_) {
    if (state.name != name) continue;
    state.quarantined = false;
    state.consecutive_failures = 0;
    state.quarantined_gauge->Set(0);
    return Status::OK();
  }
  return Status::NotFound("sink '" + name + "' is not registered");
}

int SinkSet::Deliver(const std::string& query_name, Timestamp t,
                     const TimeAnnotatedTable& annotated,
                     DeadLetterQueue* dead_letter) {
  int lost = 0;
  for (State& state : sinks_) {
    Status status;
    int attempts = 0;
    if (state.quarantined) {
      // Not called at all, yet the result is lost to it all the same.
      status = Status::Unavailable("sink '" + state.name + "' is quarantined");
    } else {
      for (;;) {
        ++attempts;
        status = state.sink->OnResult(query_name, t, annotated);
        if (status.ok()) break;
        if (!state.policy.retry.ShouldRetry(status, attempts)) break;
        state.retries->Increment();
        // The backoff delay is deterministic and accounted, not slept:
        // the engine runs in simulated time (see common/fault.h).
        metrics_->CounterFor(family_ + "_backoff_millis_total",
                             {{"sink", state.name}})
            ->Increment(state.policy.retry.DelayMillisFor(attempts));
      }
      if (status.ok()) {
        state.consecutive_failures = 0;
        state.deliveries->Increment();
        continue;
      }
    }
    // Retries exhausted, the error was permanent, or the sink is
    // quarantined: this delivery is lost to the sink — capture it, count
    // it, and keep everything else running (sink isolation).
    ++lost;
    if (dead_letter != nullptr) {
      dead_letter->AddSinkResult(state.name, query_name, t, annotated, status,
                                 attempts);
      state.dead_lettered->Increment();
    }
    if (state.quarantined) continue;
    state.failures->Increment();
    ++state.consecutive_failures;
    SERAPH_LOG(WARNING) << "sink '" << state.name << "' rejected result of '"
                        << query_name << "' at " << t.ToString() << " after "
                        << attempts << " attempt(s): " << status;
    if (state.consecutive_failures >= state.policy.quarantine_after) {
      state.quarantined = true;
      state.quarantined_gauge->Set(1);
      SERAPH_LOG(ERROR) << "sink '" << state.name << "' quarantined after "
                        << state.consecutive_failures
                        << " consecutive failures";
    }
  }
  return lost;
}

PropertyGraphStream* ContinuousEngine::MutableStream(
    const std::string& name) {
  return &streams_[name];
}

const PropertyGraphStream* ContinuousEngine::FindStreamOrEmpty(
    const std::string& name) const {
  static const PropertyGraphStream* kEmpty = new PropertyGraphStream();
  auto it = streams_.find(name);
  return it == streams_.end() ? kEmpty : &it->second;
}

Status ContinuousEngine::SetStaticGraph(PropertyGraph graph) {
  if (!queries_.empty()) {
    return Status::InvalidArgument(
        "SetStaticGraph must be called before registering queries");
  }
  static_graph_ =
      std::make_shared<const PropertyGraph>(std::move(graph));
  return Status::OK();
}

Status ContinuousEngine::Register(RegisteredQuery query) {
  SERAPH_RETURN_IF_ERROR(query.Validate());
  if (queries_.contains(query.name)) {
    return Status::AlreadyExists("query '" + query.name +
                                 "' is already registered");
  }
  auto state = std::make_unique<QueryState>();
  state->next_eval = query.starting_at;
  state->content_deterministic = query.IsWindowContentDeterministic();
  // One window state per distinct (stream, WITHIN width) pair.
  Duration slide = query.mode == OutputMode::kEmitStream
                       ? query.every
                       : Duration::FromMillis(1);
  Duration max_width = Duration::FromMillis(0);
  for (const Clause& clause : query.clauses) {
    const auto* match = std::get_if<MatchClause>(&clause);
    if (match == nullptr) continue;
    std::string key = WindowKey(match->from_stream, *match->within);
    if (state->widest_key.empty() || *match->within > max_width) {
      max_width = *match->within;
      state->widest_key = key;
    }
    if (state->windows.contains(key)) continue;
    QueryState::WindowState ws;
    ws.stream = match->from_stream;
    ws.width = *match->within;
    ws.config = WindowConfig{query.starting_at, *match->within, slide,
                             options_.semantics};
    SERAPH_RETURN_IF_ERROR(ws.config.Validate());
    // Create the stream eagerly so streams_ never mutates during
    // evaluation: worker threads only ever read the map.
    MutableStream(match->from_stream);
    if (options_.incremental_snapshots) {
      ws.snapshotter = std::make_unique<IncrementalSnapshotter>(
          MutableStream(match->from_stream), ws.config.bounds());
      if (static_graph_ != nullptr) {
        SERAPH_RETURN_IF_ERROR(ws.snapshotter->SetBase(static_graph_));
      }
    }
    state->windows.emplace(std::move(key), std::move(ws));
  }
  state->query = std::move(query);
  state->metrics = MakeQueryMetrics(&metrics_, state->query.name);
  // Delta matching needs the snapshotter dirty sets as its repair input,
  // so it only engages alongside incremental snapshots. The MatchClause
  // pointer stays valid: EvaluateAt's clause-vector move transfers the
  // heap buffer without relocating elements.
  if (options_.delta_matching && options_.incremental_snapshots &&
      DeltaIndex::Eligible(state->query)) {
    state->delta = std::make_unique<DeltaIndex>(
        std::get_if<MatchClause>(&state->query.clauses[0]));
  }
  // Emit-latency cursors start at the streams' current sizes: elements
  // ingested before the query existed are not part of its latency SLO.
  for (const auto& [key, ws] : state->windows) {
    state->latency_cursors.emplace(ws.stream,
                                   FindStreamOrEmpty(ws.stream)->size());
  }
  // Static parts of the intra-query parallelism spec; the scheduler fills
  // in `pool` per batch when it grants parallel matching.
  state->match_par.min_seeds =
      static_cast<size_t>(std::max(options_.match_min_seeds, 1));
  state->match_par.morsel_size =
      static_cast<size_t>(std::max(options_.match_morsel_size, 1));
  state->match_par.partitions = state->metrics.match_partitions;
  state->match_par.seed_candidates = state->metrics.match_seeds;
  state->match_par.tracer = options_.tracer;
  state->match_par.query_label = state->query.name;
  std::string name = state->query.name;
  queries_.emplace(std::move(name), std::move(state));
  metrics_.GaugeFor("seraph_queries_registered")
      ->Set(static_cast<int64_t>(queries_.size()));
  return Status::OK();
}

Status ContinuousEngine::RegisterText(std::string_view seraph_text) {
  SERAPH_ASSIGN_OR_RETURN(RegisteredQuery query,
                          ParseSeraphQuery(seraph_text));
  return Register(std::move(query));
}

Status ContinuousEngine::Unregister(const std::string& name) {
  if (queries_.erase(name) == 0) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  metrics_.GaugeFor("seraph_queries_registered")
      ->Set(static_cast<int64_t>(queries_.size()));
  return Status::OK();
}

std::vector<std::string> ContinuousEngine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [name, state] : queries_) names.push_back(name);
  return names;
}

Result<QueryStats> ContinuousEngine::StatsFor(const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return it->second->stats;
}

Result<HistogramSnapshot> ContinuousEngine::LatencyFor(
    const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return it->second->metrics.eval_total->Snapshot();
}

Status ContinuousEngine::Ingest(PropertyGraph graph, Timestamp timestamp) {
  return IngestTo("", std::make_shared<const PropertyGraph>(std::move(graph)),
                  timestamp);
}

Status ContinuousEngine::Ingest(std::shared_ptr<const PropertyGraph> graph,
                                Timestamp timestamp) {
  return IngestTo("", std::move(graph), timestamp);
}

Status ContinuousEngine::IngestTo(const std::string& stream,
                                  PropertyGraph graph, Timestamp timestamp) {
  return IngestTo(stream,
                  std::make_shared<const PropertyGraph>(std::move(graph)),
                  timestamp);
}

Status ContinuousEngine::IngestTo(
    const std::string& stream, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp) {
  return IngestTo(stream, std::move(graph), timestamp, 0);
}

Status ContinuousEngine::IngestTo(
    const std::string& stream, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp, int64_t arrival_micros) {
  if (clock_started_ && timestamp < clock_) {
    return Status::OutOfRange(
        "cannot ingest an element older than the engine clock (" +
        timestamp.ToString() + " < " + clock_.ToString() + ")");
  }
  // Elements that arrive unstamped (direct Ingest, no queue in front) get
  // their t0 here, so emit latency degrades gracefully to ingest→emit.
  // With stamping off, no clock is read and FinishDelivery records
  // nothing — the overhead ablation arm.
  if (options_.latency_stamping && arrival_micros == 0) {
    arrival_micros = LatencyClock()->NowMicros();
  }
  Status appended =
      MutableStream(stream)->Append(std::move(graph), timestamp,
                                    arrival_micros);
  if (appended.ok()) {
    StreamObs* obs = ObsFor(stream);
    obs->ingested->Increment();
    const int64_t ts_ms = timestamp.millis();
    if (!obs->any_ingested || ts_ms > obs->watermark_value) {
      obs->any_ingested = true;
      obs->watermark_value = ts_ms;
      obs->watermark_millis->Set(ts_ms);
      // The watermark moved ahead of the engine clock: refresh this
      // stream's lag (event-time millis, so deterministic).
      int64_t lag = ts_ms - (clock_started_ ? clock_.millis() : 0);
      if (lag < 0) lag = 0;
      obs->lag_millis->Set(lag);
      if (lag > obs->lag_max_value) {
        obs->lag_max_value = lag;
        obs->lag_max_millis->Set(lag);
      }
    }
    if (options_.tracer != nullptr && options_.tracer->enabled()) {
      options_.tracer->AddInstant(
          "ingest", "stream", TraceRecorder::NowMicros(),
          {{"stream", stream.empty() ? "<default>" : stream},
           {"t", timestamp.ToString()}});
    }
  }
  return appended;
}

const PropertyGraphStream& ContinuousEngine::stream() const {
  return *FindStreamOrEmpty("");
}

const PropertyGraphStream& ContinuousEngine::stream(
    const std::string& name) const {
  // Pure read: a never-ingested name must not insert an empty stream
  // into streams_ (a surprise mutation, and a data race under parallel
  // evaluation).
  return *FindStreamOrEmpty(name);
}

std::vector<std::string> ContinuousEngine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, stream] : streams_) names.push_back(name);
  return names;
}

Status ContinuousEngine::AdvanceTo(Timestamp now) {
  if (clock_started_ && now < clock_) {
    return Status::OutOfRange("engine clock cannot move backwards");
  }
  // Run all due evaluations across queries in global chronological order
  // so multi-query sinks observe a single timeline. Every query due at
  // the same instant forms one batch: the batch's stage-1..3 work may run
  // concurrently (eval_threads > 1), but delivery always happens here on
  // the coordinator, sequentially, in query-name order — which is exactly
  // the order the serial min-scan produced, so output is identical at any
  // thread count.
  const int threads = ThreadPool::ResolveThreads(options_.eval_threads);
  // One pool serves both parallelism levels; it is sized for whichever is
  // wider. Intra-query (morsel) parallelism is granted per batch, only
  // when the batch leaves spare workers — a full batch already keeps the
  // pool busy with whole queries.
  const int match_threads = ThreadPool::ResolveThreads(options_.match_threads);
  const int pool_threads = std::max(threads, match_threads);
  std::vector<QueryState*> batch;
  std::vector<PendingDelivery> outputs;
  std::vector<Status> statuses;
  std::vector<std::future<void>> futures;
  while (true) {
    bool have_t = false;
    Timestamp t;
    for (auto& [name, state] : queries_) {
      if (state->done || state->disabled) continue;
      if (state->next_eval > now) continue;
      if (!have_t || state->next_eval < t) {
        t = state->next_eval;
        have_t = true;
      }
    }
    if (!have_t) break;

    // queries_ is a std::map, so the batch comes out in ascending name
    // order.
    batch.clear();
    for (auto& [name, state] : queries_) {
      if (state->done || state->disabled) continue;
      if (state->next_eval == t) batch.push_back(state.get());
    }
    batch_size_->Record(static_cast<int64_t>(batch.size()));

    outputs.assign(batch.size(), PendingDelivery{});
    statuses.assign(batch.size(), Status::OK());
    const bool parallel_queries = threads > 1 && batch.size() > 1;
    const bool parallel_match =
        match_threads > 1 && static_cast<int>(batch.size()) < pool_threads;
    if ((parallel_queries || parallel_match) &&
        (pool_ == nullptr || pool_->size() != pool_threads)) {
      pool_ = std::make_unique<ThreadPool>(pool_threads);
    }
    for (QueryState* state : batch) {
      state->match_par.pool = parallel_match ? pool_.get() : nullptr;
    }
    if (parallel_queries) {
      futures.clear();
      futures.reserve(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        QueryState* state = batch[i];
        PendingDelivery* out = &outputs[i];
        Status* status = &statuses[i];
        futures.push_back(pool_->Submit([this, state, t, out, status] {
          // Each worker traces into its own lane (tid 0 is the
          // coordinator).
          TraceRecorder::SetCurrentThreadTid(ThreadPool::CurrentWorkerId() +
                                             1);
          *status = EvaluateAtNoThrow(state, t, out);
        }));
      }
      // Batch barrier: nothing is delivered (and the next instant is not
      // scheduled) until every evaluation of this instant finished. The
      // joins also establish the happens-before edge that lets the
      // coordinator read worker-written per-query state without locks.
      // The barrier is watched: an evaluation still running past the
      // watchdog period is logged with the offending query's name and
      // gauged — PR 3's isolation catches failures, this catches hangs.
      // The coordinator still waits (delivery order must hold); the
      // watchdog makes the hang diagnosable, a cooperative deadline
      // (eval_deadline_millis) is what unwedges it.
      const int64_t watchdog_ms =
          options_.watchdog_millis > 0 ? options_.watchdog_millis
          : options_.eval_deadline_millis > 0
              ? std::max<int64_t>(4 * options_.eval_deadline_millis, 100)
              : 10'000;
      bool any_stuck = false;
      for (size_t i = 0; i < futures.size(); ++i) {
        int64_t overdue_rounds = 0;
        while (futures[i].wait_for(std::chrono::milliseconds(watchdog_ms)) !=
               std::future_status::ready) {
          ++overdue_rounds;
          any_stuck = true;
          // Unjoined evaluations of this batch (at least this one).
          stuck_evals_->Set(static_cast<int64_t>(futures.size() - i));
          SERAPH_LOG(ERROR)
              << "batch watchdog: evaluation of query '"
              << batch[i]->query.name << "' at " << t.ToString()
              << " still running after " << watchdog_ms * overdue_rounds
              << " ms; batch barrier is stuck";
        }
      }
      if (any_stuck) stuck_evals_->Set(0);
      parallel_evals_->Increment(static_cast<int64_t>(batch.size()));
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        statuses[i] = EvaluateAtNoThrow(batch[i], t, &outputs[i]);
      }
    }

    // Coordinator half: sink delivery and failure bookkeeping, in batch
    // (= name) order. A failed evaluation is isolated — recorded,
    // dead-lettered, possibly disabling the query — and never aborts the
    // fleet. The grid advances on failure too; otherwise a poisoned
    // query would re-fail at the same instant forever.
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryState* state = batch[i];
      ++evaluations_run_;
      const bool ok = statuses[i].ok();
      if (ok) {
        state->consecutive_failures = 0;
        FinishDelivery(state, t, std::move(outputs[i]));
      } else {
        HandleEvalFailure(state, t, std::move(statuses[i]));
      }
      if (state->query.mode == OutputMode::kReturnOnce) {
        if (ok) {
          state->done = true;
        } else if (!state->disabled) {
          // A RETURN query has no later instant to retry at, so one
          // failure is terminal regardless of the error budget: disable
          // it (making the failure observable via QueryDisabled) rather
          // than marking it done. ReviveQuery re-arms the single
          // evaluation at the same instant.
          state->disabled = true;
          state->metrics.disabled->Set(1);
          SERAPH_LOG(ERROR)
              << "RETURN query '" << state->query.name
              << "' disabled after its single evaluation failed; "
                 "ReviveQuery() re-arms it";
        }
      } else {
        state->next_eval = t + state->query.every;
      }
    }

    // Batch barrier: every query due at t has evaluated, delivered, and
    // advanced its grid, and no instant < next batch's t is pending.
    // Advancing the clock here (not only at the end) makes this a
    // consistent cut — exactly what a checkpoint needs. Catch-up batches
    // (a revived or late-registered query evaluating instants the clock
    // already passed) must not move it backwards.
    if (!clock_started_ || t > clock_) clock_ = t;
    clock_started_ = true;
    // The clock moved: the per-stream lag (watermark − clock) shrank.
    UpdateLagGauges();
    ++batches_completed_;
    if (checkpoint_callback_ && options_.checkpoint_every > 0 &&
        batches_completed_ % options_.checkpoint_every == 0) {
      Status written = checkpoint_callback_();
      if (!written.ok()) {
        // A failed checkpoint widens the replay window back to the last
        // good one; it must not take the pipeline down with it.
        SERAPH_LOG(ERROR) << "checkpoint at " << t.ToString()
                          << " failed: " << written.ToString();
      }
    }
  }
  clock_ = now;
  clock_started_ = true;
  UpdateLagGauges();
  return Status::OK();
}

EngineCheckpoint ContinuousEngine::CaptureCheckpoint() const {
  EngineCheckpoint image;
  image.clock = clock_;
  image.clock_started = clock_started_;
  image.evaluations_run = evaluations_run_;
  for (const auto& [name, stream] : streams_) {
    image.streams.emplace(name, stream.elements());
  }
  for (const auto& [name, state] : queries_) {
    QueryCheckpoint q;
    q.name = name;
    q.next_eval = state->next_eval;
    q.done = state->done;
    q.disabled = state->disabled;
    q.consecutive_failures = state->consecutive_failures;
    q.has_previous = state->has_previous;
    q.previous_result = state->previous_result;
    q.stats = state->stats;
    image.queries.push_back(std::move(q));
  }
  return image;
}

Status ContinuousEngine::RestoreFrom(const EngineCheckpoint& checkpoint) {
  if (clock_started_ || evaluations_run_ != 0) {
    return Status::InvalidArgument(
        "RestoreFrom requires a freshly constructed engine (clock already "
        "started)");
  }
  for (const auto& [name, stream] : streams_) {
    if (!stream.empty()) {
      return Status::InvalidArgument(
          "RestoreFrom requires a freshly constructed engine (stream '" +
          name + "' already has elements)");
    }
  }
  // Definitions first, state second: every checkpointed query must already
  // be re-registered so its windows/metrics exist to overlay.
  for (const QueryCheckpoint& q : checkpoint.queries) {
    if (!queries_.contains(q.name)) {
      return Status::InvalidArgument(
          "checkpoint names query '" + q.name +
          "', which is not registered; re-register all queries before "
          "RestoreFrom");
    }
  }
  // Rebuild the streams via direct appends: the checkpointed elements
  // predate the restored clock, so IngestTo's clock guard (and its
  // ingestion counters — restored elements were already counted in their
  // first life) must not apply.
  for (const auto& [name, elements] : checkpoint.streams) {
    PropertyGraphStream* stream = MutableStream(name);
    for (const StreamElement& element : elements) {
      SERAPH_RETURN_IF_ERROR(stream->Append(element.graph,
                                            element.timestamp));
    }
  }
  for (const QueryCheckpoint& q : checkpoint.queries) {
    QueryState* state = queries_.at(q.name).get();
    state->next_eval = q.next_eval;
    state->done = q.done;
    state->disabled = q.disabled;
    state->metrics.disabled->Set(q.disabled ? 1 : 0);
    state->consecutive_failures = q.consecutive_failures;
    state->has_previous = q.has_previous;
    state->previous_result = q.previous_result;
    state->stats = q.stats;
    // Window state stays fresh: the next evaluation re-derives every
    // window from the restored stream (has_last_range is false, so the
    // unchanged-window reuse fast path cannot fire on stale bounds).
    // Latency cursors jump past the restored prefix: those elements'
    // emits happened in the first life (and their arrival stamps are not
    // persisted anyway — latency is a processing-time concern).
    for (auto& [stream_name, cursor] : state->latency_cursors) {
      cursor = FindStreamOrEmpty(stream_name)->size();
    }
    // Delta state is never serialized; the first post-restore evaluation
    // rebuilds the index against the re-derived snapshot.
    if (state->delta != nullptr) state->delta->Invalidate();
  }
  clock_ = checkpoint.clock;
  clock_started_ = checkpoint.clock_started;
  evaluations_run_ = checkpoint.evaluations_run;
  return Status::OK();
}

void ContinuousEngine::SetCheckpointCallback(
    std::function<Status()> callback) {
  checkpoint_callback_ = std::move(callback);
}

Status ContinuousEngine::Drain() {
  Timestamp horizon;
  bool any = false;
  for (const auto& [name, stream] : streams_) {
    if (stream.empty()) continue;
    if (!any || stream.MaxTimestamp() > horizon) {
      horizon = stream.MaxTimestamp();
    }
    any = true;
  }
  if (!any) return Status::OK();
  return AdvanceTo(horizon);
}

namespace {

const char* PolicyName(ReportPolicy policy) {
  switch (policy) {
    case ReportPolicy::kSnapshot:
      return "SNAPSHOT";
    case ReportPolicy::kOnEntering:
      return "ON ENTERING";
    case ReportPolicy::kOnExiting:
      return "ON EXITING";
  }
  return "?";
}

}  // namespace

Status ContinuousEngine::EvaluateAtNoThrow(QueryState* state, Timestamp t,
                                           PendingDelivery* out) {
  // On a worker thread the coordinator only wait()s on the task's future,
  // so an exception escaping EvaluateAt (e.g. std::bad_alloc) would be
  // stored there and silently discarded — leaving statuses[i] OK and a
  // default-constructed (empty) PendingDelivery delivered as a genuine
  // result. Translate exceptions to Status so both the serial and the
  // parallel path treat them as ordinary evaluation failures.
  try {
    return EvaluateAt(state, t, out);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation threw: ") + e.what());
  } catch (...) {
    return Status::Internal("evaluation threw a non-standard exception");
  }
}

Status ContinuousEngine::EvaluateAt(QueryState* state, Timestamp t,
                                    PendingDelivery* out) {
  // Stages 1-3 of the pipeline. May run on a worker thread: everything
  // written here is per-query state (disjoint across a batch), and the
  // shared state it reads (options_, streams_, static_graph_) is frozen
  // during AdvanceTo. Each stage is timed once, by one StageTimer that
  // writes its QueryStats field, its seraph_stage_micros histogram and,
  // while tracing, its span, so the three always agree. When tracing is
  // off the only extra work per stage is the clock read feeding them.
  TraceRecorder* tracer = options_.tracer;
  out->evaluate = StageTimer(tracer, "evaluate", "pipeline");
  StageTimer window(tracer, "window_maintenance", "engine",
                    state->metrics.stage_window, &state->stats.window_micros);
  // Queue-wait's right endpoint, on the *latency* clock (which tests may
  // pin to a ManualClock on a different timebase than the trace clock —
  // both ends of a latency interval must come from the same clock).
  if (options_.latency_stamping) {
    out->latency_eval_start_micros = LatencyClock()->NowMicros();
  }
  ++state->stats.evaluations;
  state->metrics.evaluations->Increment();

  // 1. Identify each window's active interval and element range; advance /
  //    rebuild its snapshot.
  std::map<std::string, const PropertyGraph*> snapshots;
  std::optional<TimeInterval> widest_window;
  bool all_ranges_unchanged = true;
  int64_t snapshot_micros = 0;
  for (auto& [key, ws] : state->windows) {
    std::optional<TimeInterval> window = ws.config.ActiveWindow(t);
    if (!window.has_value()) {
      // Before the first window of this width: match against the empty
      // window ending at t.
      window = TimeInterval{t, t};
    }
    if (key == state->widest_key) widest_window = window;
    // Under kPaperFormal the active window may extend past the evaluation
    // instant; elements there have not causally arrived yet, so the
    // *effective* selection interval is clamped at t (the annotation
    // keeps the full window).
    TimeInterval effective = *window;
    if (t < effective.end) {
      // Clamp to "arrived by t", inclusive of t itself (the +1ms keeps an
      // element arriving exactly at the instant inside the left-closed
      // right-open selection).
      effective.end = Timestamp::FromMillis(t.millis() + 1);
    }
    const PropertyGraphStream* stream = FindStreamOrEmpty(ws.stream);
    // Covered element range, for the reuse check.
    size_t lo, hi;
    {
      Timestamp start = effective.start;
      Timestamp end = effective.end;
      if (ws.config.bounds() == IntervalBounds::kLeftOpenRightClosed) {
        lo = stream->LowerBound(Timestamp::FromMillis(start.millis() + 1));
        hi = stream->LowerBound(Timestamp::FromMillis(end.millis() + 1));
      } else {
        lo = stream->LowerBound(start);
        hi = stream->LowerBound(end);
      }
      hi = std::min(hi, stream->size());
      lo = std::min(lo, hi);
    }
    if (!ws.has_last_range || ws.last_lo != lo || ws.last_hi != hi) {
      all_ranges_unchanged = false;
    }
    ws.last_lo = lo;
    ws.last_hi = hi;
    ws.has_last_range = true;

    StageTimer snap(tracer, "snapshot", "engine", nullptr, &snapshot_micros);
    if (ws.snapshotter != nullptr) {
      SERAPH_RETURN_IF_ERROR(ws.snapshotter->Advance(effective));
      // Churn-proportional repair of the partial-match index from this
      // advance's dirty sets (eligible queries have exactly one window).
      if (state->delta != nullptr) {
        state->delta->ObserveAdvance(*ws.snapshotter);
      }
      snapshots[key] = &ws.snapshotter->graph();
      ++state->stats.snapshots_incremental;
      state->metrics.snapshots_incremental->Increment();
      // Export this advance's maintenance delta (the snapshotter keeps
      // cumulative counts).
      const SnapshotterStats& maint = ws.snapshotter->stats();
      int64_t added = maint.elements_added - ws.last_maint.elements_added;
      int64_t evicted =
          maint.elements_evicted - ws.last_maint.elements_evicted;
      state->stats.window_elements_added += added;
      state->stats.window_elements_evicted += evicted;
      state->metrics.elements_added->Increment(added);
      state->metrics.elements_evicted->Increment(evicted);
      state->metrics.entities_recomputed->Increment(
          maint.entities_recomputed - ws.last_maint.entities_recomputed);
      ws.last_maint = maint;
    } else {
      SERAPH_ASSIGN_OR_RETURN(
          PropertyGraph snapshot,
          BuildSnapshot(*stream, effective, ws.config.bounds()));
      if (static_graph_ != nullptr) {
        PropertyGraph with_base = *static_graph_;
        SERAPH_RETURN_IF_ERROR(MergeInto(&with_base, snapshot));
        snapshot = std::move(with_base);
      }
      ws.rebuilt = std::move(snapshot);
      snapshots[key] = &ws.rebuilt;
      ++state->stats.snapshots_rebuilt;
      state->metrics.snapshots_rebuilt->Increment();
    }
    snap.Stop([&] {
      return TraceArgs{
          {"query", state->query.name},
          {"window", WindowLabel(ws.stream, ws.width)},
          {"mode", ws.snapshotter != nullptr ? "incremental" : "rebuild"}};
    });
  }
  SERAPH_CHECK(widest_window.has_value());
  const PropertyGraph* base = snapshots.at(state->widest_key);

  // The snapshot stage is one sample per evaluation (the sum over its
  // windows); "window" is the interval/range bookkeeping around it.
  state->stats.snapshot_micros += snapshot_micros;
  state->metrics.stage_snapshot->Record(snapshot_micros);
  window.Exclude(snapshot_micros);
  const int64_t window_micros = window.Stop([&] {
    return TraceArgs{{"query", state->query.name}, {"t", t.ToString()}};
  });

  // 2. Evaluate the body at instant t (snapshot reducibility) — or reuse
  //    the previous result when nothing in any window changed and the
  //    query cannot observe the evaluation instant.
  const bool reused = options_.reuse_unchanged_windows &&
                      state->content_deterministic && state->has_previous &&
                      all_ranges_unchanged;
  StageTimer match(tracer, reused ? "reuse" : "match", "engine",
                   state->metrics.stage_match, &state->stats.match_micros);
  Table current;
  ExecutionStats exec_stats;  // Filled by a full execution only.
  if (reused) {
    current = state->previous_result;
    ++state->stats.reused_results;
    state->metrics.reuse_hits->Increment();
  } else {
    WindowGraphResolver resolver(snapshots, base);
    ExecutionOptions exec;
    exec.parameters = options_.parameters;
    exec.now = t;
    exec.window = widest_window;
    exec.optimize_match_order = options_.optimize_match_order;
    // Intra-query morsel parallelism, when the scheduler granted it for
    // this batch (match_par.pool set by AdvanceTo).
    exec.match_parallelism =
        state->match_par.pool != nullptr ? &state->match_par : nullptr;
    // Evaluation deadline: a stack token on the latency clock, checked by
    // the matcher at seed/expansion boundaries. On expiry the evaluation
    // fails with kDeadlineExceeded, which flows through the isolation
    // path below exactly like any other evaluation failure. The
    // "eval.deadline" fault point deterministically simulates an expiry
    // for chaos tests (its kUnavailable is re-coded: a deadline is not
    // transient — retrying a too-slow query at the same instant would
    // just time out again, so it must hit the error budget instead).
    std::optional<CancellationToken> deadline;
    if (options_.eval_deadline_millis > 0) {
      if (FaultInjector::Global().armed()) {
        Status injected = FaultInjector::Global().Fire("eval.deadline");
        if (!injected.ok()) {
          return Status::DeadlineExceeded(
              "evaluation deadline exceeded (injected): " +
              injected.message());
        }
      }
      deadline.emplace(LatencyClock(),
                       LatencyClock()->NowMicros() +
                           options_.eval_deadline_millis * 1000);
      exec.cancellation = &*deadline;
    }
    bool delta_served = false;
    if (state->delta != nullptr) {
      // Delta path: the MATCH-stage output comes from the partial-match
      // index (already repaired in stage 1), so only the projection runs
      // here. Any failure on this path is a normal evaluation failure —
      // no silent fallback within the instant — and additionally
      // invalidates the index (it may be mid-repair).
      IncrementalSnapshotter* snap =
          state->windows.begin()->second.snapshotter.get();
      StageTimer delta(tracer, "delta", "engine");
      const bool rebuilt = !state->delta->valid();
      Status delta_status =
          rebuilt ? state->delta->Build(*base, snap->stats().advances, exec)
                  : Status::OK();
      if (delta_status.ok() && rebuilt) {
        state->metrics.delta_rebuilds->Increment();
      }
      if (delta_status.ok()) {
        auto matched = state->delta->Emit(*base, exec);
        if (matched.ok()) {
          SingleQuery single;  // Empty clauses: projection only.
          single.ret.body = std::move(state->query.projection);
          auto result = ExecuteSingleQuery(single, resolver,
                                           std::move(matched).value(), exec);
          state->query.projection = std::move(single.ret.body);
          if (!result.ok()) {
            state->delta->Invalidate();
            return result.status();
          }
          current = std::move(result).value();
          delta_served = true;
          state->metrics.delta_hits->Increment();
          state->metrics.delta_entries->Set(
              static_cast<int64_t>(state->delta->size()));
          delta.Stop([&] {
            return TraceArgs{
                {"query", state->query.name},
                {"mode", rebuilt ? "rebuild" : "incremental"},
                {"entries", std::to_string(state->delta->size())}};
          });
        } else {
          delta_status = matched.status();
        }
      }
      if (!delta_status.ok()) {
        state->delta->Invalidate();
        return delta_status;
      }
    }
    if (!delta_served) {
      // Full execution. Counted as a delta fallback when delta matching
      // is on but could not serve this query (ineligible shape).
      if (options_.delta_matching) {
        state->metrics.delta_fallbacks->Increment();
      }
      // Share the clause/projection structures without copying expression
      // trees: move them into a temporary SingleQuery and back (the
      // executor only reads).
      SingleQuery single;
      single.clauses = std::move(state->query.clauses);
      single.ret.body = std::move(state->query.projection);
      auto result = ExecuteSingleQuery(single, resolver, Table::Unit(), exec,
                                       &exec_stats);
      state->metrics.match_pruned->Increment(exec_stats.pruned);
      state->query.clauses = std::move(single.clauses);
      state->query.projection = std::move(single.ret.body);
      if (!result.ok()) return result.status();
      current = std::move(result).value();
    }
    // Delta and full executions keep identical persisted stats, so a
    // checkpoint replay is byte-exact regardless of which path ran.
    ++state->stats.fresh_executions;
    state->metrics.reuse_misses->Increment();
    state->metrics.match_rows->Increment(
        static_cast<int64_t>(current.size()));
  }
  state->stats.result_rows += static_cast<int64_t>(current.size());

  const int64_t match_micros = match.Stop([&] {
    TraceArgs args = {{"query", state->query.name},
                      {"rows", std::to_string(current.size())}};
    if (!reused) {
      args.emplace_back("pushdown", exec_stats.pushdown ? "1" : "0");
    }
    return args;
  });

  // 3. Apply the report policy.
  StageTimer policy(tracer, "policy", "engine", state->metrics.stage_policy,
                    &state->stats.policy_micros);
  Table reported;
  switch (state->query.policy) {
    case ReportPolicy::kSnapshot:
      reported = current;
      break;
    case ReportPolicy::kOnEntering:
      reported = state->has_previous
                     ? Table::BagDifference(current, state->previous_result)
                     : current;
      break;
    case ReportPolicy::kOnExiting:
      reported = state->has_previous
                     ? Table::BagDifference(state->previous_result, current)
                     : Table(current.fields());
      break;
  }
  state->previous_result = std::move(current);
  state->has_previous = true;
  state->stats.rows_emitted += static_cast<int64_t>(reported.size());
  state->metrics.rows_emitted->Increment(
      static_cast<int64_t>(reported.size()));

  const int64_t policy_micros = policy.Stop([&] {
    return TraceArgs{{"query", state->query.name},
                     {"policy", PolicyName(state->query.policy)}};
  });

  // Stage 4 (sink delivery) happens on the coordinator: hand the
  // time-annotated table back for FinishDelivery.
  out->annotated = TimeAnnotatedTable{std::move(reported), *widest_window};
  out->stage_micros =
      window_micros + snapshot_micros + match_micros + policy_micros;
  return Status::OK();
}

void ContinuousEngine::FinishDelivery(QueryState* state, Timestamp t,
                                      PendingDelivery&& out) {
  // The sink stage is timed as its own interval rather than "since the
  // policy stage ended": under parallel evaluation there is a scheduling
  // gap between a worker finishing stage 3 and the coordinator getting
  // here, and that gap is not sink time.
  StageTimer sink(options_.tracer, "sink", "engine",
                  state->metrics.stage_sink, &state->stats.sink_micros);
  // Sink failures are isolated inside SinkSet::Deliver (retry →
  // dead-letter → quarantine) and never fail the evaluation.
  sinks_.Deliver(state->query.name, t, out.annotated, options_.dead_letter);
  const int64_t sink_micros = sink.Stop([&] {
    return TraceArgs{{"query", state->query.name},
                     {"sinks", std::to_string(sinks_.size())}};
  });
  // The 'evaluate' span must enclose its 'sink' child, so it stops here:
  // the worker-to-coordinator scheduling gap sits *inside* the span
  // (visible as the space between the policy and sink children), while
  // seraph_query_eval_micros, the sum of the stage times, excludes it.
  out.evaluate.Stop([&] {
    return TraceArgs{{"query", state->query.name}, {"t", t.ToString()}};
  });
  state->metrics.eval_total->Record(out.stage_micros + sink_micros);
  if (options_.latency_stamping) RecordEmitLatency(state, t, out);
}

void ContinuousEngine::RecordEmitLatency(QueryState* state, Timestamp t,
                                         const PendingDelivery& out) {
  // Coordinator-only (single-writer histogram contract). Every element
  // with timestamp <= t is now covered by this query's delivered result;
  // charge arrival→now once per element, per query. Elements covered by
  // instants whose evaluation *failed* were not advanced past (failures
  // skip FinishDelivery), so their latency lands on the next successful
  // emit — truthfully including the failed attempts' delay.
  const int64_t now = LatencyClock()->NowMicros();
  for (auto& [stream_name, cursor] : state->latency_cursors) {
    const std::vector<StreamElement>& elements =
        FindStreamOrEmpty(stream_name)->elements();
    while (cursor < elements.size() && elements[cursor].timestamp <= t) {
      const StreamElement& element = elements[cursor];
      ++cursor;
      if (element.arrival_micros <= 0) continue;  // Unstamped (restored).
      int64_t latency = now - element.arrival_micros;
      if (latency < 0) latency = 0;
      state->metrics.emit_latency->Record(latency);
      fleet_emit_latency_->Record(latency);
      int64_t queue_wait =
          out.latency_eval_start_micros - element.arrival_micros;
      if (queue_wait < 0) queue_wait = 0;
      state->metrics.lat_queue->Record(queue_wait);
    }
  }
}

void ContinuousEngine::HandleEvalFailure(QueryState* state, Timestamp t,
                                         Status error) {
  // The failed evaluation already recorded its windows' element ranges
  // (EvaluateAt updates last_lo/last_hi before the match stage) but never
  // produced a result. If the ranges stayed frozen, the next instant's
  // unchanged-window check would pass and the reuse path would emit
  // previous_result — a table from the last *successful* evaluation over
  // different window content — and, since reuse skips execution, a
  // content-deterministic error would never re-fire (so the error budget
  // could never trip). Invalidate the precondition: the next instant must
  // re-execute.
  for (auto& [key, ws] : state->windows) ws.has_last_range = false;
  // Same reasoning for the partial-match index: the failed evaluation may
  // have left it mid-repair, and stage 1 already consumed this advance's
  // dirty sets — rebuild from scratch next time.
  if (state->delta != nullptr) state->delta->Invalidate();
  ++state->stats.eval_failures;
  state->metrics.eval_failures->Increment();
  SERAPH_LOG(WARNING) << "evaluation of query '" << state->query.name
                      << "' at " << t.ToString()
                      << " failed: " << error.ToString();
  if (options_.dead_letter != nullptr) {
    options_.dead_letter->AddEvaluationFailure(state->query.name, t, error);
  }
  state->stats.last_error = std::move(error);
  ++state->consecutive_failures;
  if (options_.query_error_budget > 0 && !state->disabled &&
      state->consecutive_failures >= options_.query_error_budget) {
    state->disabled = true;
    state->metrics.disabled->Set(1);
    SERAPH_LOG(ERROR) << "query '" << state->query.name
                      << "' disabled after " << state->consecutive_failures
                      << " consecutive evaluation failures; ReviveQuery() "
                         "re-enables it";
  }
}

namespace {

int ThreadsFromEnvVar(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 0 ||
      value > ThreadPool::kMaxThreads) {
    return fallback;
  }
  return static_cast<int>(value);
}

}  // namespace

int EvalThreadsFromEnv(int fallback) {
  return ThreadsFromEnvVar("SERAPH_EVAL_THREADS", fallback);
}

int MatchThreadsFromEnv(int fallback) {
  return ThreadsFromEnvVar("SERAPH_MATCH_THREADS", fallback);
}

}  // namespace seraph
