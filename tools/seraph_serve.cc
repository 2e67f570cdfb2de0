// seraph_serve — the sharded serving front-end: N per-shard engines
// behind one HTTP endpoint (docs/INTERNALS.md, "Sharded serving tier").
//
//   seraph_serve [flags]    (--help lists them)
//
// HTTP API (loopback only; one request per connection):
//   POST /queries            REGISTER QUERY text in the body → {"name",
//                            "shards"}: the placement its streams imply.
//   POST /ingest             JSON lines {"t_ms": <int>, "graph": "<graph
//                            text of io/graph_text.h>"}, routed through
//                            the partitioners, pumped and merged → {
//                            "ingested", "deliveries", "watermark_ms"}.
//   GET  /queries/<q>/results?after=<seq>
//                            Long-poll for merged emissions of <q> past
//                            seq; 204 after --long-poll-ms without any.
//   POST /queries/<q>/revive Re-enable a disabled query.
//   GET  /queries            Per-query status JSON (with shard sets).
//   GET  /metrics            Coordinator registry (fleet watermark,
//                            shard health, router and merge counters),
//                            plus the engine registry on one shard.
//   GET  /shards/<i>/metrics Shard i's engine registry.
//   GET  /healthz            Liveness.
//
// With --checkpoint-dir the fleet checkpoints each shard at its own batch
// barrier (cadence --checkpoint-every) and auto-restores on startup;
// queries preloaded with --queries (one REGISTER QUERY statement per
// file) are re-registered before the restore, which is what makes their
// checkpointed state recoverable. All fleet access runs on the server
// thread, so requests are serialized; the poll loop keeps slow clients
// from wedging the line (tests/metrics_server_test.cc).
#include <csignal>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/graph_text.h"
#include "io/json.h"
#include "tool_common.h"

namespace {

using namespace seraph;

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Fail(const std::string& message) {
  return tool::Fail("seraph_serve", message);
}

// One merged emission retained for long-polling clients.
struct BufferedResult {
  int64_t seq = 0;
  int64_t t_ms = 0;
  std::string json;  // io::ToJson(table): {"win_start","win_end","rows"}.
};

// The /results source: a sink buffering merged fleet output per query.
// Runs on the server thread (the fleet is pumped from request handlers),
// so no locking is needed beyond the tool's single fleet mutex.
class ResultBuffer final : public EmitSink {
 public:
  explicit ResultBuffer(size_t per_query_cap) : cap_(per_query_cap) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    std::deque<BufferedResult>& results = per_query_[query_name];
    results.push_back(BufferedResult{++last_seq_, evaluation_time.millis(),
                                     io::ToJson(table)});
    while (results.size() > cap_) results.pop_front();
    return Status::OK();
  }

  // The buffered results of `query`; nullptr when it never emitted.
  const std::deque<BufferedResult>* ResultsFor(
      const std::string& query) const {
    auto it = per_query_.find(query);
    return it == per_query_.end() ? nullptr : &it->second;
  }

 private:
  size_t cap_;
  int64_t last_seq_ = 0;
  std::map<std::string, std::deque<BufferedResult>> per_query_;
};

// "after=3&x=y" → 3 (0 when absent or malformed).
int64_t AfterFromQuery(const std::string& query) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.rfind("after=", 0) != 0) continue;
    int64_t after = 0;
    if (tool::ParseInt64(pair.substr(6), &after) && after >= 0) {
      return after;
    }
  }
  return 0;
}

HttpReply JsonReply(int code, const char* reason, std::string body) {
  return HttpReply{code, reason, "application/json", std::move(body)};
}

HttpReply ErrorReply(int code, const char* reason,
                     const std::string& message) {
  return JsonReply(code, reason,
                   "{\"error\":\"" + EscapeJsonString(message) + "\"}\n");
}

std::string PlacementJson(const shard::QueryPlacement& placement) {
  std::string out =
      "{\"name\":\"" + EscapeJsonString(placement.name) + "\",\"shards\":[";
  for (size_t i = 0; i < placement.shards.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(placement.shards[i]);
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tool::ServeOptions opt;
  if (auto exit = tool::ServeFlags(&opt).ParseMain(argc, argv, nullptr)) {
    return *exit;
  }
  const std::string& checkpoint_dir = opt.fleet.checkpoint_dir;
  shard::ShardedEngine fleet(opt.fleet);

  ResultBuffer results(/*per_query_cap=*/1024);
  fleet.AddSink(&results);

  // Preloaded queries must be registered before Restore() so their
  // checkpointed state has definitions to land on.
  for (const std::string& path : opt.query_files) {
    auto text = tool::ReadFile(path);
    if (!text.ok()) return Fail(text.status().ToString());
    auto placement = fleet.RegisterText(*text);
    if (!placement.ok()) {
      return Fail("register '" + path + "': " +
                  placement.status().ToString());
    }
    std::cerr << "[seraph_serve] registered '" << placement->name
              << "' on " << placement->shards.size() << " shard(s)\n";
  }
  if (!checkpoint_dir.empty()) {
    if (Status s = fleet.Restore(); !s.ok()) return Fail(s.ToString());
    std::cerr << "[seraph_serve] restored fleet state from '"
              << checkpoint_dir << "' (watermark "
              << fleet.FleetWatermarkMillis() << " ms)\n";
  }

  // One mutex serializes every handler's fleet access. Handlers run on
  // the server thread; the main thread takes the lock only for the final
  // drain at shutdown.
  std::mutex fleet_mutex;

  MetricsServer::Options server_options;
  server_options.port = static_cast<int>(opt.port);
  server_options.io_timeout_millis = static_cast<int>(opt.io_timeout_ms);
  server_options.long_poll_timeout_millis =
      static_cast<int>(opt.long_poll_ms);
  // GET /metrics, /shards/<i>/metrics, /healthz, and /queries, which
  // every handler that changes query state republishes.
  tool::FleetEndpoint endpoint(&fleet, server_options);
  MetricsServer& server = endpoint.server();

  // POST /queries (register) and POST /queries/<q>/revive share the
  // method+prefix, so one handler dispatches on the path shape.
  server.Handle("POST", "/queries", [&](const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    std::lock_guard<std::mutex> lock(fleet_mutex);
    if (request.path == "/queries") {
      auto placement = fleet.RegisterText(request.body);
      if (!placement.ok()) {
        const int code =
            placement.status().code() == StatusCode::kAlreadyExists ? 409
                                                                    : 400;
        return ErrorReply(code, code == 409 ? "Conflict" : "Bad Request",
                          placement.status().ToString());
      }
      endpoint.PublishQueries();
      return JsonReply(200, "OK", PlacementJson(*placement));
    }
    const std::string revive_suffix = "/revive";
    if (request.path.size() > 9 + revive_suffix.size() &&
        request.path.compare(request.path.size() - revive_suffix.size(),
                             revive_suffix.size(), revive_suffix) == 0) {
      const std::string name = request.path.substr(
          9, request.path.size() - 9 - revive_suffix.size());
      if (Status s = fleet.ReviveQuery(name); !s.ok()) {
        return ErrorReply(404, "Not Found", s.ToString());
      }
      endpoint.PublishQueries();
      return JsonReply(200, "OK",
                       "{\"revived\":\"" + EscapeJsonString(name) + "\"}\n");
    }
    return ErrorReply(404, "Not Found",
                      "unknown POST path '" + request.path + "'");
  });

  server.Handle("POST", "/ingest", [&](const HttpRequest& request)
                                       -> std::optional<HttpReply> {
    std::lock_guard<std::mutex> lock(fleet_mutex);
    int64_t ingested = 0;
    int64_t deliveries = 0;
    std::istringstream lines(request.body);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      const HttpReply malformed = ErrorReply(
          400, "Bad Request",
          "line " + std::to_string(line_no) +
              ": expected {\"t_ms\": <int>, \"graph\": <graph text>}");
      auto doc = io::ParseJson(line);
      if (!doc.ok() || !doc->is_map()) return malformed;
      const Value::Map& fields = doc->AsMap();
      auto t_it = fields.find("t_ms");
      auto g_it = fields.find("graph");
      if (t_it == fields.end() || !t_it->second.is_int() ||
          g_it == fields.end() || !g_it->second.is_string()) {
        return malformed;
      }
      auto graph = io::DecodeGraph(g_it->second.AsString());
      if (!graph.ok()) {
        return ErrorReply(400, "Bad Request",
                          "line " + std::to_string(line_no) + ": " +
                              graph.status().ToString());
      }
      auto delivered = fleet.Ingest(
          std::move(graph).value(),
          Timestamp::FromMillis(t_it->second.AsInt()));
      if (!delivered.ok()) {
        const int code =
            delivered.status().code() == StatusCode::kOutOfRange ? 409 : 500;
        return ErrorReply(code,
                          code == 409 ? "Conflict" : "Internal Server Error",
                          "line " + std::to_string(line_no) + ": " +
                              delivered.status().ToString());
      }
      ++ingested;
      deliveries += *delivered;
    }
    if (Status s = fleet.PumpAll(); !s.ok()) {
      return ErrorReply(500, "Internal Server Error", s.ToString());
    }
    endpoint.PublishQueries();
    return JsonReply(
        200, "OK",
        "{\"ingested\":" + std::to_string(ingested) +
            ",\"deliveries\":" + std::to_string(deliveries) +
            ",\"watermark_ms\":" +
            std::to_string(fleet.FleetWatermarkMillis()) + "}\n");
  });

  // GET /queries/<q>/results?after=<seq> — long-poll until new merged
  // emissions arrive (nullopt parks the connection; the serve loop keeps
  // re-invoking until data shows up or --long-poll-ms expires → 204).
  server.Handle("GET", "/queries/", [&](const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    const std::string results_suffix = "/results";
    if (request.path.size() <= 9 + results_suffix.size() ||
        request.path.compare(request.path.size() - results_suffix.size(),
                             results_suffix.size(), results_suffix) != 0) {
      return ErrorReply(404, "Not Found",
                        "unknown GET path '" + request.path + "'");
    }
    const std::string name = request.path.substr(
        9, request.path.size() - 9 - results_suffix.size());
    const int64_t after = AfterFromQuery(request.query);
    std::lock_guard<std::mutex> lock(fleet_mutex);
    if (!fleet.PlacementFor(name).ok()) {
      return ErrorReply(404, "Not Found", "unknown query '" + name + "'");
    }
    const std::deque<BufferedResult>* buffered = results.ResultsFor(name);
    bool any = false;
    std::string body = "{\"query\":\"" + EscapeJsonString(name) +
                       "\",\"results\":[";
    int64_t last_seq = after;
    if (buffered != nullptr) {
      for (const BufferedResult& entry : *buffered) {
        if (entry.seq <= after) continue;
        if (any) body += ",";
        any = true;
        body += "{\"seq\":" + std::to_string(entry.seq) +
                ",\"t_ms\":" + std::to_string(entry.t_ms) +
                ",\"result\":" + entry.json + "}";
        last_seq = entry.seq;
      }
    }
    if (!any) return std::nullopt;  // Park: nothing past `after` yet.
    body += "],\"last_seq\":" + std::to_string(last_seq) + "}\n";
    return JsonReply(200, "OK", body);
  });

  if (Status s = server.Start(); !s.ok()) return Fail(s.ToString());
  std::cerr << "[seraph_serve] serving " << fleet.num_shards()
            << " shard(s) on http://127.0.0.1:" << server.port()
            << " (POST /queries, POST /ingest, GET "
               "/queries/<q>/results, GET /metrics)\n";

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (opt.max_runtime_sec > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(opt.max_runtime_sec)) {
      break;
    }
  }

  server.Stop();
  {
    std::lock_guard<std::mutex> lock(fleet_mutex);
    if (Status s = fleet.Finish(); !s.ok()) {
      std::cerr << "[seraph_serve] final drain: " << s.ToString() << "\n";
    }
    if (!checkpoint_dir.empty()) {
      if (Status s = fleet.Checkpoint(); !s.ok()) {
        std::cerr << "[seraph_serve] final checkpoint: " << s.ToString()
                  << "\n";
      }
    }
  }
  std::cerr << "[seraph_serve] served " << server.requests_served()
            << " request(s), released " << fleet.released_total()
            << " merged emission(s)\n";
  return 0;
}
