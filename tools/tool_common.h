// The layer the tools in tools/ share (seraph_run, latency_harness,
// seraph_serve). All three drive a shard::ShardedEngine fleet; this file
// holds what they have in common:
//
//  * one table-driven flag parser. Each flag is declared once, with its
//    range, help line and optional environment mirror, and the usage text
//    is generated from the table. Every tool's table is built here, next
//    to the options struct it fills, so tests/tool_options_test.cc can
//    check the tables without starting a tool;
//  * the fleet wiring: the live HTTP endpoint (/metrics, /queries,
//    /shards/<i>/metrics, /healthz) and the one-line stats reporter;
//  * small helpers (Fail, ParseInt64, ReadFile).
#ifndef SERAPH_TOOLS_TOOL_COMMON_H_
#define SERAPH_TOOLS_TOOL_COMMON_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "server/metrics_server.h"
#include "shard/sharded_engine.h"
#include "stream/overflow_policy.h"

namespace seraph {
namespace tool {

// Prints "<tool>: <message>" to stderr and returns the exit code 1.
int Fail(const std::string& tool, const std::string& message);

// Parses all of `text` as a base-10 integer: false on empty input,
// trailing characters, or a value outside int64_t.
bool ParseInt64(const std::string& text, int64_t* out);

Result<std::string> ReadFile(const std::string& path);

// ---- Flags ----

// One command-line flag: --<name>=<value>, or a bare --<name> switch
// when `value` is empty. When the flag is absent and `env` is set, the
// environment variable of that name supplies the value under the same
// parser and range (flag beats environment beats default).
struct Flag {
  std::string name;
  std::string value;  // Usage placeholder ("n", "path"); "" = switch.
  std::string help;
  const char* env = nullptr;
  // Parses and stores one value; the error says what the flag expects.
  std::function<Status(const std::string&)> set;
};

class FlagTable {
 public:
  // `synopsis` follows the tool name on the usage line ("<in> [flags]").
  FlagTable(std::string tool, std::string synopsis, std::vector<Flag> flags,
            bool takes_positional = false);

  // Applies the environment mirrors, then `args` (argv without argv[0]).
  // "--help"/"-h" set *help and stop. A bare argument is positional when
  // the table takes positionals, an error otherwise.
  Status Parse(const std::vector<std::string>& args,
               std::vector<std::string>* positional, bool* help) const;

  std::string Usage() const;

  // For main(): std::nullopt when the tool should run; otherwise the exit
  // code, after printing the usage (--help) or the error.
  std::optional<int> ParseMain(int argc, char** argv,
                               std::vector<std::string>* positional) const;

 private:
  std::string tool_;
  std::string synopsis_;
  std::vector<Flag> flags_;
  bool takes_positional_;
};

// Each tool's options; `fleet` is filled by the fleet flags the tool
// offers and handed to shard::ShardedEngine as is.
struct RunOptions {
  RunOptions() { fleet.checkpoint_every = 1; }
  shard::ShardedEngineOptions fleet;
  bool csv = false;
  bool json = false;
  bool stats = false;
  bool explain = false;
  bool restore = false;
  bool inspect_checkpoint = false;
  std::string metrics_path;
  std::string trace_path;
  std::string dead_letter_path;
  int64_t progress = 0;
  int64_t metrics_port = -1;  // -1 = endpoint off; 0 = ephemeral port.
  int64_t stats_interval = 0;
};
FlagTable RunFlags(RunOptions* options);

struct HarnessOptions {
  shard::ShardedEngineOptions fleet;
  int64_t rate = 2000;  // Events per second.
  int64_t duration_sec = 5;
  int64_t queries = 1;
  std::string out = "BENCH_latency.json";
  int64_t metrics_port = -1;
  int64_t stats_interval = 0;
};
FlagTable HarnessFlags(HarnessOptions* options);

struct ServeOptions {
  ServeOptions() { fleet.checkpoint_every = 1; }
  shard::ShardedEngineOptions fleet;
  int64_t port = 0;
  std::vector<std::string> query_files;
  int64_t io_timeout_ms = 5000;
  int64_t long_poll_ms = 10000;
  int64_t max_runtime_sec = 0;  // 0 = until SIGINT/SIGTERM.
};
FlagTable ServeFlags(ServeOptions* options);

// ---- Fleet wiring ----

// Prometheus text of a fleet: the coordinator registry, followed on a
// one-shard fleet by that shard's engine registry. A larger fleet serves
// its shard registries separately, at /shards/<i>/metrics.
std::string FleetMetricsText(const shard::ShardedEngine& fleet);

// A fleet's health read from registry instruments only, which is safe
// while the fleet runs.
struct FleetView {
  int64_t delivered = 0;     // Elements lanes delivered into shard engines.
  int64_t released = 0;      // Merged emissions released to sinks.
  HistogramSnapshot latency;  // seraph_engine_emit_latency_micros, merged.
  int64_t max_lag_ms = 0;    // Largest default-stream lag of any shard.
  int64_t dead_letters = 0;  // Dead-letter depth over all shards.
};
FleetView ViewFleet(const shard::ShardedEngine& fleet);
// "delivered=… out=… p99_emit_us=… max_lag_ms=… dlq=…".
std::string StatusLine(const shard::ShardedEngine& fleet);

// The live endpoint of a tool driving `fleet`: GET /metrics
// (FleetMetricsText), /shards/<i>/metrics, /healthz, and /queries, which
// serves the document last published with PublishQueries() (first at
// construction).
class FleetEndpoint {
 public:
  FleetEndpoint(const shard::ShardedEngine* fleet,
                MetricsServer::Options options);
  // The server thread holds `this`.
  FleetEndpoint(const FleetEndpoint&) = delete;
  FleetEndpoint& operator=(const FleetEndpoint&) = delete;

  // Register extra handlers here before Start().
  MetricsServer& server() { return server_; }
  Status Start() { return server_.Start(); }

  // Refreshes /queries. Call where the fleet is quiescent: the query
  // registry it walks is not safe to read while the fleet is pumped.
  void PublishQueries();

 private:
  const shard::ShardedEngine* fleet_;
  std::mutex mutex_;
  std::string queries_json_ = "[]";
  MetricsServer server_;
};

// Prints "[<tool>] <StatusLine>" to stderr every `interval_sec` seconds
// from a background thread, until the returned thread is stopped (its
// destructor or request_stop()). interval_sec == 0 starts nothing.
std::jthread ReportEvery(const shard::ShardedEngine* fleet, std::string tool,
                         int64_t interval_sec);

}  // namespace tool
}  // namespace seraph

#endif  // SERAPH_TOOLS_TOOL_COMMON_H_
