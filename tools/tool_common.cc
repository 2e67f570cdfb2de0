#include "tool_common.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/thread_pool.h"

namespace seraph {
namespace tool {

namespace {

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

std::string RangeText(int64_t min, int64_t max) {
  return "[" + std::to_string(min) + ".." +
         (max == kMaxInt64 ? std::string() : std::to_string(max)) + "]";
}

Flag Switch(std::string name, bool* out, std::string help) {
  return Flag{std::move(name), "", std::move(help), nullptr,
              [out](const std::string&) {
                *out = true;
                return Status::OK();
              }};
}

// An integer flag confined to [min, max] (which must fit T).
template <typename T>
Flag Int(std::string name, std::string value, T* out, int64_t min,
         int64_t max, std::string help, const char* env = nullptr) {
  help += " " + RangeText(min, max);
  return Flag{std::move(name), std::move(value), std::move(help), env,
              [out, min, max](const std::string& text) {
                int64_t parsed = 0;
                if (!ParseInt64(text, &parsed) || parsed < min ||
                    parsed > max) {
                  return Status::InvalidArgument(
                      "expects an integer in " + RangeText(min, max) +
                      ", got '" + text + "'");
                }
                *out = static_cast<T>(parsed);
                return Status::OK();
              }};
}

// A non-empty string.
Flag Text(std::string name, std::string value, std::string* out,
          std::string help) {
  return Flag{std::move(name), std::move(value), std::move(help), nullptr,
              [out](const std::string& text) {
                if (text.empty()) {
                  return Status::InvalidArgument("expects a non-empty value");
                }
                *out = text;
                return Status::OK();
              }};
}

// A tool's own flags followed by the fleet flags it names, in that order.
// Every fleet flag is declared once, here.
std::vector<Flag> WithFleetFlags(std::vector<Flag> flags,
                                 shard::ShardedEngineOptions* f,
                                 std::initializer_list<const char*> names) {
  const std::vector<Flag> all = {
      Int("shards", "n", &f->shards, 1, 1024, "fleet shard count"),
      Int("threads", "n", &f->engine.eval_threads, 0, ThreadPool::kMaxThreads,
          "evaluation workers per shard (0 = one per hardware thread)",
          "SERAPH_EVAL_THREADS"),
      Int("match-threads", "n", &f->engine.match_threads, 0,
          ThreadPool::kMaxThreads,
          "intra-query matching workers (0 = one per hardware thread)",
          "SERAPH_MATCH_THREADS"),
      Int("eval-deadline-ms", "n", &f->engine.eval_deadline_millis, 0,
          kMaxInt64, "cooperative per-evaluation deadline (0 = off)"),
      Int("queue-capacity", "n", &f->queue.capacity, 1, kMaxInt64,
          "bound each ingest lane's queue (default unbounded)"),
      Flag{"overflow-policy", "block|reject|shed_oldest",
           "what a full lane queue does to the producer (default block)",
           nullptr,
           [f](const std::string& text) {
             return ParseOverflowPolicy(text, &f->queue.overflow_policy)
                        ? Status::OK()
                        : Status::InvalidArgument(
                              "expects block, reject, or shed_oldest");
           }},
      Int("shed-lag-ms", "n", &f->shed_lag_millis, 0, kMaxInt64,
          "lane drivers' degraded-mode lag threshold (0 = off)"),
      Text("checkpoint-dir", "dir", &f->checkpoint_dir,
           "durability root: per-shard checkpoints + ingest logs"),
      Int("checkpoint-every", "n", &f->checkpoint_every, 1, kMaxInt64,
          "checkpoint cadence in evaluation batches (default 1)"),
  };
  for (const char* name : names) {
    for (const Flag& flag : all) {
      if (flag.name == name) flags.push_back(flag);
    }
  }
  return flags;
}

Flag MetricsPortFlag(int64_t* port) {
  return Int("metrics-port", "p", port, 0, 65535,
             "serve /metrics, /queries, /shards/<i>/metrics, /healthz on "
             "127.0.0.1 (0 = ephemeral)");
}
Flag StatsIntervalFlag(int64_t* seconds) {
  return Int("stats-interval", "sec", seconds, 1, 86400,
             "print a one-line fleet status every <sec> seconds");
}

}  // namespace

int Fail(const std::string& tool, const std::string& message) {
  std::cerr << tool << ": " << message << "\n";
  return 1;
}

bool ParseInt64(const std::string& text, int64_t* out) {
  // strtoll alone would also take leading blanks and a '+'.
  if (text.find_first_not_of("-0123456789") != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

FlagTable::FlagTable(std::string tool, std::string synopsis,
                     std::vector<Flag> flags, bool takes_positional)
    : tool_(std::move(tool)),
      synopsis_(std::move(synopsis)),
      flags_(std::move(flags)),
      takes_positional_(takes_positional) {}

Status FlagTable::Parse(const std::vector<std::string>& args,
                        std::vector<std::string>* positional,
                        bool* help) const {
  *help = false;
  for (const Flag& flag : flags_) {
    if (flag.env == nullptr) continue;
    const char* raw = std::getenv(flag.env);
    if (raw == nullptr || *raw == '\0') continue;
    if (Status s = flag.set(raw); !s.ok()) {
      return Status::InvalidArgument(std::string(flag.env) + " (mirror of --" +
                                     flag.name + ") " + s.message());
    }
  }
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return Status::OK();
    }
    if (arg.rfind("--", 0) != 0) {
      if (!takes_positional_) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      positional->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == name) flag = &candidate;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (flag->value.empty() != (eq == std::string::npos)) {
      return Status::InvalidArgument(
          flag->value.empty() ? "--" + name + " takes no value"
                              : "--" + name + " expects --" + name + "=<" +
                                    flag->value + ">");
    }
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (Status s = flag->set(value); !s.ok()) {
      return Status::InvalidArgument("--" + name + " " + s.message());
    }
  }
  return Status::OK();
}

std::string FlagTable::Usage() const {
  std::string out = "usage: " + tool_ + " " + synopsis_ + "\nflags:\n";
  for (const Flag& flag : flags_) {
    std::string left = "  --" + flag.name;
    if (!flag.value.empty()) left += "=<" + flag.value + ">";
    // Help text starts in column 28, on the next line for long flags.
    out += left + (left.size() < 28 ? std::string(28 - left.size(), ' ')
                                    : "\n" + std::string(28, ' '));
    out += flag.help;
    if (flag.env != nullptr) out += " (env " + std::string(flag.env) + ")";
    out += "\n";
  }
  return out;
}

std::optional<int> FlagTable::ParseMain(
    int argc, char** argv, std::vector<std::string>* positional) const {
  bool help = false;
  Status status = Parse(std::vector<std::string>(argv + 1, argv + argc),
                        positional, &help);
  if (!status.ok()) return Fail(tool_, status.message() + " (see --help)");
  if (help) {
    std::cout << Usage();
    return 0;
  }
  return std::nullopt;
}

FlagTable RunFlags(RunOptions* o) {
  return FlagTable(
      "seraph_run",
      "<query.seraph> <events.log> [flags]\n"
      "       seraph_run --inspect-checkpoint --checkpoint-dir=<dir>",
      WithFleetFlags(
          {
              Switch("csv", &o->csv, "print results as CSV"),
              Switch("json", &o->json, "print results as JSON lines"),
              Switch("stats", &o->stats, "report query counters at the end"),
              Switch("explain", &o->explain, "print the parsed query"),
              Text("metrics", "path|-", &o->metrics_path,
                   "dump Prometheus metrics after the run (- = stdout)"),
              Text("trace", "path", &o->trace_path,
                   "write a Chrome trace-event JSON file"),
              Int("progress", "n", &o->progress, 1, kMaxInt64,
                  "pump and print the fleet status every n events"),
              Text("dead-letter", "path", &o->dead_letter_path,
                   "write dead-lettered entries as JSON lines"),
              Switch("restore", &o->restore,
                     "resume the run stored in --checkpoint-dir"),
              Switch("inspect-checkpoint", &o->inspect_checkpoint,
                     "summarize --checkpoint-dir's generations and exit"),
              MetricsPortFlag(&o->metrics_port),
              StatsIntervalFlag(&o->stats_interval),
          },
          &o->fleet,
          {"threads", "match-threads", "checkpoint-dir", "checkpoint-every",
           "queue-capacity", "overflow-policy", "eval-deadline-ms",
           "shed-lag-ms"}),
      /*takes_positional=*/true);
}

FlagTable HarnessFlags(HarnessOptions* o) {
  return FlagTable(
      "latency_harness", "[flags]",
      WithFleetFlags(
          {
              Int("rate", "events/sec", &o->rate, 1, 10000000,
                  "target production rate (default 2000)"),
              Int("duration-sec", "n", &o->duration_sec, 1, 86400,
                  "sustained production window (default 5)"),
              Int("queries", "n", &o->queries, 1, 100000,
                  "identical sliding-window queries (default 1)"),
              Text("out", "path", &o->out,
                   "JSON report (default BENCH_latency.json)"),
              MetricsPortFlag(&o->metrics_port),
              StatsIntervalFlag(&o->stats_interval),
          },
          &o->fleet,
          {"shards", "queue-capacity", "overflow-policy", "shed-lag-ms"}));
}

FlagTable ServeFlags(ServeOptions* o) {
  return FlagTable(
      "seraph_serve", "[flags]",
      WithFleetFlags(
          {
              Int("port", "p", &o->port, 0, 65535,
                  "HTTP port on 127.0.0.1 (0 = ephemeral)"),
              Flag{"queries", "file",
                   "preload one REGISTER QUERY file (repeatable)", nullptr,
                   [o](const std::string& path) {
                     if (path.empty()) {
                       return Status::InvalidArgument("expects a file path");
                     }
                     o->query_files.push_back(path);
                     return Status::OK();
                   }},
              Int("io-timeout-ms", "n", &o->io_timeout_ms, 1, kMaxInt,
                  "per-connection IO budget"),
              Int("long-poll-ms", "n", &o->long_poll_ms, 1, kMaxInt,
                  "long-poll budget before 204"),
              Int("max-runtime-sec", "n", &o->max_runtime_sec, 0, kMaxInt64,
                  "stop after n seconds (0 = until signalled)"),
          },
          &o->fleet,
          {"shards", "checkpoint-dir", "checkpoint-every", "queue-capacity",
           "overflow-policy", "threads", "match-threads"}));
}

std::string FleetMetricsText(const shard::ShardedEngine& fleet) {
  std::string text = fleet.metrics().ToPrometheusText();
  if (fleet.num_shards() == 1) {
    text += fleet.shard_engine(0)->metrics().ToPrometheusText();
  }
  return text;
}

FleetView ViewFleet(const shard::ShardedEngine& fleet) {
  FleetView view;
  const MetricLabels stream = {{"stream", "<default>"}};
  for (int i = 0; i < fleet.num_shards(); ++i) {
    const MetricsRegistry& registry = fleet.shard_engine(i)->metrics();
    if (const Counter* c = registry.FindCounter(
            "seraph_stream_elements_ingested_total", stream)) {
      view.delivered += c->value();
    }
    if (const Histogram* h =
            registry.FindHistogram("seraph_engine_emit_latency_micros")) {
      MergeHistogramSnapshot(&view.latency, h->Snapshot());
    }
    if (const Gauge* g =
            registry.FindGauge("seraph_stream_lag_max_millis", stream)) {
      view.max_lag_ms = std::max(view.max_lag_ms, g->value());
    }
    if (const Gauge* g = registry.FindGauge("seraph_dead_letter_depth")) {
      view.dead_letters += g->value();
    }
  }
  if (const Counter* c =
          fleet.metrics().FindCounter("seraph_sharded_released_total")) {
    view.released = c->value();
  }
  return view;
}

std::string StatusLine(const shard::ShardedEngine& fleet) {
  const FleetView view = ViewFleet(fleet);
  return "delivered=" + std::to_string(view.delivered) +
         " out=" + std::to_string(view.released) +
         " p99_emit_us=" + std::to_string(view.latency.p99) +
         " max_lag_ms=" + std::to_string(view.max_lag_ms) +
         " dlq=" + std::to_string(view.dead_letters);
}

FleetEndpoint::FleetEndpoint(const shard::ShardedEngine* fleet,
                             MetricsServer::Options options)
    : fleet_(fleet), server_([&] {
        options.registry = &fleet->metrics();
        options.queries_json = [this] {
          std::lock_guard<std::mutex> lock(mutex_);
          return queries_json_;
        };
        return std::move(options);
      }()) {
  PublishQueries();
  const auto text_reply = [](std::string body) {
    HttpReply reply;
    reply.content_type = "text/plain; version=0.0.4; charset=utf-8";
    reply.body = std::move(body);
    return reply;
  };
  server_.Handle("GET", "/metrics", [this, text_reply](const HttpRequest&)
                                        -> std::optional<HttpReply> {
    return text_reply(FleetMetricsText(*fleet_));
  });
  // GET /shards/<i>/metrics: one shard's engine registry.
  server_.Handle("GET", "/shards/", [this, text_reply](
                                        const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    const size_t slash = request.path.find('/', 8);  // After "/shards/".
    int64_t index = -1;
    if (slash != std::string::npos &&
        request.path.substr(slash) == "/metrics" &&
        ParseInt64(request.path.substr(8, slash - 8), &index) &&
        index >= 0 && index < fleet_->num_shards()) {
      return text_reply(fleet_->shard_engine(static_cast<int>(index))
                            ->metrics()
                            .ToPrometheusText());
    }
    return HttpReply{404, "Not Found", "text/plain",
                     "no such path (the fleet has " +
                         std::to_string(fleet_->num_shards()) +
                         " shard(s))\n"};
  });
}

void FleetEndpoint::PublishQueries() {
  std::string fresh = fleet_->QueriesStatusJson();
  std::lock_guard<std::mutex> lock(mutex_);
  queries_json_ = std::move(fresh);
}

std::jthread ReportEvery(const shard::ShardedEngine* fleet, std::string tool,
                         int64_t interval_sec) {
  if (interval_sec <= 0) return {};
  return std::jthread([=](std::stop_token stop) {
    using namespace std::chrono;
    auto next = steady_clock::now() + seconds(interval_sec);
    while (!stop.stop_requested()) {
      // Sleep in short slices so a stop request is honored promptly.
      std::this_thread::sleep_for(milliseconds(50));
      if (steady_clock::now() < next) continue;
      next += seconds(interval_sec);
      std::cerr << "[" << tool << "] " << StatusLine(*fleet) << "\n";
    }
  });
}

}  // namespace tool
}  // namespace seraph
