// seraph_run — run a Seraph continuous query over a recorded event log.
//
//   seraph_run <query.seraph> <events.log> [flags]    (--help lists them)
//   seraph_run --inspect-checkpoint --checkpoint-dir=<dir>
//
// The query file holds one REGISTER QUERY statement; the event log uses
// the text format of io/graph_text.h. Results print as ASCII tables, or
// as CSV / JSON lines with --csv / --json; --stats adds the query's
// counters. The query runs on a one-shard shard::ShardedEngine: events
// pass through the shard's ingest lane (EventQueue + StreamDriver), and
// the fleet's delivery retries transient sink failures, dead-letters
// what retries cannot save and quarantines a failing sink
// (docs/INTERNALS.md, "Failure model").
//
// Observability: --metrics dumps the fleet's Prometheus text after the
// run, --trace writes a Chrome trace-event file, --progress=<n> pumps and
// prints the fleet status every n events (the log must be chronological),
// --metrics-port serves /metrics, /queries, /shards/<i>/metrics and
// /healthz live, --stats-interval prints the one-line fleet status.
// --dead-letter writes dead-lettered entries as JSON lines;
// SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS arm the fault injector
// (e.g. SERAPH_FAULT_POINTS="sink.emit=0.05"; common/fault.h).
//
// Durability (docs/INTERNALS.md, "Durability & recovery"): with
// --checkpoint-dir=<dir> the fleet commits checkpoint generations into
// <dir>/shard-0/ every --checkpoint-every batches, next to its lane's
// ingest log. The directory must be empty unless --restore is given;
// --restore restores the newest valid generation, replays the ingest log
// past it, and skips the input prefix the log already holds, so output
// continues without duplicates. --inspect-checkpoint summarizes every
// generation in <dir> and its shard directories.
//
// Overload (docs/INTERNALS.md, "Overload & backpressure"):
// --queue-capacity / --overflow-policy bound the lane queue (in memory and
// durable alike), --shed-lag-ms arms the lane driver's degraded mode,
// --eval-deadline-ms sets a per-evaluation deadline; --threads /
// --match-threads size the evaluation pools.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/trace.h"
#include "io/graph_text.h"
#include "persist/recovery.h"
#include "seraph/seraph_parser.h"
#include "seraph/sinks.h"
#include "tool_common.h"

namespace {

using namespace seraph;

int Fail(const std::string& message) {
  return tool::Fail("seraph_run", message);
}

const char* RoleName(persist::SegmentRole role) {
  static const char* const kNames[] = {"queries", "offsets", "dead-letters",
                                       "stream"};
  const size_t index = static_cast<size_t>(role);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

// --inspect-checkpoint: a manifest-by-manifest summary of `dir` and of
// each shard-<i> directory inside it.
int InspectCheckpoints(const std::string& dir) {
  std::vector<std::string> dirs = {dir};
  for (int i = 0; std::filesystem::is_directory(dir + "/shard-" +
                                                std::to_string(i));
       ++i) {
    dirs.push_back(dir + "/shard-" + std::to_string(i));
  }
  bool any = false;
  for (const std::string& generation_dir : dirs) {
    auto summaries = persist::InspectCheckpoints(generation_dir);
    if (!summaries.ok()) return Fail(summaries.status().ToString());
    if (summaries->empty()) continue;
    any = true;
    std::cout << generation_dir << ":\n";
    for (const persist::ManifestSummary& summary : *summaries) {
      std::cout << persist::ManifestFileName(summary.seq) << ": "
                << (summary.valid ? "VALID" : "INVALID") << "\n";
      if (!summary.valid) std::cout << "  error: " << summary.error << "\n";
      for (const persist::SegmentSummary& segment : summary.segments) {
        std::cout << "  " << RoleName(segment.role) << "  " << segment.file
                  << "  " << segment.manifest_size << " bytes";
        if (!segment.present) {
          std::cout << "  MISSING";
        } else if (segment.actual_size != segment.manifest_size) {
          std::cout << "  SIZE MISMATCH (" << segment.actual_size
                    << " on disk)";
        } else {
          std::cout << (segment.crc_ok ? "  crc ok" : "  CRC MISMATCH");
        }
        std::cout << "\n";
      }
      if (!summary.image.has_value()) continue;
      const persist::CheckpointImage& image = *summary.image;
      std::cout << "  clock: " << image.engine.clock.ToString() << "\n";
      for (const auto& [name, stream] : image.engine.streams) {
        std::cout << "  stream '" << name << "': " << stream.size()
                  << " element(s)\n";
      }
      for (const auto& [consumer, offset] : image.offsets) {
        std::cout << "  offset " << consumer << ": " << offset << "\n";
      }
      for (const QueryCheckpoint& query : image.engine.queries) {
        std::cout << "  query '" << query.name
                  << "': next_eval=" << query.next_eval.ToString()
                  << ", evaluations=" << query.stats.evaluations
                  << (query.disabled ? ", DISABLED" : "") << "\n";
      }
      std::cout << "  dead letters: " << image.dead_letters.size() << "\n";
    }
  }
  if (!any) std::cout << "no checkpoints in '" << dir << "'\n";
  return 0;
}

int64_t Read(const MetricsRegistry& registry, const std::string& name) {
  if (const Counter* c = registry.FindCounter(name)) return c->value();
  if (const Gauge* g = registry.FindGauge(name)) return g->value();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tool::RunOptions opt;
  std::vector<std::string> positional;
  if (auto exit = tool::RunFlags(&opt).ParseMain(argc, argv, &positional)) {
    return *exit;
  }
  const std::string& dir = opt.fleet.checkpoint_dir;
  if (opt.csv && opt.json) {
    return Fail("--csv and --json are mutually exclusive");
  }
  if (opt.inspect_checkpoint) {
    if (dir.empty()) {
      return Fail("--inspect-checkpoint requires --checkpoint-dir=<dir>");
    }
    return InspectCheckpoints(dir);
  }
  if (opt.restore && dir.empty()) {
    return Fail("--restore requires --checkpoint-dir=<dir>");
  }
  if (positional.size() != 2) {
    return Fail("expected <query.seraph> <events.log> (see --help)");
  }
  // A durable fleet appends to its ingest logs, so a fresh run on top of
  // an earlier one would leave logs the next --restore cannot replay.
  std::error_code ec;
  if (!dir.empty() && !opt.restore && std::filesystem::exists(dir, ec) &&
      !std::filesystem::is_empty(dir, ec)) {
    return Fail("--checkpoint-dir '" + dir +
                "' holds an earlier run; resume it with --restore or use an "
                "empty directory");
  }

  auto query_text = tool::ReadFile(positional[0]);
  if (!query_text.ok()) return Fail(query_text.status().ToString());
  auto query = ParseSeraphQuery(*query_text);
  if (!query.ok()) return Fail(query.status().ToString());
  if (opt.explain) std::cerr << query->Describe();
  auto log_text = tool::ReadFile(positional[1]);
  if (!log_text.ok()) return Fail(log_text.status().ToString());
  std::istringstream log_stream(*log_text);
  auto events = io::ReadEventLog(&log_stream);
  if (!events.ok()) return Fail(events.status().ToString());

  // Output columns come from the query's own projection aliases.
  std::vector<std::string> columns;
  for (const ProjectionItem& item : query->projection.items) {
    columns.push_back(item.alias);
  }
  const std::string name = query->name;

  // Environment-driven fault injection for chaos runs (no-op unless
  // SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS are set).
  FaultInjector::Global().ConfigureFromEnv();

  TraceRecorder tracer;
  if (!opt.trace_path.empty()) {
    tracer.Enable();
    opt.fleet.engine.tracer = &tracer;
  }
  shard::ShardedEngine fleet(opt.fleet);
  PrintingSink printer(&std::cout, columns);
  CsvSink csv_sink(&std::cout, columns);
  JsonLinesSink json_sink(&std::cout, /*include_empty=*/false);
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 3;
  EmitSink* output = opt.csv    ? static_cast<EmitSink*>(&csv_sink)
                     : opt.json ? static_cast<EmitSink*>(&json_sink)
                                : static_cast<EmitSink*>(&printer);
  fleet.AddSink(output, "output", sink_policy);
  if (auto placed = fleet.RegisterText(*query_text); !placed.ok()) {
    return Fail(placed.status().ToString());
  }

  MetricsServer::Options server_options;  // Served with --metrics-port.
  server_options.port = static_cast<int>(opt.metrics_port);
  tool::FleetEndpoint endpoint(&fleet, server_options);
  if (opt.metrics_port >= 0) {
    if (Status s = endpoint.Start(); !s.ok()) return Fail(s.ToString());
    std::cerr << "[seraph_run] metrics on http://127.0.0.1:"
              << endpoint.server().port() << "/metrics\n";
  }
  std::jthread reporter =
      tool::ReportEvery(&fleet, "seraph_run", opt.stats_interval);

  // The fleet is one shard; its registry carries the durability series.
  const MetricsRegistry& shard_metrics = fleet.shard_engine(0)->metrics();
  size_t skip = 0;
  if (opt.restore) {
    if (Status s = fleet.Restore(); !s.ok()) return Fail(s.ToString());
    skip = fleet.ingested_elements();
    if (skip > events->size()) {
      return Fail("the ingest log in '" + dir + "' holds " +
                  std::to_string(skip) + " events, more than '" +
                  positional[1] + "'");
    }
    const int64_t seq = Read(shard_metrics, "seraph_checkpoint_last_seq");
    std::cerr << "[seraph_run] "
              << (seq > 0 ? "restored checkpoint seq=" + std::to_string(seq)
                          : "no checkpoint in '" + dir + "', cold-starting")
              << "; skipping " << skip << " logged event(s)\n";
  }
  for (size_t i = skip; i < events->size(); ++i) {
    const StreamElement& event = (*events)[i];
    if (auto sent = fleet.Ingest(event.graph, event.timestamp); !sent.ok()) {
      return Fail(sent.status().ToString());
    }
    if (opt.progress > 0 && (i + 1) % static_cast<size_t>(opt.progress) == 0) {
      // Pumping evaluates up to this event, so the log must be in
      // chronological order.
      if (Status s = fleet.PumpAll(); !s.ok()) {
        return Fail(s.ToString() +
                    " (--progress requires a chronological event log)");
      }
      std::cerr << "[seraph_run] ingested " << i + 1 << "/"
                << events->size() << ": " << tool::StatusLine(fleet) << "\n";
      endpoint.PublishQueries();
    }
  }
  if (Status s = fleet.Finish(); !s.ok()) return Fail(s.ToString());
  // The run is quiescent again: refresh /queries and stop the reporter
  // (the endpoint stays up until exit so a scraper sees the final state).
  endpoint.PublishQueries();
  reporter = {};  // Stops and joins the reporter.

  const shard::ShardedEngine::LaneTotals totals = fleet.Totals();
  if (!dir.empty() || opt.fleet.queue.capacity > 0) {
    std::cerr << "[seraph_run] delivered " << totals.delivered
              << " event(s), " << Read(shard_metrics, "seraph_checkpoint_total")
              << " checkpoint(s) written (last seq="
              << Read(shard_metrics, "seraph_checkpoint_last_seq") << ", "
              << Read(shard_metrics, "seraph_checkpoint_failures_total")
              << " failed); lane: shed " << totals.shed << ", rejected "
              << totals.rejected << ", trimmed " << totals.trimmed
              << ", degraded entries " << totals.degraded_entries << "\n";
  }

  // Query isolation: evaluation failures do not abort the run, so surface
  // them here, and treat a disabled query (error budget exhausted) as a
  // failed run.
  const QueryStats final_stats = *fleet.StatsFor(name);
  if (final_stats.eval_failures > 0) {
    std::cerr << "[seraph_run] " << final_stats.eval_failures
              << " evaluation(s) failed, last error: "
              << final_stats.last_error.ToString() << "\n";
  }
  if (opt.stats) {
    std::cerr << "evaluations: " << final_stats.evaluations
              << ", reused: " << final_stats.reused_results
              << ", rows emitted: " << final_stats.rows_emitted << "\n"
              << "latency (us): "
              << fleet.shard_engine(0)->LatencyFor(name)->ToString() << "\n"
              << "stage micros (cumulative): window="
              << final_stats.window_micros
              << " snapshot=" << final_stats.snapshot_micros
              << " match=" << final_stats.match_micros
              << " policy=" << final_stats.policy_micros
              << " sink=" << final_stats.sink_micros << "\n";
  }
  if (opt.metrics_path == "-") {
    std::cout << tool::FleetMetricsText(fleet);
  } else if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    if (!(out << tool::FleetMetricsText(fleet))) {
      return Fail("cannot write metrics file '" + opt.metrics_path + "'");
    }
  }
  if (!opt.dead_letter_path.empty()) {
    std::ofstream out(opt.dead_letter_path);
    for (int i = 0; i < fleet.num_shards() && out; ++i) {
      if (Status s = fleet.dead_letters(i).WriteJsonLines(&out); !s.ok()) {
        return Fail(s.ToString());
      }
    }
    if (!out) return Fail("cannot write '" + opt.dead_letter_path + "'");
    std::cerr << "[seraph_run] " << totals.dead_letters
              << " dead-lettered entr"
              << (totals.dead_letters == 1 ? "y" : "ies") << " written to "
              << opt.dead_letter_path
              << (fleet.SinkQuarantined("output") ? " (output sink quarantined)"
                                                  : "")
              << "\n";
  }
  if (!opt.trace_path.empty()) {
    if (Status s = tracer.WriteJsonFile(opt.trace_path); !s.ok()) {
      return Fail(s.ToString());
    }
    std::cerr << "[seraph_run] wrote " << tracer.size()
              << " trace events to " << opt.trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (fleet.QueryDisabled(name)) {
    return Fail("query '" + name +
                "' was disabled after repeated evaluation failures (last: " +
                final_stats.last_error.ToString() + ")");
  }
  return 0;
}
