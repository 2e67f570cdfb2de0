// latency_harness — steady-state emit-latency measurement for the
// end-to-end pipeline (docs/INTERNALS.md, "Latency accounting & lag").
//
//   latency_harness [flags]    (--help lists them)
//
// The harness ingests synthetic person-sighting events into a
// shard::ShardedEngine fleet (--shards, default 1) at a sustained target
// rate, paced against the wall clock and catching up after scheduling
// hiccups rather than drifting. Events are broadcast through the fleet's
// default route; each of the --queries identical sliding-window queries
// lands on its home shard. The summary on stdout and the JSON report
// (--out, for the bench-baseline CI diff) give the ingest→emit latency
// distribution merged over the shards, the achieved rate, the maximum
// event-time lag, the fleet's overload ledger and the process RSS.
//
// --metrics-port serves the live endpoint during the run; on one shard
// its /metrics carries the shard's engine series, which CI's
// latency-smoke job scrapes mid-flight. --stats-interval prints the
// one-line fleet status.
//
// Overload protection (docs/INTERNALS.md, "Overload & backpressure"):
// --queue-capacity bounds each lane queue and a refused produce pumps
// that shard and retries (the backpressure loop in
// ShardedEngine::Ingest, which CI's overload-soak job drives at 2x a
// sustainable rate); --overflow-policy picks block / reject /
// shed_oldest, whose shed elements are dead-lettered and counted;
// --shed-lag-ms arms the lane drivers' degraded mode.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "graph/graph_builder.h"
#include "tool_common.h"

namespace {

using namespace seraph;

int Fail(const std::string& message) {
  return tool::Fail("latency_harness", message);
}

// Resident set size in MiB from /proc/self/status (VmRSS), or -1 when
// the file is unavailable. Good enough for CI's bounded-memory assert.
double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      double kb = -1024.0;
      std::istringstream(line.substr(6)) >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

// One synthetic event: a person sighted in a room — enough structure for
// a MATCH with a relationship hop, tiny enough that event construction
// does not dominate the measured pipeline.
PropertyGraph MakeEvent(int64_t i) {
  GraphBuilder b;
  const int64_t person = 1 + (i % 64);
  const int64_t room = 1000 + (i % 8);
  b.Node(person, {"Person"}, {{"id", Value::Int(person)}});
  b.Node(room, {"Room"}, {{"id", Value::Int(room)}});
  b.Rel(2000 + i, person, room, "IN");
  return b.Build();
}

// A sink that only counts: the harness measures pipeline latency, not
// output formatting.
class CountingSink final : public EmitSink {
 public:
  Status OnResult(const std::string&, Timestamp,
                  const TimeAnnotatedTable& table) override {
    ++emits_;
    rows_ += static_cast<int64_t>(table.table.size());
    return Status::OK();
  }
  int64_t emits() const { return emits_; }
  int64_t rows() const { return rows_; }

 private:
  int64_t emits_ = 0;
  int64_t rows_ = 0;
};

// A sliding 10 s window, evaluated every second of event time. Event
// time advances so that each harness second covers one second of event
// time at the target rate: about one evaluation per query per second.
std::string QueryText(int64_t index) {
  return "REGISTER QUERY lat_q" + std::to_string(index) +
         " STARTING AT '1970-01-01T00:00:01' {\n"
         "  MATCH (p:Person)-[:IN]->(r:Room) WITHIN PT10S\n"
         "  EMIT p.id AS person, r.id AS room EVERY PT1S\n"
         "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  tool::HarnessOptions opt;
  if (auto exit = tool::HarnessFlags(&opt).ParseMain(argc, argv, nullptr)) {
    return *exit;
  }
  shard::ShardedEngine fleet(opt.fleet);
  CountingSink sink;
  fleet.AddSink(&sink);
  for (int64_t q = 0; q < opt.queries; ++q) {
    auto placement = fleet.RegisterText(QueryText(q));
    if (!placement.ok()) return Fail(placement.status().ToString());
  }

  MetricsServer::Options server_options;  // Served with --metrics-port.
  server_options.port = static_cast<int>(opt.metrics_port);
  tool::FleetEndpoint endpoint(&fleet, server_options);
  if (opt.metrics_port >= 0) {
    if (Status s = endpoint.Start(); !s.ok()) return Fail(s.ToString());
    std::cerr << "[latency_harness] metrics on http://127.0.0.1:"
              << endpoint.server().port() << "/metrics ("
              << fleet.num_shards() << " shard(s))\n";
  }
  std::jthread reporter =
      tool::ReportEvery(&fleet, "latency_harness", opt.stats_interval);

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto deadline = start + std::chrono::seconds(opt.duration_sec);
  const double event_millis_per_event = 1000.0 / opt.rate;
  int64_t produced = 0;
  while (clock::now() < deadline) {
    const double elapsed_sec =
        std::chrono::duration<double>(clock::now() - start).count();
    // Catch-up pacing: produce the deficit between the schedule and what
    // has been produced so far, then pump it through.
    const int64_t due = static_cast<int64_t>(elapsed_sec * opt.rate);
    const bool idle = produced >= due;
    for (; produced < due; ++produced) {
      const int64_t t_ms =
          1000 + static_cast<int64_t>(produced * event_millis_per_event);
      auto sent =
          fleet.Ingest(MakeEvent(produced), Timestamp::FromMillis(t_ms));
      if (!sent.ok()) return Fail(sent.status().ToString());
    }
    if (Status s = fleet.PumpAll(); !s.ok()) return Fail(s.ToString());
    endpoint.PublishQueries();
    if (idle) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (Status s = fleet.Finish(); !s.ok()) return Fail(s.ToString());
  endpoint.PublishQueries();
  reporter = {};  // Stops and joins the reporter.

  const double wall_sec =
      std::chrono::duration<double>(clock::now() - start).count();
  const tool::FleetView view = tool::ViewFleet(fleet);
  const HistogramSnapshot& latency = view.latency;
  if (latency.count == 0) {
    return Fail("no emit-latency samples were recorded — the run produced "
                "no delivered evaluations (rate/duration too small?)");
  }
  const double achieved = static_cast<double>(produced) / wall_sec;
  // The overload ledger: every element a lane queue refused or evicted
  // is counted here and dead-lettered, so delivered + shed partitions the
  // input.
  const shard::ShardedEngine::LaneTotals totals = fleet.Totals();

  const double rss_mb = RssMb();
  std::cout << "events=" << produced << " (" << std::lround(achieved)
            << "/s target " << opt.rate << "/s)  queries=" << opt.queries
            << "  emits=" << sink.emits() << "  rows=" << sink.rows()
            << "\nemit latency (us): p50=" << latency.p50
            << " p99=" << latency.p99 << " p999=" << latency.p999
            << " max=" << latency.max << "  samples=" << latency.count
            << "\nmax lag: " << view.max_lag_ms
            << " ms  dead letters: " << totals.dead_letters
            << "\noverload: shed=" << totals.shed
            << " rejected=" << totals.rejected
            << " trimmed=" << totals.trimmed
            << " producer_retries=" << totals.producer_retries
            << " degraded_entries=" << totals.degraded_entries << "  rss="
            << std::fixed << std::setprecision(1) << rss_mb << " MiB\n";

  // The JSON report, for the bench-baseline diff. `nproc` records the
  // core count the run had, so baselines compare like with like.
  std::ofstream out(opt.out);
  out << "{\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"rate_target\": " << opt.rate << ",\n"
      << "  \"rate_achieved\": " << achieved << ",\n"
      << "  \"duration_sec\": " << opt.duration_sec << ",\n"
      << "  \"shards\": " << fleet.num_shards() << ",\n"
      << "  \"queries\": " << opt.queries << ",\n"
      << "  \"events\": " << produced << ",\n"
      << "  \"emits\": " << sink.emits() << ",\n"
      << "  \"rows\": " << sink.rows() << ",\n"
      << "  \"latency_samples\": " << latency.count << ",\n"
      << "  \"p50_us\": " << latency.p50 << ",\n"
      << "  \"p99_us\": " << latency.p99 << ",\n"
      << "  \"p999_us\": " << latency.p999 << ",\n"
      << "  \"max_us\": " << latency.max << ",\n"
      << "  \"max_lag_ms\": " << view.max_lag_ms << ",\n"
      << "  \"dead_letters\": " << totals.dead_letters << ",\n"
      << "  \"queue_capacity\": " << opt.fleet.queue.capacity << ",\n"
      << "  \"overflow_policy\": \""
      << OverflowPolicyName(opt.fleet.queue.overflow_policy) << "\",\n"
      << "  \"shed_total\": " << totals.shed << ",\n"
      << "  \"rejected_total\": " << totals.rejected << ",\n"
      << "  \"trimmed_total\": " << totals.trimmed << ",\n"
      << "  \"producer_retries\": " << totals.producer_retries << ",\n"
      << "  \"degraded_entries\": " << totals.degraded_entries << ",\n"
      << "  \"rss_mb\": " << rss_mb << "\n"
      << "}\n";
  if (!out) return Fail("cannot write '" + opt.out + "'");
  std::cerr << "[latency_harness] wrote " << opt.out << "\n";
  return 0;
}
