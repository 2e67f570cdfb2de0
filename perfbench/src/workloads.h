// The three workloads of the Seraph benchmark (README.md explains why
// each exists and what every metric means):
//
//   rpq_paths      closed loop, ContinuousEngine: Listing-5 student_trick
//                  (var-length path + ALL filter) and the Listing-2
//                  network_monitor (shortestPath) on two named streams.
//                  Matcher-bound.
//   crime_window   closed loop, ContinuousEngine: the POLE crime_watch
//                  join over a 2 h window. Delta-eligible and
//                  snapshot-bound.
//   serve_durable  open loop, shard::ShardedEngine{shards=1} with two
//                  evaluation threads and fsync'd checkpoints: eight
//                  queries of mixed shape over one sightings stream.
//
// The engine is driven only through its public API; inputs come from the
// seed, and every run's output digest is compared with the digest a
// reference engine (every fast path off, one thread, no shards) gives on
// the same input.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured region, seconds. Closed-loop workloads repeat
  // whole passes over their input until this much time was measured;
  // the open-loop workload sends for this long.
  int seconds = 10;
  // Per-layer run: records spans and reports per-layer metrics.
  bool trace = false;
  // Smoke-test input sizes (the benchmark's own tests).
  bool tiny = false;
  // Scratch directory for checkpoint generations; must exist.
  std::string work_dir = ".";
  // When set, a traced run writes its spans here (chrome://tracing JSON).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Output digest of the measured run (every pass agrees with it).
  std::string digest;
  // Workload parameters, stamped into the run's header line.
  std::vector<std::pair<std::string, std::string>> params;
  // Human-readable detail lines (sample counts, per-query breakdown).
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// The output digest of `config`'s input under the reference engine:
// delta matching, unchanged-window reuse and incremental snapshots off,
// one evaluation thread, no shards.
seraph::Result<std::string> ReferenceDigest(const RunConfig& config);

// Runs the workload. A run is correct only when every output digest it
// produced equals `expected_digest` (and, on serve_durable, the restored
// fleet resumed with exactly the live fleet's remaining output).
seraph::Result<Report> RunWorkload(const RunConfig& config,
                                   const std::string& expected_digest);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
