// seraph_perfbench — one run of one workload of the Seraph benchmark.
//
//   seraph_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --expect-digest <hex>
//                    [--work-dir <dir>] [--trace-out <file>]
//                    [--git-commit <sha>]
//   seraph_perfbench --reference --workload <name> --seed <n>
//                    --seconds <s> --trace <0|1>
//
// The measuring form prints a header line (`# stamp {...}` with the
// machine, build and workload parameters), detail lines starting with
// `#`, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the
// output matched the reference digest, 1 when it did not, 2 when the run
// could not complete (no result line then).
//
// The reference form prints {"reference_digest": "<hex>"}: the digest of
// the same input under an engine with every fast path off. run.py runs
// it first, in its own process, so the measured process never holds the
// reference engine's memory.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "measure.h"
#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "seraph_perfbench: " << message << "\n";
  return 2;
}

std::string JsonString(const std::string& s) {
  return "\"" + perfbench::JsonEscape(s) + "\"";
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool reference = false;
  bool have_seed = false;
  std::string expected;
  std::string git_commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    uint64_t n = 0;
    if (arg == "--reference") {
      reference = true;
    } else if (arg == "--workload" && value(&v)) {
      config.workload = v;
    } else if (arg == "--seed" && value(&v) && ParseUint(v, &n)) {
      config.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && value(&v) && ParseUint(v, &n) &&
               n <= 3600) {
      config.seconds = static_cast<int>(n);
    } else if (arg == "--trace" && value(&v) && (v == "0" || v == "1")) {
      config.trace = v == "1";
    } else if (arg == "--expect-digest" && value(&v)) {
      expected = v;
    } else if (arg == "--work-dir" && value(&v)) {
      config.work_dir = v;
    } else if (arg == "--trace-out" && value(&v)) {
      config.trace_out = v;
    } else if (arg == "--git-commit" && value(&v)) {
      git_commit = v;
    } else {
      return Usage("bad argument '" + arg + "'");
    }
  }
  if (config.workload.empty() || !have_seed) {
    return Usage("--workload and --seed are required");
  }

  if (reference) {
    seraph::Result<std::string> digest = perfbench::ReferenceDigest(config);
    if (!digest.ok()) return Usage(digest.status().ToString());
    std::cout << "{\"reference_digest\": " << JsonString(digest.value())
              << "}" << std::endl;
    return 0;
  }
  if (expected.empty()) return Usage("--expect-digest is required");

  seraph::Result<perfbench::Report> result =
      perfbench::RunWorkload(config, expected);
  if (!result.ok()) return Usage(result.status().ToString());
  const perfbench::Report& report = result.value();

  std::ostringstream stamp;
  stamp << "{\"workload\": " << JsonString(config.workload)
        << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
        << ", \"trace\": " << (config.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"git_commit\": " << JsonString(git_commit)
        << ", \"params\": {";
  for (size_t i = 0; i < report.params.size(); ++i) {
    if (i > 0) stamp << ", ";
    stamp << JsonString(report.params[i].first) << ": "
          << JsonString(report.params[i].second);
  }
  stamp << "}}";
  std::cout << "# stamp " << stamp.str() << "\n";
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << "\n";
  }
  if (!report.correct) {
    std::cout << "# output digest " << report.digest
              << " does not match the reference " << expected << "\n";
  }

  std::ostringstream line;
  line << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) line << ", ";
    line << JsonString(m.name) << ": {\"value\": " << Number(m.value)
         << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return report.correct ? 0 : 1;
}
