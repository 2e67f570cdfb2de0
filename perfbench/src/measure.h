// Measurement helpers of the Seraph benchmark: tail percentiles, the
// output digest, process memory readings, and the benchmark's own span
// log. Nothing here reaches into the engine; spans are recorded around
// the public calls the benchmark makes, plus the engine's own
// TraceRecorder events when a traced run installs one.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "table/time_table.h"
#include "temporal/timestamp.h"

namespace perfbench {

// Microseconds on the steady clock, the same timebase as the engine's
// TraceRecorder events.
inline int64_t NowMicros() { return seraph::TraceRecorder::NowMicros(); }

// Nearest-rank percentile of an ascending-sorted sample: the smallest
// value with at least p% of the samples at or below it. p in (0, 100];
// 0 for an empty sample.
int64_t Percentile(const std::vector<int64_t>& sorted, double p);

// How many samples of a size-n sample lie strictly beyond its
// nearest-rank p-th percentile. A percentile is reported only when this
// is at least 10.
int64_t TailSamples(int64_t n, double p);

// Hash of one emission: query name, evaluation instant, the annotated
// window, and every row in delivery order (field names and values).
uint64_t EmissionHash(const std::string& query, seraph::Timestamp t,
                      const seraph::TimeAnnotatedTable& table);

// `s` with `"` and `\` backslash-escaped, for a JSON string literal.
std::string JsonEscape(const std::string& s);

// Order-sensitive digest of an emission sequence.
class Digest {
 public:
  void Add(uint64_t emission_hash);
  uint64_t value() const { return value_; }
  int64_t count() const { return count_; }
  // 16 lowercase hex digits.
  std::string Hex() const;

 private:
  uint64_t value_ = 1469598103934665603ULL;  // FNV-1a offset basis.
  int64_t count_ = 0;
};

// Resident set size and its peak (VmRSS / VmHWM), MiB; -1 if unreadable.
double RssMb();
double PeakRssMb();
// Returns freed heap memory to the system and lowers the peak (VmHWM) to
// the current RSS, so that a later PeakRssMb covers only what follows;
// best effort (glibc malloc_trim, Linux clear_refs).
void ResetPeakRss();

// Round-robin CPU placement for single-threaded closed-loop passes. On a
// shared host the CPUs a process may use differ in speed for tens of
// seconds at a time (a busy sibling thread, a noisy neighbour), and the
// scheduler keeps a busy thread on one CPU for a whole run; pinning each
// pass to the next CPU of the process's initial set makes every run
// sample all of them alike. The destructor restores the initial set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to the next CPU; no-op when there is one.
  void PinNext();
  // Lets the calling thread run on the whole initial set again.
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// One recorded span. Parent ids are resolved by containment on the same
// thread lane (ResolveParents), so engine events, which carry none, nest
// under the benchmark's own spans.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t tid = 0;
  int64_t id = 0;
  int64_t parent = -1;
};

// In-memory span log of one traced run; disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  bool enabled() const { return enabled_; }

  void Add(std::string name, std::string layer, int64_t start_us,
           int64_t end_us, int64_t tid = 0);
  // Copies the engine's stage spans that start at or after `since_us`,
  // mapping each to its layer.
  void ImportEngineTrace(const seraph::TraceRecorder& recorder,
                         int64_t since_us);
  void ResolveParents();

  // Σ over a layer's spans of (duration − time covered by child spans).
  std::map<std::string, int64_t> SelfMicrosByLayer() const;

  // chrome://tracing JSON; args carry layer, span id, parent, run id.
  std::string ToChromeJson() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
};

// Records [construction, destruction) as a span when the log is enabled.
// The benchmark records from the engine's coordinator lane (tid 0).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer)
      : log_(log != nullptr && log->enabled() ? log : nullptr),
        name_(name),
        layer_(layer),
        start_(log_ != nullptr ? NowMicros() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Add(name_, layer_, start_, NowMicros());
  }

 private:
  SpanLog* log_;
  const char* name_;
  const char* layer_;
  int64_t start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
