#include "measure.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(sorted.size()));
  return sorted[static_cast<size_t>(rank - 1)];
}

int64_t TailSamples(int64_t n, double p) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xffU;
    *h *= kFnvPrime;
  }
}

void MixString(uint64_t* h, const std::string& s) {
  Mix(h, s.size());
  for (unsigned char c : s) {
    *h ^= c;
    *h *= kFnvPrime;
  }
}

}  // namespace

uint64_t EmissionHash(const std::string& query, seraph::Timestamp t,
                      const seraph::TimeAnnotatedTable& table) {
  uint64_t h = 1469598103934665603ULL;
  MixString(&h, query);
  Mix(&h, static_cast<uint64_t>(t.millis()));
  Mix(&h, static_cast<uint64_t>(table.window.start.millis()));
  Mix(&h, static_cast<uint64_t>(table.window.end.millis()));
  Mix(&h, table.table.size());
  for (const seraph::Record& row : table.table.rows()) {
    Mix(&h, row.size());
    for (const auto& [name, value] : row) {
      MixString(&h, name);
      Mix(&h, static_cast<uint64_t>(value.kind()));
      Mix(&h, static_cast<uint64_t>(value.Hash()));
    }
  }
  return h;
}

void Digest::Add(uint64_t emission_hash) {
  Mix(&value_, emission_hash);
  ++count_;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value_));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

namespace {

double StatusFieldMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = key;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;  // kB.
    }
  }
  return -1.0;
}

// Engine stage span name → layer.
const char* LayerOfEngineSpan(const std::string& name) {
  if (name == "window_maintenance") return "window";
  if (name == "snapshot") return "snapshot";
  if (name == "match" || name == "reuse" || name == "match_morsels") {
    return "match";
  }
  if (name == "delta") return "delta";
  if (name == "policy") return "policy";
  if (name == "sink") return "sink";
  return "engine";
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() { Release(); }

void CpuRotation::PinNext() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // Best effort.
}

void CpuRotation::Release() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double RssMb() { return StatusFieldMb("VmRSS:"); }
double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

void ResetPeakRss() {
  malloc_trim(0);  // Freed heap pages would otherwise count as resident.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void SpanLog::Add(std::string name, std::string layer, int64_t start_us,
                  int64_t end_us, int64_t tid) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_us = start_us;
  span.end_us = std::max(start_us, end_us);
  span.tid = tid;
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
}

void SpanLog::ImportEngineTrace(const seraph::TraceRecorder& recorder,
                                int64_t since_us) {
  if (!enabled_) return;
  for (const seraph::TraceRecorder::Event& event : recorder.events()) {
    if (event.phase != 'X' || event.ts_micros < since_us) continue;
    // An "evaluate" span runs until its own sink delivery, so it overlaps
    // the stages of the queries evaluated after it in the same batch; it
    // is a grouping, not a layer boundary, and would break the nesting.
    if (event.name == "evaluate") continue;
    Add(event.name, LayerOfEngineSpan(event.name), event.ts_micros,
        event.ts_micros + event.dur_micros, event.tid);
  }
}

void SpanLog::ResolveParents() {
  std::vector<size_t> order(spans_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Per lane, outer spans first: earlier start, then later end, then the
  // earlier-recorded span (engine children are recorded before parents).
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    return a > b;
  });
  std::vector<size_t> stack;
  for (size_t k = 0; k < order.size(); ++k) {
    Span& span = spans_[order[k]];
    if (k > 0 && spans_[order[k - 1]].tid != span.tid) stack.clear();
    while (!stack.empty() && spans_[stack.back()].end_us < span.end_us) {
      stack.pop_back();
    }
    span.parent = stack.empty() ? -1 : spans_[stack.back()].id;
    stack.push_back(order[k]);
  }
}

std::map<std::string, int64_t> SpanLog::SelfMicrosByLayer() const {
  std::vector<int64_t> child_micros(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_micros[static_cast<size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, int64_t> self;
  for (const Span& span : spans_) {
    const int64_t own = span.end_us - span.start_us -
                        child_micros[static_cast<size_t>(span.id)];
    self[span.layer] += std::max<int64_t>(0, own);
  }
  return self;
}

std::string SpanLog::ToChromeJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
       << JsonEscape(s.layer) << "\",\"ph\":\"X\",\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"pid\":1,\"tid\":"
       << s.tid << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"run\":\"" << JsonEscape(run_id_) << "\"}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

}  // namespace perfbench
