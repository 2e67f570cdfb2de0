// Lightweight pipeline tracing producing Chrome trace-event JSON (the
// format consumed by chrome://tracing and Perfetto's legacy importer):
// an array of {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
// objects under a top-level "traceEvents" key.
//
// Usage:
//   TraceRecorder recorder;
//   recorder.Enable();
//   {
//     StageTimer timer(&recorder, "match", "engine", &histogram, &total);
//     ...work...
//     timer.Stop([&] { return TraceArgs{{"query", "student_trick"}}; });
//   }
//   recorder.WriteJsonFile("trace.json");
//
// Overhead when disabled is one pointer/bool test per span — a
// StageTimer with no histogram or accumulator, against a null or
// disabled recorder, never reads the clock and records nothing, so
// instrumented hot paths stay cheap (guarded by a benchmark in
// bench_running_example).
//
// Thread-safety: AddComplete/AddInstant (and therefore StageTimer::Stop)
// may be called from engine worker threads concurrently — the event
// buffer is mutex-guarded. Every recorded event is stamped with the
// calling thread's trace tid (SetCurrentThreadTid; 0 on the coordinator,
// worker id + 1 on pool workers), so one merged trace shows the real
// thread lanes. Enable/Disable, ToJson, Clear, and events() are
// coordinator-only and must not overlap recording from other threads.
#ifndef SERAPH_COMMON_TRACE_H_
#define SERAPH_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace seraph {

// String key/value pairs attached to a trace event ("args" in the trace
// viewer's detail pane).
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class TraceRecorder {
 public:
  struct Event {
    std::string name;
    std::string category;
    char phase = 'X';    // 'X' complete, 'i' instant.
    int64_t ts_micros = 0;
    int64_t dur_micros = 0;  // Complete events only.
    int64_t tid = 0;
    TraceArgs args;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Microseconds on the steady clock (same timebase as the recorded
  // events; differences are meaningful, absolute values are not).
  static int64_t NowMicros();

  // The trace tid stamped onto events recorded by the calling thread
  // (thread-local; defaults to 0). The engine assigns worker id + 1 to
  // pool workers so the coordinator keeps lane 0.
  static void SetCurrentThreadTid(int64_t tid);
  static int64_t CurrentThreadTid();

  // A duration event spanning [start, start + dur). No-op when disabled.
  void AddComplete(std::string name, std::string category,
                   int64_t start_micros, int64_t dur_micros,
                   TraceArgs args = {});

  // A zero-duration marker at `ts`. No-op when disabled.
  void AddInstant(std::string name, std::string category, int64_t ts_micros,
                  TraceArgs args = {});

  const std::vector<Event>& events() const { return events_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

  // {"traceEvents": [...], "displayTimeUnit": "ms"}.
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  // Guards events_ (worker threads append concurrently).
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// Times one stage of a pipeline and writes its duration once to each
// destination that is set: an accumulator (e.g. a QueryStats field), a
// histogram (e.g. seraph_stage_micros{stage=...}), and a complete trace
// event, the last only while `tracer` is enabled at construction. With
// no destination the timer never reads the clock.
//
// The duration is written by Stop(), never by the destructor, so a stage
// that ends in an early error return records nothing, exactly like a
// stage that never ran. Call Stop() at most once.
//
// Exclude() takes a nested stage's time out of what the accumulator and
// the histogram receive (self time); the trace event keeps the full
// interval, so it still encloses the nested stage's own event.
class StageTimer {
 public:
  // Inactive: writes nothing and reads no clock.
  StageTimer() = default;

  StageTimer(TraceRecorder* tracer, const char* name, const char* category,
             Histogram* histogram = nullptr, int64_t* accumulator = nullptr)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        category_(category),
        histogram_(histogram),
        accumulator_(accumulator) {
    if (timing()) start_micros_ = TraceRecorder::NowMicros();
  }

  void Exclude(int64_t child_micros) { excluded_micros_ += child_micros; }

  // Ends the stage and returns its self time (0 when the timer reads no
  // clock). `make_args` returns the trace event's TraceArgs; it runs only
  // while recording, so the args cost nothing otherwise.
  template <typename MakeArgs>
  int64_t Stop(MakeArgs&& make_args) {
    if (!timing()) return 0;
    const int64_t end_micros = TraceRecorder::NowMicros();
    const int64_t self_micros = end_micros - start_micros_ - excluded_micros_;
    if (accumulator_ != nullptr) *accumulator_ += self_micros;
    if (histogram_ != nullptr) histogram_->Record(self_micros);
    if (tracer_ != nullptr) {
      tracer_->AddComplete(name_, category_, start_micros_,
                           end_micros - start_micros_, make_args());
    }
    return self_micros;
  }
  int64_t Stop() {
    return Stop([] { return TraceArgs{}; });
  }

 private:
  bool timing() const {
    return tracer_ != nullptr || histogram_ != nullptr ||
           accumulator_ != nullptr;
  }

  TraceRecorder* tracer_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  Histogram* histogram_ = nullptr;
  int64_t* accumulator_ = nullptr;
  int64_t start_micros_ = 0;
  int64_t excluded_micros_ = 0;
};

}  // namespace seraph

#endif  // SERAPH_COMMON_TRACE_H_
