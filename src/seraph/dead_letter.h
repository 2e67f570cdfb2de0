// Dead-letter capture for the fault-tolerant pipeline.
//
// Three producers feed the queue (see docs/INTERNALS.md, "Failure
// model"):
//  * the engine, with evaluation results a sink permanently rejected
//    (after per-sink retries were exhausted or the error was permanent);
//  * the engine, with evaluations that themselves failed at runtime
//    (query isolation: the failed instant is recorded here, the fleet
//    keeps running);
//  * the stream driver, with poison elements whose delivery kept failing
//    past the per-element error budget.
//
// Nothing in the pipeline silently drops data: what cannot be delivered
// lands here with the status that rejected it and the attempt count, so
// an operator (or seraph_run --dead-letter=<path>) can inspect and replay
// it.
#ifndef SERAPH_SERAPH_DEAD_LETTER_H_
#define SERAPH_SERAPH_DEAD_LETTER_H_

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "stream/graph_stream.h"
#include "table/time_table.h"

namespace seraph {

struct DeadLetterEntry {
  enum class Kind { kSinkResult, kStreamElement, kEvaluation };

  Kind kind;
  // Sink name (kSinkResult), consumer name (kStreamElement), or "engine"
  // (kEvaluation).
  std::string source;
  // Registered query whose result was rejected (kSinkResult) or whose
  // evaluation failed (kEvaluation).
  std::string query;
  // Evaluation time (kSinkResult, kEvaluation) or element timestamp
  // (kStreamElement).
  Timestamp timestamp;
  // The status that permanently rejected the payload.
  Status error;
  // Delivery attempts made before giving up.
  int64_t attempts = 0;

  // At most one of the two payloads is set, matching `kind` (kEvaluation
  // has no payload: the evaluation produced no result to capture).
  std::optional<TimeAnnotatedTable> result;
  std::shared_ptr<const PropertyGraph> element;
};

// An in-memory dead-letter queue (bounded only by what the run rejects;
// a quarantined sink's results all land here until it is revived).
// Not thread-safe, like the engine that feeds it.
class DeadLetterQueue {
 public:
  void AddSinkResult(const std::string& sink, const std::string& query,
                     Timestamp evaluation_time,
                     const TimeAnnotatedTable& result, Status error,
                     int64_t attempts);
  void AddElement(const std::string& consumer, const StreamElement& element,
                  Status error, int64_t attempts);
  // A query evaluation that failed at runtime; the instant is recorded so
  // an operator can see exactly which ET points of the query's grid are
  // missing from the output.
  void AddEvaluationFailure(const std::string& query,
                            Timestamp evaluation_time, Status error);
  // Appends an already-assembled entry, updating the per-kind counters —
  // the restore path (persist/recovery, ImportJsonLines) re-adds entries
  // captured in an earlier life.
  void Add(DeadLetterEntry entry);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<DeadLetterEntry>& entries() const { return entries_; }

  int64_t sink_results() const { return sink_results_; }
  int64_t elements() const { return elements_; }
  int64_t evaluation_failures() const { return evaluation_failures_; }

  // Mirrors size() into a registry gauge (`seraph_dead_letter_depth`) on
  // every mutation, so live scrapers see the depth without touching the
  // (non-thread-safe) queue itself. Not owned; null detaches.
  void BindDepthGauge(Gauge* gauge) {
    depth_gauge_ = gauge;
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(entries_.size()));
    }
  }

  void Clear();

  // One JSON object per entry (the format documented in
  // docs/INTERNALS.md): sink results carry the full rows payload;
  // elements carry a node/relationship summary of the graph.
  Status WriteJsonLines(std::ostream* os) const;

  // The inverse of WriteJsonLines: parses one JSON object per line and
  // appends the entries (blank lines skipped), so dead letters survive a
  // restart. The export is lossy where noted there — an element's graph
  // reimports as a placeholder with the recorded node/relationship
  // counts, and sink-result rows come back canonicalized — but
  // export → import → re-export is byte-identical, which the round-trip
  // test asserts. Stops at the first malformed line, leaving entries
  // already imported in place.
  Status ImportJsonLines(std::istream* is);

 private:
  // Pushes the current size into the bound gauge (no-op when unbound).
  void UpdateDepth() {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(entries_.size()));
    }
  }

  std::vector<DeadLetterEntry> entries_;
  int64_t sink_results_ = 0;
  int64_t elements_ = 0;
  int64_t evaluation_failures_ = 0;
  Gauge* depth_gauge_ = nullptr;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_DEAD_LETTER_H_
