// Clause-by-clause query evaluation with bag-table semantics
// (Section 3.2; lifted per Fig. 7 by fixing the evaluation instant).
//
// The executor is shared between one-time Cypher evaluation and Seraph's
// continuous engine: the latter fixes the evaluation time instant, supplies
// per-MATCH snapshot graphs via a GraphResolver, and exposes the active
// window bounds to expressions.
#ifndef SERAPH_CYPHER_EXECUTOR_H_
#define SERAPH_CYPHER_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/result.h"
#include "cypher/ast.h"
#include "graph/property_graph.h"
#include "table/table.h"
#include "temporal/interval.h"

namespace seraph {

struct MatchParallelism;  // cypher/matcher.h
class CancellationToken;  // common/cancel.h

struct ExecutionOptions {
  // Values for $parameters.
  std::map<std::string, Value> parameters;
  // The evaluation time instant: the value of datetime() / timestamp().
  Timestamp now;
  // Active window bounds (Seraph): resolves the reserved win_start /
  // win_end names in expressions.
  std::optional<TimeInterval> window;
  // Greedy join-order optimization within MATCH clauses (see
  // MatchOptions); disable to execute patterns in textual order.
  bool optimize_match_order = true;
  // Morsel-partitioned parallel pattern matching (cypher/matcher.h); the
  // spec must outlive the execution. Null = serial matching.
  const MatchParallelism* match_parallelism = nullptr;
  // Cooperative evaluation deadline (common/cancel.h); checked by the
  // matcher at seed/expansion boundaries. Null = no deadline. Must
  // outlive the execution.
  const CancellationToken* cancellation = nullptr;
};

// What one execution did beyond its result table (optional out-param).
struct ExecutionStats {
  // True when some MATCH ran with a relationship filter pushed into path
  // expansion (docs/INTERNALS.md, "Path-filter pushdown").
  bool pushdown = false;
  // Expansions the pushed-down filters cut.
  int64_t pruned = 0;
};

// Supplies the graph each MATCH clause is evaluated against. Seraph's
// continuous engine returns the snapshot graph of the clause's WITHIN
// window; one-time Cypher uses a single graph for everything.
class GraphResolver {
 public:
  virtual ~GraphResolver() = default;

  // Graph for pattern matching of `clause` (the clause_index-th clause of
  // the single query being executed).
  virtual const PropertyGraph& GraphFor(const MatchClause& clause,
                                        size_t clause_index) const = 0;

  // Graph used for property lookups in expressions (the widest snapshot;
  // must contain every entity any clause can bind).
  virtual const PropertyGraph& BaseGraph() const = 0;
};

// Resolver using one graph for all clauses (plain Cypher).
class SingleGraphResolver final : public GraphResolver {
 public:
  explicit SingleGraphResolver(const PropertyGraph& graph) : graph_(graph) {}
  const PropertyGraph& GraphFor(const MatchClause&, size_t) const override {
    return graph_;
  }
  const PropertyGraph& BaseGraph() const override { return graph_; }

 private:
  const PropertyGraph& graph_;
};

// Evaluates one clause chain against `input` (Section 3.2's functional
// composition); `input` is normally Table::Unit().
// `stats`, when given, is overwritten.
Result<Table> ExecuteSingleQuery(const SingleQuery& query,
                                 const GraphResolver& resolver,
                                 const Table& input,
                                 const ExecutionOptions& options,
                                 ExecutionStats* stats = nullptr);

// Evaluates a full query (UNION of single queries) from the unit table.
Result<Table> ExecuteQuery(const Query& query, const GraphResolver& resolver,
                           const ExecutionOptions& options);

// Convenience: output(Q, G) for a one-time Cypher query.
Result<Table> ExecuteQueryOnGraph(const Query& query,
                                  const PropertyGraph& graph,
                                  const ExecutionOptions& options);

}  // namespace seraph

#endif  // SERAPH_CYPHER_EXECUTOR_H_
