#include "cypher/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cypher/eval.h"
#include "cypher/functions.h"
#include "cypher/matcher.h"

namespace seraph {

namespace {

// Free variables a pattern list introduces (node, relationship, and path
// variables).
std::set<std::string> PatternVariables(
    const std::vector<PathPattern>& patterns) {
  std::set<std::string> vars;
  for (const PathPattern& path : patterns) {
    if (!path.path_variable.empty()) vars.insert(path.path_variable);
    for (const NodePattern& np : path.nodes) {
      if (!np.variable.empty()) vars.insert(np.variable);
    }
    for (const RelPattern& rp : path.rels) {
      if (!rp.variable.empty()) vars.insert(rp.variable);
    }
  }
  return vars;
}

// Adds every variable `expr` names to `out` — a superset of what it
// reads, since names a nested comprehension binds count too. False when
// the tree holds a pattern predicate, which reads the record beyond the
// variables it names.
bool CollectVariables(const Expr& expr, std::set<std::string>* out) {
  if (dynamic_cast<const ExistsPatternExpr*>(&expr) != nullptr) return false;
  if (const auto* var = dynamic_cast<const VariableExpr*>(&expr)) {
    out->insert(var->name());
  }
  bool ok = true;
  expr.VisitChildren([&](const Expr& child) {
    if (ok) ok = CollectVariables(child, out);
  });
  return ok;
}

// The variable of a `relationships(<variable>)` call; null for any other
// expression.
const std::string* RelationshipsArgument(const Expr& expr) {
  const auto* call = dynamic_cast<const FunctionCallExpr*>(&expr);
  if (call == nullptr || call->name() != "relationships" ||
      call->args().size() != 1) {
    return nullptr;
  }
  const auto* var = dynamic_cast<const VariableExpr*>(call->args()[0].get());
  return var == nullptr ? nullptr : &var->name();
}

// What a variable or expression is known to hold on every row.
enum class Shape {
  kValue,  // Some value, kind unknown.
  kNode,
  kPath,
  kNodeList,
  kRelationshipList,
  kListedNode,  // A node a comprehension takes from a node list.
};
using Shapes = std::map<std::string, Shape>;

// The shape of `expr` when it provably cannot raise an evaluation error
// on a row binding `shapes`; nullopt otherwise. Deliberately no wider
// than Listing 5's WITH items need: variables, literals, `nodes` and
// `relationships` of a path, `labels` of a node, IN, and a comprehension
// over a node list that reads its element's properties, such as
// `[n IN nodes(q) WHERE 'Station' IN labels(n) | n.id]`.
std::optional<Shape> TotalShape(const Expr& expr, const Shapes& shapes) {
  if (dynamic_cast<const LiteralExpr*>(&expr) != nullptr) {
    return Shape::kValue;
  }
  if (const auto* var = dynamic_cast<const VariableExpr*>(&expr)) {
    auto it = shapes.find(var->name());
    if (it == shapes.end()) return std::nullopt;
    return it->second;
  }
  if (const auto* prop = dynamic_cast<const PropertyExpr*>(&expr)) {
    if (TotalShape(prop->object(), shapes) == Shape::kListedNode) {
      return Shape::kValue;
    }
    return std::nullopt;
  }
  if (const auto* call = dynamic_cast<const FunctionCallExpr*>(&expr)) {
    if (call->args().size() != 1) return std::nullopt;
    std::optional<Shape> arg = TotalShape(*call->args()[0], shapes);
    const std::string& name = call->name();
    if (arg == Shape::kPath) {
      if (name == "nodes") return Shape::kNodeList;
      if (name == "relationships") return Shape::kRelationshipList;
    }
    if ((arg == Shape::kNode || arg == Shape::kListedNode) &&
        name == "labels") {
      return Shape::kValue;
    }
    return std::nullopt;
  }
  if (const auto* in = dynamic_cast<const BinaryExpr*>(&expr)) {
    if (in->op() == BinaryOp::kIn && TotalShape(in->lhs(), shapes) &&
        TotalShape(in->rhs(), shapes)) {
      return Shape::kValue;
    }
    return std::nullopt;
  }
  if (const auto* comp = dynamic_cast<const ListComprehensionExpr*>(&expr)) {
    if (TotalShape(comp->list(), shapes) != Shape::kNodeList) {
      return std::nullopt;
    }
    Shapes inner = shapes;
    inner[comp->var()] = Shape::kListedNode;
    for (const Expr* part : {comp->where(), comp->projection()}) {
      if (part != nullptr && !TotalShape(*part, inner)) return std::nullopt;
    }
    return Shape::kValue;
  }
  return std::nullopt;
}

// The path-filter pushdown for the MATCH at `query.clauses[index]`
// (docs/INTERNALS.md, "Path-filter pushdown"): the leading
// `ALL(e IN relationships(q) WHERE P)` conjunct of the first WHERE to see
// the MATCH's rows — its own, or that of an immediately following WITH —
// when checking P during expansion provably changes nothing but speed.
// `input_fields` are the fields of the table the MATCH extends. nullopt
// when any exactness rule fails.
std::optional<PathFilter> PlanPathFilter(
    const SingleQuery& query, size_t index,
    const std::set<std::string>& input_fields) {
  const auto& match = std::get<MatchClause>(query.clauses[index]);
  // OPTIONAL MATCH pads a row when every match is filtered out.
  if (match.optional) return std::nullopt;
  // `shapes`: the variables every output row binds. `late`: those the
  // matcher binds only when a segment or pattern completes, so their
  // value mid-expansion is not the final one.
  Shapes shapes;
  for (const std::string& field : input_fields) shapes[field] = Shape::kValue;
  // The matcher evaluates property maps as it expands, so one that could
  // fail might raise its error only on a branch pruning cuts. Only maps
  // total over the input row, such as literals, are safe.
  const Shapes bound = shapes;
  auto total_map = [&](const auto& properties) {
    for (const auto& [key, value] : properties) {
      if (!TotalShape(*value, bound)) return false;
    }
    return true;
  };
  Shapes late;
  for (const PathPattern& path : match.patterns) {
    // Pruning would change which path is shortest.
    if (path.mode != PathMode::kNormal) return std::nullopt;
    // A path variable declared twice would leave the WHERE reading
    // whichever pattern the planner happened to complete last.
    if (!path.path_variable.empty() &&
        !late.emplace(path.path_variable, Shape::kPath).second) {
      return std::nullopt;
    }
    for (const NodePattern& np : path.nodes) {
      if (!total_map(np.properties)) return std::nullopt;
      if (!np.variable.empty()) shapes[np.variable] = Shape::kNode;
    }
    for (const RelPattern& rp : path.rels) {
      if (!total_map(rp.properties)) return std::nullopt;
      if (rp.variable.empty()) continue;
      if (rp.variable_length) {
        late[rp.variable] = Shape::kRelationshipList;
      } else {
        shapes[rp.variable] = Shape::kValue;
      }
    }
  }
  // A late binding overwrites whatever the name held before.
  for (const auto& [name, shape] : late) shapes[name] = shape;

  // The WHERE, and the WITH body it reads the rows through (null: the
  // MATCH's own WHERE reads the rows themselves). Between the MATCH and a
  // WITH's WHERE only the items are evaluated, so each must be unable to
  // fail on any row.
  const Expr* where = match.where.get();
  const ProjectionBody* body = nullptr;
  std::map<std::string, const Expr*> items;
  if (where == nullptr) {
    if (index + 1 >= query.clauses.size()) return std::nullopt;
    const auto* with = std::get_if<WithClause>(&query.clauses[index + 1]);
    if (with == nullptr || with->where == nullptr) return std::nullopt;
    body = &with->body;
    if (body->include_all || body->distinct || !body->order_by.empty() ||
        body->skip != nullptr || body->limit != nullptr) {
      return std::nullopt;
    }
    where = with->where.get();
    for (const ProjectionItem& item : body->items) {
      if (!TotalShape(*item.expr, shapes) ||
          !items.emplace(item.alias, item.expr.get()).second) {
        return std::nullopt;
      }
    }
  }
  // True when the WHERE reads `name` as the matcher's own binding: any
  // name for the MATCH's WHERE, an identity item (`v AS v`) for a WITH's.
  auto passes_through = [&](const std::string& name) {
    if (body == nullptr) return true;
    auto it = items.find(name);
    if (it == items.end()) return false;
    const auto* var = dynamic_cast<const VariableExpr*>(it->second);
    return var != nullptr && var->name() == name;
  };

  // The leftmost conjunct: evaluated first, and AND short-circuits on its
  // false, so nothing to its right can raise an error on a pruned row.
  const Expr* lead = where;
  while (const auto* conj = dynamic_cast<const BinaryExpr*>(lead)) {
    if (conj->op() != BinaryOp::kAnd) break;
    lead = &conj->lhs();
  }
  const auto* all = dynamic_cast<const QuantifierExpr*>(lead);
  if (all == nullptr || all->quantifier() != Quantifier::kAll) {
    return std::nullopt;
  }
  // The quantified list must be relationships(q), directly or through a
  // WITH alias, for a path q of this MATCH.
  const std::string* path = RelationshipsArgument(all->list());
  if (path != nullptr && !passes_through(*path)) return std::nullopt;
  if (path == nullptr && body != nullptr) {
    if (const auto* var = dynamic_cast<const VariableExpr*>(&all->list())) {
      auto it = items.find(var->name());
      if (it != items.end()) path = RelationshipsArgument(*it->second);
    }
  }
  auto shape = path == nullptr ? shapes.end() : shapes.find(*path);
  if (shape == shapes.end() || shape->second != Shape::kPath) {
    return std::nullopt;
  }

  std::set<std::string> reads;
  if (!CollectVariables(all->predicate(), &reads)) return std::nullopt;
  reads.erase(all->var());
  for (const std::string& name : reads) {
    if (late.contains(name) || !passes_through(name)) return std::nullopt;
  }
  PathFilter filter;
  filter.path_variable = *path;
  filter.element = all->var();
  filter.predicate = &all->predicate();
  filter.reads.assign(reads.begin(), reads.end());
  return filter;
}

// Lexicographic ordering for grouping keys.
struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

class Executor {
 public:
  Executor(const GraphResolver& resolver, const ExecutionOptions& options)
      : resolver_(resolver),
        options_(options),
        ctx_(&resolver.BaseGraph(), nullptr) {
    ctx_.set_parameters(&options_.parameters);
    ctx_.set_now(options_.now);
    ctx_.set_window(options_.window);
    ctx_.set_match_parallelism(options_.match_parallelism);
    ctx_.set_cancellation(options_.cancellation);
  }

  Result<Table> Run(const SingleQuery& query, const Table& input) {
    Table table = input;
    for (size_t i = 0; i < query.clauses.size(); ++i) {
      const Clause& clause = query.clauses[i];
      if (const auto* match = std::get_if<MatchClause>(&clause)) {
        std::optional<PathFilter> filter =
            PlanPathFilter(query, i, table.fields());
        SERAPH_ASSIGN_OR_RETURN(
            table, ApplyMatch(*match, i, table,
                              filter.has_value() ? &*filter : nullptr));
      } else if (const auto* unwind = std::get_if<UnwindClause>(&clause)) {
        SERAPH_ASSIGN_OR_RETURN(table, ApplyUnwind(*unwind, table));
      } else if (const auto* with = std::get_if<WithClause>(&clause)) {
        SERAPH_ASSIGN_OR_RETURN(table,
                                ApplyProjection(with->body, table));
        if (with->where != nullptr) {
          SERAPH_ASSIGN_OR_RETURN(table, ApplyWhere(*with->where, table));
        }
      }
    }
    return ApplyProjection(query.ret.body, table);
  }

  const ExecutionStats& stats() const { return stats_; }

 private:
  // ---- MATCH ----

  // `filter` (may be null) is pushed into path expansion; the WHERE it
  // came from still filters every row afterwards.
  Result<Table> ApplyMatch(const MatchClause& match, size_t clause_index,
                           const Table& input, const PathFilter* filter) {
    const PropertyGraph& graph = resolver_.GraphFor(match, clause_index);
    std::set<std::string> fields = input.fields();
    std::set<std::string> new_vars = PatternVariables(match.patterns);
    for (const std::string& v : new_vars) fields.insert(v);
    Table out(fields);
    MatchOptions match_options;
    match_options.optimize_pattern_order = options_.optimize_match_order;
    match_options.path_filter = filter;
    match_options.pruned = &stats_.pruned;
    if (filter != nullptr) stats_.pushdown = true;
    for (const Record& row : input.rows()) {
      std::vector<Record> matches;
      SERAPH_RETURN_IF_ERROR(MatchPatterns(match.patterns, graph, row, ctx_,
                                           &matches, match_options));
      size_t emitted = 0;
      for (Record& m : matches) {
        if (match.where != nullptr) {
          // The WHERE attached to MATCH filters each candidate match (and,
          // for OPTIONAL MATCH, participates in the "no match" decision).
          ctx_.set_record(&m);
          SERAPH_ASSIGN_OR_RETURN(Value cond, match.where->Eval(ctx_));
          if (!IsTruthy(cond)) continue;
        }
        // Ensure every pattern variable is present (anonymous paths keep
        // records uniform).
        for (const std::string& v : new_vars) {
          if (!m.Has(v)) m.Set(v, Value::Null());
        }
        out.AppendUnchecked(std::move(m));
        ++emitted;
      }
      if (emitted == 0 && match.optional) {
        Record padded = row;
        for (const std::string& v : new_vars) {
          if (!padded.Has(v)) padded.Set(v, Value::Null());
        }
        out.AppendUnchecked(std::move(padded));
      }
    }
    return out;
  }

  // ---- UNWIND ----

  Result<Table> ApplyUnwind(const UnwindClause& unwind, const Table& input) {
    std::set<std::string> fields = input.fields();
    fields.insert(unwind.alias);
    Table out(fields);
    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      SERAPH_ASSIGN_OR_RETURN(Value list, unwind.list->Eval(ctx_));
      if (list.is_null()) continue;
      if (!list.is_list()) {
        // UNWIND of a non-list value produces that single value.
        Record extended = row;
        extended.Set(unwind.alias, std::move(list));
        out.AppendUnchecked(std::move(extended));
        continue;
      }
      for (const Value& item : list.AsList()) {
        Record extended = row;
        extended.Set(unwind.alias, item);
        out.AppendUnchecked(std::move(extended));
      }
    }
    return out;
  }

  // ---- WHERE ----

  Result<Table> ApplyWhere(const Expr& predicate, const Table& input) {
    Table out(input.fields());
    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      SERAPH_ASSIGN_OR_RETURN(Value cond, predicate.Eval(ctx_));
      if (IsTruthy(cond)) out.AppendUnchecked(row);
    }
    return out;
  }

  // ---- WITH / RETURN projection ----

  Result<Table> ApplyProjection(const ProjectionBody& body,
                                const Table& input) {
    // Materialize the item list ('*' expands to every current field).
    std::vector<const ProjectionItem*> items;
    std::vector<ProjectionItem> star_items;
    if (body.include_all) {
      for (const std::string& field : input.fields()) {
        ProjectionItem item;
        item.expr = std::make_unique<VariableExpr>(field);
        item.alias = field;
        star_items.push_back(std::move(item));
      }
    }
    for (const ProjectionItem& item : star_items) items.push_back(&item);
    for (const ProjectionItem& item : body.items) items.push_back(&item);

    bool has_aggregates = false;
    for (const ProjectionItem* item : items) {
      if (item->expr->ContainsAggregate()) has_aggregates = true;
    }

    std::set<std::string> fields;
    for (const ProjectionItem* item : items) fields.insert(item->alias);
    Table out(fields);

    // For ORDER BY, Cypher lets sort keys reference pre-projection
    // variables (unless eliminated by DISTINCT or aggregation); we keep
    // the source record of each output row as sort context.
    std::vector<Record> order_context;
    if (!has_aggregates) {
      for (const Record& row : input.rows()) {
        ctx_.set_record(&row);
        Record projected;
        for (const ProjectionItem* item : items) {
          SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx_));
          projected.Set(item->alias, std::move(v));
        }
        out.AppendUnchecked(std::move(projected));
        order_context.push_back(row);
      }
    } else {
      SERAPH_ASSIGN_OR_RETURN(
          out, ApplyGroupedProjection(items, input, out, &order_context));
    }

    if (body.distinct) {
      out = out.Distinct();
      order_context.clear();  // No per-row source after dedup.
    }
    SERAPH_RETURN_IF_ERROR(ApplyOrderSkipLimit(body, &out, order_context));
    return out;
  }

  Result<Table> ApplyGroupedProjection(
      const std::vector<const ProjectionItem*>& items, const Table& input,
      Table out, std::vector<Record>* order_context) {
    // Split items into grouping keys (no aggregate inside) and aggregated
    // items; collect every aggregate call.
    std::vector<const ProjectionItem*> key_items;
    std::vector<const Expr*> aggregates;
    for (const ProjectionItem* item : items) {
      if (item->expr->ContainsAggregate()) {
        item->expr->CollectAggregates(&aggregates);
      } else {
        key_items.push_back(item);
      }
    }

    struct Group {
      Record representative;
      // Per aggregate call (parallel to `aggregates`): evaluated inputs.
      std::vector<std::vector<Value>> inputs;
      std::vector<std::optional<Value>> params;
      std::vector<int64_t> row_count;  // For count(*).
    };
    std::map<std::vector<Value>, Group, ValueVectorLess> groups;
    std::vector<const std::vector<Value>*> group_order;

    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      std::vector<Value> key;
      key.reserve(key_items.size());
      for (const ProjectionItem* item : key_items) {
        SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx_));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Group& group = it->second;
      if (inserted) {
        group.representative = row;
        group.inputs.resize(aggregates.size());
        group.params.resize(aggregates.size());
        group.row_count.assign(aggregates.size(), 0);
        group_order.push_back(&it->first);
      }
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const auto* call = static_cast<const FunctionCallExpr*>(aggregates[a]);
        ++group.row_count[a];
        if (call->count_star()) continue;
        if (call->args().empty()) {
          return Status::SemanticError("aggregate '" + call->name() +
                                       "' requires an argument");
        }
        SERAPH_ASSIGN_OR_RETURN(Value v, call->args()[0]->Eval(ctx_));
        group.inputs[a].push_back(std::move(v));
        if (call->args().size() > 1 && !group.params[a].has_value()) {
          SERAPH_ASSIGN_OR_RETURN(Value p, call->args()[1]->Eval(ctx_));
          group.params[a] = std::move(p);
        }
      }
    }

    // An aggregation with no grouping keys over an empty input still
    // produces one row (count(*) = 0 etc.).
    if (groups.empty() && key_items.empty()) {
      auto [it, inserted] = groups.try_emplace(std::vector<Value>{});
      Group& group = it->second;
      group.inputs.resize(aggregates.size());
      group.params.resize(aggregates.size());
      group.row_count.assign(aggregates.size(), 0);
      group_order.push_back(&it->first);
    }

    for (const std::vector<Value>* key : group_order) {
      Group& group = groups.at(*key);
      std::unordered_map<const Expr*, Value> results;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const auto* call = static_cast<const FunctionCallExpr*>(aggregates[a]);
        if (call->count_star()) {
          results[aggregates[a]] = Value::Int(group.row_count[a]);
          continue;
        }
        SERAPH_ASSIGN_OR_RETURN(
            Value v, ComputeAggregate(call->name(), call->distinct(),
                                      group.inputs[a], group.params[a]));
        results[aggregates[a]] = std::move(v);
      }
      ctx_.set_record(&group.representative);
      ctx_.set_aggregate_results(&results);
      Record projected;
      for (const ProjectionItem* item : items) {
        SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx_));
        projected.Set(item->alias, std::move(v));
      }
      ctx_.set_aggregate_results(nullptr);
      out.AppendUnchecked(std::move(projected));
      order_context->push_back(group.representative);
    }
    return out;
  }

  Status ApplyOrderSkipLimit(const ProjectionBody& body, Table* table,
                             const std::vector<Record>& order_context) {
    if (!body.order_by.empty()) {
      // Evaluate sort keys once per row against the projected record
      // extended with its source record (projected aliases shadow source
      // variables), so keys may reference pre-projection variables.
      struct Keyed {
        std::vector<Value> keys;
        Record row;
      };
      bool has_context = order_context.size() == table->size();
      std::vector<Keyed> keyed;
      keyed.reserve(table->size());
      for (size_t i = 0; i < table->rows().size(); ++i) {
        const Record& row = table->rows()[i];
        Record merged =
            has_context ? order_context[i].Extended(row) : row;
        ctx_.set_record(&merged);
        Keyed k;
        k.row = row;
        for (const OrderByItem& item : body.order_by) {
          SERAPH_ASSIGN_OR_RETURN(Value v, item.expr->Eval(ctx_));
          k.keys.push_back(std::move(v));
        }
        keyed.push_back(std::move(k));
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [&body](const Keyed& a, const Keyed& b) {
                         for (size_t i = 0; i < body.order_by.size(); ++i) {
                           int c = Value::Compare(a.keys[i], b.keys[i]);
                           if (c != 0) {
                             return body.order_by[i].ascending ? c < 0 : c > 0;
                           }
                         }
                         return false;
                       });
      Table sorted(table->fields());
      for (Keyed& k : keyed) sorted.AppendUnchecked(std::move(k.row));
      *table = std::move(sorted);
    }
    int64_t skip = 0;
    int64_t limit = -1;
    if (body.skip != nullptr) {
      ctx_.set_record(nullptr);
      SERAPH_ASSIGN_OR_RETURN(Value v, body.skip->Eval(ctx_));
      if (!v.is_int() || v.AsInt() < 0) {
        return Status::EvaluationError("SKIP requires a non-negative integer");
      }
      skip = v.AsInt();
    }
    if (body.limit != nullptr) {
      ctx_.set_record(nullptr);
      SERAPH_ASSIGN_OR_RETURN(Value v, body.limit->Eval(ctx_));
      if (!v.is_int() || v.AsInt() < 0) {
        return Status::EvaluationError(
            "LIMIT requires a non-negative integer");
      }
      limit = v.AsInt();
    }
    if (skip > 0 || limit >= 0) {
      Table sliced(table->fields());
      int64_t index = 0;
      for (const Record& row : table->rows()) {
        if (index++ < skip) continue;
        if (limit >= 0 &&
            static_cast<int64_t>(sliced.size()) >= limit) {
          break;
        }
        sliced.AppendUnchecked(row);
      }
      *table = std::move(sliced);
    }
    return Status::OK();
  }

  const GraphResolver& resolver_;
  ExecutionOptions options_;
  EvalContext ctx_;
  ExecutionStats stats_;
};

}  // namespace

Result<Table> ExecuteSingleQuery(const SingleQuery& query,
                                 const GraphResolver& resolver,
                                 const Table& input,
                                 const ExecutionOptions& options,
                                 ExecutionStats* stats) {
  Executor executor(resolver, options);
  Result<Table> result = executor.Run(query, input);
  if (stats != nullptr) *stats = executor.stats();
  return result;
}

Result<Table> ExecuteQuery(const Query& query, const GraphResolver& resolver,
                           const ExecutionOptions& options) {
  if (query.parts.empty()) {
    return Status::SemanticError("empty query");
  }
  SERAPH_ASSIGN_OR_RETURN(
      Table acc, ExecuteSingleQuery(query.parts[0], resolver, Table::Unit(),
                                    options));
  bool any_distinct_union = false;
  for (size_t i = 1; i < query.parts.size(); ++i) {
    SERAPH_ASSIGN_OR_RETURN(
        Table next, ExecuteSingleQuery(query.parts[i], resolver, Table::Unit(),
                                       options));
    if (acc.fields() != next.fields()) {
      return Status::SemanticError(
          "UNION parts must return the same column names");
    }
    if (!query.union_all[i - 1]) any_distinct_union = true;
    acc = Table::BagUnion(acc, next);
  }
  if (any_distinct_union) acc = acc.Distinct();
  return acc;
}

Result<Table> ExecuteQueryOnGraph(const Query& query,
                                  const PropertyGraph& graph,
                                  const ExecutionOptions& options) {
  SingleGraphResolver resolver(graph);
  return ExecuteQuery(query, resolver, options);
}

}  // namespace seraph
