// Path-filter pushdown (docs/INTERNALS.md, "Path-filter pushdown"): a
// leading `ALL(e IN relationships(q) WHERE P)` filter is checked while q
// is expanded, and a branch is cut only on a definite false. The oracle is
// the same query with a `WITH *` barrier right after the MATCH, which the
// planner never looks through: both must return the same table — content
// and row order — or fail with the same status, serially and under
// morsel-parallel matching, over random graphs whose relationship
// properties are missing, null, or of the wrong type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cypher/executor.h"
#include "cypher/matcher.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"

namespace seraph {
namespace {

// Round multiplier for fuzz loops; CI sets SERAPH_FUZZ_ROUNDS to fuzz
// harder under sanitizers without slowing local runs.
int FuzzRounds(int base) {
  if (const char* env = std::getenv("SERAPH_FUZZ_ROUNDS")) {
    long factor = std::strtol(env, nullptr, 10);
    if (factor > 1) return base * static_cast<int>(factor);
  }
  return base;
}

template <typename T>
const T& Pick(std::mt19937& rng, const std::vector<T>& options) {
  return options[rng() % options.size()];
}

bool Chance(std::mt19937& rng, int percent) {
  return static_cast<int>(rng() % 100) < percent;
}

// A property value that is usually a small integer, else missing (not
// inserted), null, a string, or a boolean.
void MaybeSetK(std::mt19937& rng, Value::Map* props) {
  int roll = static_cast<int>(rng() % 100);
  if (roll < 60) {
    (*props)["k"] = Value::Int(static_cast<int64_t>(rng() % 4));
  } else if (roll < 72) {
    (*props)["k"] = Value::Null();
  } else if (roll < 84) {
    (*props)["k"] = Value::String("s");
  } else if (roll < 90) {
    (*props)["k"] = Value::Bool(true);
  }
}

PropertyGraph RandomGraph(std::mt19937& rng) {
  const int num_nodes = 9;
  const int num_rels = 18;
  GraphBuilder builder;
  for (int i = 1; i <= num_nodes; ++i) {
    std::vector<std::string> labels;
    int roll = static_cast<int>(rng() % 10);
    if (roll < 5) {
      labels = {"A"};
    } else if (roll < 8) {
      labels = {"B"};
    }
    Value::Map props;
    MaybeSetK(rng, &props);
    builder.Node(i, labels, std::move(props));
  }
  for (int i = 1; i <= num_rels; ++i) {
    int64_t src = 1 + static_cast<int64_t>(rng() % num_nodes);
    int64_t trg = 1 + static_cast<int64_t>(rng() % num_nodes);
    Value::Map props;
    MaybeSetK(rng, &props);
    // `f`: a flag that is sometimes not a boolean at all.
    int roll = static_cast<int>(rng() % 100);
    if (roll < 60) {
      props["f"] = Value::Bool(rng() % 3 != 0);
    } else if (roll < 75) {
      props["f"] = Value::Null();
    } else if (roll < 90) {
      props["f"] = Value::Int(1);
    }
    builder.Rel(i, src, trg, rng() % 3 == 0 ? "Y" : "X", std::move(props));
  }
  return builder.Build();
}

// One generated query and its barrier twin.
struct Case {
  std::string query;
  std::string barrier;
  // True when a rule the planner enforces statically excludes the query
  // (so it must never be planned); false means "may or may not be".
  bool excluded = false;
};

// `-[body]->`, `<-[body]-`, or `-[body]-`.
std::string Rel(std::mt19937& rng, const std::string& body) {
  switch (rng() % 3) {
    case 0: return "-[" + body + "]->";
    case 1: return "<-[" + body + "]-";
    default: return "-[" + body + "]-";
  }
}

Case Generate(std::mt19937& rng) {
  Case c;
  // ---- The MATCH: which variables it binds, and its text. ----
  // Property maps: mostly none; else a literal, or one that reads a
  // variable and so may fail mid-expansion on a branch pruning would cut
  // (excluded).
  auto props = [&]() -> std::string {
    int roll = static_cast<int>(rng() % 100);
    if (roll < 88) return "";
    if (roll < 94) return " {k: 1}";
    c.excluded = true;
    return Pick<std::string>(
        rng, {" {k: 1 / 0}", " {k: 1 / a.k}", " {k: 1 / c.k}", " {k: a.k}"});
  };
  const std::string a = "(a:A" + props() + ")";
  const std::string cnode = "(c" + props() + ")";
  const std::string qprops = props();
  std::vector<std::string> vars;
  std::string head;
  switch (rng() % 4) {
    case 0: {  // A fixed hop binding r, then a variable-length q.
      std::string hops = Pick<std::string>(
          rng, {"*1..2", "*0..2", "*2..3", "*1..3", "*..2", "*3"});
      head = a + "-[r:X]->(b), q = (b)" + Rel(rng, ":X|Y" + hops + qprops) +
             cnode;
      vars = {"a", "r", "b", "c", "q"};
      break;
    }
    case 1: {  // A single variable-length path; unbounded ones directed.
      if (Chance(rng, 25)) {
        head = "q = " + a + "-[:X*2.." + qprops + "]->" + cnode;
      } else {
        std::string hops =
            Pick<std::string>(rng, {"*1..3", "*2..4", "*0..1", "*..3"});
        head = "q = " + a + Rel(rng, ":X|Y" + hops + qprops) + cnode;
      }
      vars = {"a", "c", "q"};
      break;
    }
    case 2: {  // A fixed-length q: two relationships, one named.
      head = a + "-[r:X]->(b), q = (b)" + Rel(rng, "s:X|Y" + qprops) + cnode +
             Rel(rng, ":X|Y") + "(d)";
      vars = {"a", "r", "b", "s", "c", "d", "q"};
      break;
    }
    default: {  // shortestPath: excluded.
      head = a + "-[r:X]->(b), q = shortestPath((b)-[:X|Y*..3" + qprops +
             "]-" + cnode + ")";
      vars = {"a", "r", "b", "c", "q"};
      c.excluded = true;
      break;
    }
  }
  const bool has_r =
      std::find(vars.begin(), vars.end(), "r") != vars.end();

  // ---- P: the per-relationship predicate. ----
  struct Pred {
    const char* text;
    bool excluded;  // Reads q or a pattern: never planned.
  };
  static const std::vector<Pred> kPreds = {
      {"e.k = r.k", false},
      {"e.k >= 1", false},
      {"e.k < 3", false},
      {"e.k IS NULL OR e.k < 2", false},
      {"e.k <> 0", false},
      {"type(e) = 'X'", false},
      {"e.k + 1 > 1", false},          // bool + int: an error.
      {"e.k / r.k >= 1", false},       // Division by zero: an error.
      {"e.f", false},                  // Sometimes not a boolean.
      {"NOT e.f", false},              // NOT of an int: an error.
      {"e.k = a.k", false},
      {"e.k <= c.k", false},           // c is bound after q's hops.
      {"e.k = $p", false},
      {"ANY(x IN [1, 2] WHERE x = e.k)", false},  // x is not projected.
      {"length(q) > 1 AND e.k > 0", true},
      {"exists((a)-[:Y]->()) AND e.k > 0", true},
  };
  const Pred& pred = Pick(rng, kPreds);
  if (pred.excluded) c.excluded = true;
  std::string p = pred.text;
  if (!has_r && p.find("r.k") != std::string::npos) {
    p = "e.k = a.k";  // Keep most queries free of unbound-variable errors.
  }

  // ---- The spelling: MATCH's own WHERE, or a WITH's (aliased/direct). --
  const int spelling = static_cast<int>(rng() % 3);
  std::string list = "relationships(q)";
  std::string items;
  std::vector<std::string> returned;
  bool optional = false;
  std::string modifiers;
  if (spelling != 0) {
    for (const std::string& v : vars) {
      if (v == "q" && spelling == 2) {
        items += (items.empty() ? "" : ", ") + v;  // Direct spelling.
        returned.push_back(v);
        continue;
      }
      // Mostly `v`; else `v AS v_`, `b AS r` (another variable under r's
      // name), or nothing.
      int roll = static_cast<int>(rng() % 10);
      if (roll < 7) {
        items += (items.empty() ? "" : ", ") + v;
        returned.push_back(v);
      } else if (roll < 8) {
        items += (items.empty() ? "" : ", ") + v + " AS " + v + "_";
        returned.push_back(v + "_");
      } else if (roll < 9 && v == "r") {
        items += (items.empty() ? "" : ", ") + std::string("b AS r");
        returned.push_back(v);
      }
    }
    if (spelling == 1) {
      items += std::string(items.empty() ? "" : ", ") +
               "relationships(q) AS rels";
      returned.push_back("rels");
      list = "rels";
    }
    // Items that provably cannot fail, Listing-5 style.
    if (Chance(rng, 25)) {
      items += ", [n IN nodes(q) WHERE 'B' IN labels(n) | n.k] AS hops";
      returned.push_back("hops");
    }
    if (Chance(rng, 8)) {  // Total, but outside the accepted forms.
      items += ", " + Pick<std::string>(rng, {"a.k", "type(r)", "length(q)"}) +
               " AS extra";
      returned.push_back("extra");
      c.excluded = true;
    }
    if (Chance(rng, 12)) {  // An item that can fail: excluded.
      items += ", " +
               Pick<std::string>(rng, {"a.k / 0", "a.k.x", "labels(a.k)",
                                       "[x IN a.k | x]"}) +
               " AS bad";
      returned.push_back("bad");
      c.excluded = true;
    }
    if (Chance(rng, 8)) {
      optional = true;
      c.excluded = true;
    }
    switch (rng() % 12) {
      case 0: modifiers = " LIMIT 3"; c.excluded = true; break;
      case 1: modifiers = " SKIP 1"; c.excluded = true; break;
      case 2: items = "DISTINCT " + items; c.excluded = true; break;
      case 3:
        items += ", count(*) AS n";
        returned.push_back("n");
        c.excluded = true;
        break;
      default: break;
    }
  } else {
    returned = vars;
  }

  // ---- W: where the ALL sits in the WHERE. ----
  std::string all = "ALL(e IN " + list + " WHERE " + p + ")";
  std::string extra = Pick<std::string>(
      rng, {"a.k > 0", "a.k IS NULL", "a.k / 0 = 1", "true"});
  std::string where;
  switch (rng() % 6) {
    case 0: where = all + " AND " + extra; break;
    case 1: where = extra + " AND " + all; c.excluded = true; break;
    case 2:
      where = "ANY(e IN " + list + " WHERE " + p + ")";
      c.excluded = true;
      break;
    case 3: where = all + " OR " + extra; c.excluded = true; break;
    default: where = all; break;
  }

  std::string ret;
  for (const std::string& name : returned) {
    ret += (ret.empty() ? "" : ", ") + name;
  }
  const std::string match = (optional ? "OPTIONAL MATCH " : "MATCH ") + head;
  if (spelling == 0) {
    c.query = match + " WHERE " + where + " RETURN " + ret;
    c.barrier = match + " WITH * WHERE " + where + " RETURN " + ret;
  } else {
    const std::string with =
        " WITH " + items + modifiers + " WHERE " + where + " RETURN " + ret;
    c.query = match + with;
    c.barrier = match + " WITH *" + with;
  }
  return c;
}

struct Outcome {
  Status status;
  Table table;
  ExecutionStats stats;
};

Outcome Execute(const std::string& text, const PropertyGraph& graph,
                const MatchParallelism* par) {
  Outcome out;
  auto parsed = ParseCypherQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " in " << text;
  if (!parsed.ok()) return out;
  EXPECT_EQ(parsed->parts.size(), 1u);
  ExecutionOptions options;
  options.match_parallelism = par;
  options.parameters["p"] = Value::Int(1);
  SingleGraphResolver resolver(graph);
  auto result = ExecuteSingleQuery(parsed->parts[0], resolver, Table::Unit(),
                                   options, &out.stats);
  out.status = result.status();
  if (result.ok()) out.table = std::move(result).value();
  return out;
}

// Same status (code and message), same fields, same rows in order.
void ExpectSameOutcome(const Outcome& a, const Outcome& b,
                       const std::string& context) {
  ASSERT_EQ(a.status.code(), b.status.code())
      << context << "\n  " << a.status << "\n  " << b.status;
  EXPECT_EQ(a.status.message(), b.status.message()) << context;
  EXPECT_EQ(a.table.fields(), b.table.fields()) << context;
  ASSERT_EQ(a.table.rows().size(), b.table.rows().size()) << context;
  for (size_t i = 0; i < a.table.rows().size(); ++i) {
    EXPECT_EQ(a.table.rows()[i], b.table.rows()[i]) << context << " row " << i;
  }
}

TEST(PathFilterPushdownTest, RandomizedOracleAgainstBarrier) {
  ThreadPool pool(4);
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1;  // Partition even these tiny seed domains.
  par.morsel_size = 1;
  std::mt19937 rng(20241017);
  int64_t pruned = 0;
  int planned = 0;
  int succeeded = 0;
  const int rounds = FuzzRounds(60);
  for (int round = 0; round < rounds; ++round) {
    PropertyGraph graph = RandomGraph(rng);
    for (int q = 0; q < 8; ++q) {
      Case c = Generate(rng);
      const std::string context = "round " + std::to_string(round) +
                                  "\n  query:   " + c.query +
                                  "\n  barrier: " + c.barrier;
      Outcome serial = Execute(c.query, graph, nullptr);
      Outcome barrier = Execute(c.barrier, graph, nullptr);
      Outcome parallel = Execute(c.query, graph, &par);
      Outcome barrier_parallel = Execute(c.barrier, graph, &par);
      ExpectSameOutcome(barrier, serial, context + "\n  (serial)");
      ExpectSameOutcome(barrier_parallel, parallel,
                        context + "\n  (4 threads)");
      ExpectSameOutcome(serial, parallel, context + "\n  (1 vs 4 threads)");
      EXPECT_FALSE(barrier.stats.pushdown) << context;
      EXPECT_FALSE(barrier_parallel.stats.pushdown) << context;
      if (c.excluded) {
        EXPECT_FALSE(serial.stats.pushdown) << context;
        EXPECT_EQ(serial.stats.pruned, 0) << context;
      }
      // Pruning is a function of the query and the graph only.
      EXPECT_EQ(serial.stats.pushdown, parallel.stats.pushdown) << context;
      EXPECT_EQ(serial.stats.pruned, parallel.stats.pruned) << context;
      if (serial.stats.pushdown) ++planned;
      if (serial.status.ok()) ++succeeded;
      pruned += serial.stats.pruned;
    }
  }
  // The oracle is only worth something if the pushdown actually fired.
  EXPECT_GT(planned, rounds);
  EXPECT_GT(pruned, 0);
  EXPECT_GT(succeeded, rounds);
}

// ---- Hand-written shapes ----

// a1 -[X k=1]-> b2 -[X k=1]-> c3 -[X k=2]-> d4, plus a second user's
// branch b2 -[Y k=2]-> e5: the k = r.k filter cuts everything on the
// second user's relationships.
PropertyGraph SmallGraph() {
  return GraphBuilder()
      .Node(1, {"A"}, {{"k", Value::Int(1)}})
      .Node(2, {"B"})
      .Node(3, {"B"})
      .Node(4, {"B"})
      .Node(5, {"B"})
      .Node(6, {"B"})
      .Rel(1, 1, 2, "X", {{"k", Value::Int(1)}})
      .Rel(2, 2, 3, "X", {{"k", Value::Int(1)}})
      .Rel(3, 3, 4, "X", {{"k", Value::Int(2)}})
      .Rel(4, 2, 5, "Y", {{"k", Value::Int(2)}})
      .Rel(5, 5, 6, "Y", {{"k", Value::Int(2)}})
      .Build();
}

TEST(PathFilterPushdownTest, EverySpellingPlansAndPrunes) {
  const PropertyGraph graph = SmallGraph();
  const std::string head =
      "MATCH (a:A)-[r:X]->(b), q = (b)-[:X|Y*1..3]->(c) ";
  const std::string p = "e.k = r.k";
  const std::vector<std::string> spellings = {
      // The MATCH's own WHERE.
      head + "WHERE ALL(e IN relationships(q) WHERE " + p + ") RETURN q",
      // A WITH aliasing relationships(q), with a trailing conjunct.
      head + "WITH r, q, relationships(q) AS rels WHERE ALL(e IN rels " +
          "WHERE " + p + ") AND r.k > 0 RETURN q",
      // A WITH keeping q itself.
      head + "WITH r, q WHERE ALL(e IN relationships(q) WHERE " + p +
          ") RETURN q",
      // Listing 5's shape: items that provably cannot fail ride along.
      head + "WITH r, q, relationships(q) AS rels, "
             "[n IN nodes(q) WHERE 'B' IN labels(n) | n.k] AS hops "
             "WHERE ALL(e IN rels WHERE " + p + ") RETURN q, hops",
      // A property map of literals cannot fail mid-expansion.
      "MATCH (a:A {k: 1})-[r:X]->(b), q = (b)-[:X|Y*1..3]->(c) "
      "WHERE ALL(e IN relationships(q) WHERE " + p + ") RETURN q",
  };
  for (const std::string& text : spellings) {
    Outcome out = Execute(text, graph, nullptr);
    ASSERT_TRUE(out.status.ok()) << out.status << " in " << text;
    EXPECT_TRUE(out.stats.pushdown) << text;
    // The Y branch at b2 is cut at its first hop; so is c3->d4 (k=2).
    EXPECT_EQ(out.stats.pruned, 2) << text;
    // q = b2->c3 only.
    ASSERT_EQ(out.table.size(), 1u) << text;
  }
}

TEST(PathFilterPushdownTest, ExcludedShapesAreNeverPlanned) {
  const PropertyGraph graph = SmallGraph();
  const std::string head =
      "MATCH (a:A)-[r:X]->(b), q = (b)-[:X|Y*1..3]->(c) ";
  const std::string all = "ALL(e IN relationships(q) WHERE e.k = r.k)";
  const std::vector<std::string> excluded = {
      // Not the leftmost conjunct.
      head + "WHERE r.k > 0 AND " + all + " RETURN q",
      // Not a conjunction.
      head + "WHERE " + all + " OR r.k > 5 RETURN q",
      // OPTIONAL MATCH pads rows the filter empties.
      "OPTIONAL " + head + "WITH r, q WHERE " + all + " RETURN q",
      // shortestPath: pruning would change which path is shortest.
      "MATCH (a:A)-[r:X]->(b), q = shortestPath((b)-[:X|Y*..3]->(c)) "
      "WHERE " + all + " RETURN q",
      // r is not projected as itself.
      head + "WITH r AS r2, q WHERE " + all + " RETURN q",
      // Items that might fail on some row: arithmetic, or a function
      // outside the provably-total set.
      head + "WITH r, q, r.k + 1 AS k1 WHERE " + all + " RETURN q",
      head + "WITH r, q, size(r.k) AS n WHERE " + all + " RETURN q",
      head + "WITH r, q, labels(r.k) AS l WHERE " + all + " RETURN q",
      head + "WITH r, q, [n IN r.k | n] AS l WHERE " + all + " RETURN q",
      // Items that cannot fail but lie outside the accepted forms.
      head + "WITH r, q, a.k AS ak WHERE " + all + " RETURN q",
      head + "WITH r, q, type(r) AS t WHERE " + all + " RETURN q",
      head + "WITH r, q, length(q) AS len WHERE " + all + " RETURN q",
      head + "WITH r, q, [x IN relationships(q) | x.k] AS ks WHERE " + all +
          " RETURN q",
      // Property maps the matcher evaluates mid-expansion and that might
      // fail, on the filtered path or on another pattern.
      "MATCH (a:A)-[r:X]->(b), q = (b)-[:X|Y*1..3]->(c {k: 1 / 0}) WHERE " +
          all + " RETURN q",
      "MATCH (a:A)-[r:X]->(b), q = (b)-[:X|Y*1..3 {k: 1 / a.k}]->(c) "
      "WHERE " + all + " RETURN q",
      head + ", (c)-[:X {w: 1 / c.k}]->(d) WHERE " + all + " RETURN q",
      "MATCH (a:A {k: $p})-[r:X]->(b), q = (b)-[:X|Y*1..3]->(c) WHERE " +
          all + " RETURN q",
      // DISTINCT, SKIP, LIMIT, '*', aggregation.
      head + "WITH DISTINCT r, q WHERE " + all + " RETURN q",
      head + "WITH r, q LIMIT 5 WHERE " + all + " RETURN q",
      head + "WITH r, q SKIP 0 WHERE " + all + " RETURN q",
      head + "WITH * WHERE " + all + " RETURN q",
      head + "WITH r, q, count(*) AS n WHERE " + all + " RETURN q",
      // P reads the path being built, or a pattern.
      head + "WHERE ALL(e IN relationships(q) WHERE length(q) > 9) RETURN q",
      head + "WHERE ALL(e IN relationships(q) WHERE exists((b)-->())) "
             "RETURN q",
      // q names two paths.
      head + ", q = (a)-[:X]->(d) WHERE " + all + " RETURN q",
      // The WITH is not immediately after the MATCH.
      head + "WITH * WITH r, q WHERE " + all + " RETURN q",
  };
  for (const std::string& text : excluded) {
    Outcome out = Execute(text, graph, nullptr);
    EXPECT_FALSE(out.stats.pushdown) << text;
    EXPECT_EQ(out.stats.pruned, 0) << text;
  }
}

TEST(PathFilterPushdownTest, FailingPropertyMapStillRaises) {
  // a1 -[X k=1]-> b2 -[X k=2]-> c3: every endpoint the variable-length
  // hop reaches makes the map divide by zero. Pruning b2->c3 (k <> r.k)
  // would leave no endpoint to try and turn the error into an empty
  // table, so the query must not be planned.
  const PropertyGraph graph = GraphBuilder()
                                  .Node(1, {"A"})
                                  .Node(2, {"B"})
                                  .Node(3, {"B"})
                                  .Rel(1, 1, 2, "X", {{"k", Value::Int(1)}})
                                  .Rel(2, 2, 3, "X", {{"k", Value::Int(2)}})
                                  .Build();
  const std::string match =
      "MATCH (a:A)-[r:X]->(b), q = (b)-[:X*1..2]->(c {k: 1 / 0}) ";
  const std::string rest =
      "WHERE ALL(e IN relationships(q) WHERE e.k = r.k) RETURN q";
  Outcome out = Execute(match + rest, graph, nullptr);
  Outcome barrier = Execute(match + "WITH * " + rest, graph, nullptr);
  EXPECT_FALSE(out.stats.pushdown);
  EXPECT_EQ(out.status.code(), StatusCode::kEvaluationError) << out.status;
  ExpectSameOutcome(barrier, out, match + rest);
}

TEST(PathFilterPushdownTest, ErrorBeforeFalseStillRaises) {
  // a1 -[k=0]-> b2 -[k=middle]-> c3 -[k=9]-> d4: the predicate is true on
  // the first hop and false on the last.
  auto chain = [](Value middle) {
    return GraphBuilder()
        .Node(1, {"A"})
        .Node(2, {"B"})
        .Node(3, {"B"})
        .Node(4, {"B"})
        .Rel(1, 1, 2, "X", {{"k", Value::Int(0)}})
        .Rel(2, 2, 3, "X", {{"k", std::move(middle)}})
        .Rel(3, 3, 4, "X", {{"k", Value::Int(9)}})
        .Build();
  };
  const std::string query =
      "MATCH q = (a:A)-[:X*3]->(d) "
      "WHERE ALL(e IN relationships(q) WHERE e.k / 1 < 3) RETURN q";
  // A string in the middle: ALL raises at the second element, so the
  // trail must not be pruned at the third — the query fails exactly as
  // without the pushdown.
  Outcome out = Execute(query, chain(Value::String("s")), nullptr);
  EXPECT_TRUE(out.stats.pushdown);
  EXPECT_EQ(out.stats.pruned, 0);
  EXPECT_EQ(out.status.code(), StatusCode::kEvaluationError) << out.status;
  // A null in the middle keeps pruning alive: the false last hop is cut.
  Outcome cut = Execute(query, chain(Value::Null()), nullptr);
  ASSERT_TRUE(cut.status.ok()) << cut.status;
  EXPECT_EQ(cut.stats.pruned, 1);
  EXPECT_EQ(cut.table.size(), 0u);
}

TEST(PathFilterPushdownTest, PathVariableShadowsNodeOfTheSameName) {
  // `q` first binds the seed node, then the whole path: on every output
  // row it is a path, so `q.k` fails there and the item must not count as
  // total — otherwise pruning the only row would swallow the error.
  const PropertyGraph graph = GraphBuilder()
                                  .Node(1, {"A"}, {{"k", Value::Int(1)}})
                                  .Node(2, {"B"})
                                  .Node(3, {"B"})
                                  .Rel(1, 1, 2, "X", {{"k", Value::Int(1)}})
                                  .Rel(2, 2, 3, "X", {{"k", Value::Int(5)}})
                                  .Build();
  Outcome out = Execute(
      "MATCH q = (q:A)-[:X]->(b), p = (b)-[:X]->(c) WITH p, q.k AS k "
      "WHERE ALL(e IN relationships(p) WHERE e.k = 1) RETURN k",
      graph, nullptr);
  EXPECT_FALSE(out.stats.pushdown);
  EXPECT_EQ(out.status.code(), StatusCode::kEvaluationError) << out.status;
}

TEST(PathFilterPushdownTest, ReadsNotYetBoundNeverPrune) {
  // `win_end` names a node the pattern binds only at its end; before that
  // the name would resolve to the window bound, a datetime, on which P is
  // false. P must not be trusted until every variable it reads is bound:
  // on the final row P is true (the node comparison is null).
  const PropertyGraph graph = GraphBuilder()
                                  .Node(1, {"A"})
                                  .Node(2, {"B"})
                                  .Rel(1, 1, 2, "X")
                                  .Build();
  auto parsed = ParseCypherQuery(
      "MATCH q = (a:A)-[:X]->(win_end) WHERE ALL(e IN relationships(q) "
      "WHERE coalesce(win_end > datetime('1970-01-01T00:00'), false) = "
      "false) RETURN q");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExecutionOptions options;
  options.window = TimeInterval{Timestamp::FromMillis(0),
                                Timestamp::FromMillis(60'000)};
  SingleGraphResolver resolver(graph);
  ExecutionStats stats;
  auto result = ExecuteSingleQuery(parsed->parts[0], resolver, Table::Unit(),
                                   options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(stats.pushdown);
  EXPECT_EQ(stats.pruned, 0);
  EXPECT_EQ(result->size(), 1u);
}

}  // namespace
}  // namespace seraph
