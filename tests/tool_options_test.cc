// The tools' shared flag layer (tools/tool_common.h): every flag rejects
// malformed and out-of-range values instead of running with a truncated
// or wrapped one, and the thread-count bound holds for the flags and
// their environment mirrors alike. Parse-level only: nothing here builds
// an engine or starts a thread.
#include "tool_common.h"

#include <cstdlib>

#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace seraph {
namespace tool {
namespace {

// Parses `args` with `table`; returns the status (positionals ignored).
Status ParseWith(const FlagTable& table, std::vector<std::string> args) {
  std::vector<std::string> positional;
  bool help = false;
  return table.Parse(args, &positional, &help);
}

class ToolOptionsTest : public ::testing::Test {
 protected:
  // The mirrors must not leak in from the environment running the suite.
  void SetUp() override {
    unsetenv("SERAPH_EVAL_THREADS");
    unsetenv("SERAPH_MATCH_THREADS");
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ToolOptionsTest, ParseInt64RejectsGarbageAndOverflow) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  for (const char* bad : {"", "abc", "12abc", "2s", " 5", "+5", "5 ", "-",
                          "1-2", "--5", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad, &v)) << "'" << bad << "'";
  }
}

TEST_F(ToolOptionsTest, HarnessRejectsMalformedNumbers) {
  HarnessOptions options;
  const FlagTable table = HarnessFlags(&options);
  // Each of these used to run: abc → an ephemeral port, 12abc → 12,
  // 2s → 2 (atoi/atoll stop at the first non-digit).
  EXPECT_FALSE(ParseWith(table, {"--metrics-port=abc"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--queue-capacity=12abc"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--duration-sec=2s"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--metrics-port=65536"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--rate=0"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--rate=5x"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--overflow-policy=drop"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--shards"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--no-such-flag=1"}).ok());
  EXPECT_FALSE(ParseWith(table, {"stray"}).ok());

  HarnessOptions good;
  ASSERT_TRUE(ParseWith(HarnessFlags(&good),
                        {"--metrics-port=0", "--queue-capacity=12",
                         "--duration-sec=2", "--rate=2500", "--shards=2",
                         "--overflow-policy=shed_oldest",
                         "--shed-lag-ms=2000"})
                  .ok());
  EXPECT_EQ(good.metrics_port, 0);
  EXPECT_EQ(good.fleet.queue.capacity, 12);
  EXPECT_EQ(good.duration_sec, 2);
  EXPECT_EQ(good.rate, 2500);
  EXPECT_EQ(good.fleet.shards, 2);
  EXPECT_EQ(good.fleet.queue.overflow_policy, OverflowPolicy::kShedOldest);
  EXPECT_EQ(good.fleet.shed_lag_millis, 2000);
}

TEST_F(ToolOptionsTest, RunRejectsTrailingGarbageAndWrappingThreads) {
  RunOptions options;
  const FlagTable table = RunFlags(&options);
  EXPECT_FALSE(ParseWith(table, {"--progress=5x"}).ok());
  // 2^32 + 1 used to wrap through a long → int cast to 1 thread.
  EXPECT_FALSE(ParseWith(table, {"--threads=4294967297"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--match-threads=4294967297"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--checkpoint-every=0"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--csv=1"}).ok());
  EXPECT_FALSE(ParseWith(table, {"--trace="}).ok());

  RunOptions good;
  std::vector<std::string> positional;
  bool help = false;
  ASSERT_TRUE(RunFlags(&good)
                  .Parse({"q.seraph", "--progress=5", "--csv", "e.log",
                          "--threads=4"},
                         &positional, &help)
                  .ok());
  EXPECT_EQ(good.progress, 5);
  EXPECT_TRUE(good.csv);
  EXPECT_EQ(good.fleet.engine.eval_threads, 4);
  EXPECT_EQ(positional, (std::vector<std::string>{"q.seraph", "e.log"}));
  EXPECT_FALSE(help);
}

TEST_F(ToolOptionsTest, ThreadFlagsShareOneBoundWithTheirMirrors) {
  const std::string max = std::to_string(ThreadPool::kMaxThreads);
  const std::string over = std::to_string(ThreadPool::kMaxThreads + 1);
  for (const char* flag : {"--threads=", "--match-threads="}) {
    RunOptions run;
    EXPECT_TRUE(ParseWith(RunFlags(&run), {flag + max}).ok()) << flag;
    EXPECT_FALSE(ParseWith(RunFlags(&run), {flag + over}).ok()) << flag;
    ServeOptions serve;
    EXPECT_TRUE(ParseWith(ServeFlags(&serve), {flag + max}).ok()) << flag;
    EXPECT_FALSE(ParseWith(ServeFlags(&serve), {flag + over}).ok()) << flag;
  }
  for (const char* env : {"SERAPH_EVAL_THREADS", "SERAPH_MATCH_THREADS"}) {
    RunOptions run;
    setenv(env, over.c_str(), 1);
    Status status = ParseWith(RunFlags(&run), {});
    EXPECT_FALSE(status.ok()) << env;
    EXPECT_NE(status.message().find(env), std::string::npos);
    setenv(env, "3x", 1);
    EXPECT_FALSE(ParseWith(RunFlags(&run), {}).ok()) << env;
    unsetenv(env);
  }
}

TEST_F(ToolOptionsTest, FlagBeatsEnvironmentBeatsDefault) {
  RunOptions defaults;
  ASSERT_TRUE(ParseWith(RunFlags(&defaults), {}).ok());
  EXPECT_EQ(defaults.fleet.engine.eval_threads, 1);

  setenv("SERAPH_EVAL_THREADS", "3", 1);
  RunOptions from_env;
  ASSERT_TRUE(ParseWith(RunFlags(&from_env), {}).ok());
  EXPECT_EQ(from_env.fleet.engine.eval_threads, 3);
  RunOptions from_flag;
  ASSERT_TRUE(ParseWith(RunFlags(&from_flag), {"--threads=2"}).ok());
  EXPECT_EQ(from_flag.fleet.engine.eval_threads, 2);
}

TEST_F(ToolOptionsTest, UsageIsGeneratedFromTheTable) {
  RunOptions run;
  const std::string usage = RunFlags(&run).Usage();
  EXPECT_NE(usage.find("usage: seraph_run"), std::string::npos);
  for (const char* text :
       {"--csv", "--threads=<n>", "[0..4096]", "env SERAPH_EVAL_THREADS",
        "--overflow-policy=<block|reject|shed_oldest>", "--restore"}) {
    EXPECT_NE(usage.find(text), std::string::npos) << text;
  }
  HarnessOptions harness;
  bool help = false;
  std::vector<std::string> positional;
  ASSERT_TRUE(HarnessFlags(&harness)
                  .Parse({"--help", "--bogus"}, &positional, &help)
                  .ok());
  EXPECT_TRUE(help);
}

}  // namespace
}  // namespace tool
}  // namespace seraph
