// Tests of the benchmark's own parts: the percentile/tail-sample helper,
// the output digest, the span self-time arithmetic, and a tiny-size smoke
// run of every workload against its reference digest.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure.h"
#include "table/table.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<int64_t> v;
  for (int64_t i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.5), 1);
  EXPECT_EQ(Percentile({}, 99), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
  const std::vector<int64_t> odd = {1, 2, 3};
  EXPECT_EQ(Percentile(odd, 50), 2);
}

TEST(PercentileTest, TailSamples) {
  EXPECT_EQ(TailSamples(100, 99), 1);
  EXPECT_EQ(TailSamples(1000, 99), 10);
  EXPECT_EQ(TailSamples(1050, 99), 10);  // Rank ceil(1039.5) = 1040.
  EXPECT_EQ(TailSamples(0, 99), 0);
  EXPECT_EQ(TailSamples(1, 50), 0);
}

seraph::TimeAnnotatedTable Rows(std::vector<int64_t> ids) {
  seraph::Table table({"id"});
  for (int64_t id : ids) {
    seraph::Record row;
    row.Set("id", seraph::Value::Int(id));
    table.Append(std::move(row));
  }
  return seraph::TimeAnnotatedTable{
      std::move(table),
      seraph::TimeInterval{seraph::Timestamp::FromMillis(0),
                           seraph::Timestamp::FromMillis(10)}};
}

TEST(DigestTest, OrderAndContentSensitive) {
  const auto t = seraph::Timestamp::FromMillis(10);
  const uint64_t a = EmissionHash("q", t, Rows({1, 2}));
  EXPECT_EQ(a, EmissionHash("q", t, Rows({1, 2})));
  EXPECT_NE(a, EmissionHash("q", t, Rows({2, 1})));  // Row order counts.
  EXPECT_NE(a, EmissionHash("p", t, Rows({1, 2})));
  EXPECT_NE(a, EmissionHash("q", seraph::Timestamp::FromMillis(11),
                            Rows({1, 2})));
  Digest x, y;
  x.Add(1);
  x.Add(2);
  y.Add(2);
  y.Add(1);
  EXPECT_NE(x.Hex(), y.Hex());
  EXPECT_EQ(x.count(), 2);
  EXPECT_EQ(x.Hex().size(), 16u);
}

TEST(SpanLogTest, SelfTimeSubtractsNestedChildren) {
  SpanLog log(true, "run");
  log.Add("advance", "engine", 0, 100);
  log.Add("match", "match", 10, 60);   // Child of advance.
  log.Add("delta", "delta", 20, 30);   // Child of match.
  log.Add("sink", "sink", 70, 90);     // Child of advance.
  log.Add("worker", "match", 0, 50, 1);  // Other lane: top level.
  log.ResolveParents();
  const auto self = log.SelfMicrosByLayer();
  EXPECT_EQ(self.at("engine"), 100 - 50 - 20);
  EXPECT_EQ(self.at("match"), (50 - 10) + 50);
  EXPECT_EQ(self.at("delta"), 10);
  EXPECT_EQ(self.at("sink"), 20);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 1);
  EXPECT_EQ(log.spans()[4].parent, -1);
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {
 protected:
  RunConfig Config(uint64_t seed, bool trace) const {
    RunConfig config;
    config.workload = GetParam();
    config.seed = seed;
    config.seconds = 0;  // One pass.
    config.trace = trace;
    config.tiny = true;
    config.work_dir = ::testing::TempDir();
    return config;
  }
};

TEST_P(WorkloadSmokeTest, DigestIsDeterministicPerSeed) {
  auto a = ReferenceDigest(Config(1, false));
  auto b = ReferenceDigest(Config(1, false));
  auto c = ReferenceDigest(Config(2, false));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok() && c.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

TEST_P(WorkloadSmokeTest, RunMatchesReference) {
  for (bool trace : {false, true}) {
    const RunConfig config = Config(3, trace);
    auto reference = ReferenceDigest(config);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto report = RunWorkload(config, reference.value());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().correct);
    EXPECT_EQ(report.value().digest, reference.value());
    EXPECT_EQ(report.value().failed, 0);
    EXPECT_GT(report.value().attempted, 0);
    EXPECT_FALSE(report.value().metrics.empty());
    if (!trace) {
      for (const Metric& m : report.value().metrics) {
        EXPECT_GT(m.value, 0) << m.name;
      }
    }
  }
}

TEST_P(WorkloadSmokeTest, CorruptedDigestFailsTheRun) {
  const RunConfig config = Config(3, false);
  auto report = RunWorkload(config, "0000000000000000");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().correct);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
