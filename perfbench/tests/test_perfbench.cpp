// Tests of the benchmark's own logic: the tail-percentile rule, pass/fail
// counting, span self-time subtraction and the metric-name charset.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "reference.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, HighestRungWithTenSamplesBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  const Tail t = tail_percentile(one_to(100));
  EXPECT_EQ(t.per10k, 9000u);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, MoreSamplesReachHigherRungs) {
  EXPECT_EQ(tail_percentile(one_to(1000)).per10k, 9900u);  // 10 beyond p99
  EXPECT_EQ(tail_percentile(one_to(999)).per10k, 9500u);   // 9 beyond p99
  EXPECT_EQ(tail_percentile(one_to(184)).per10k, 9000u);   // 18 beyond p90
  const Tail big = tail_percentile(one_to(100000));
  EXPECT_EQ(big.per10k, 9999u);  // exactly 10 beyond p99.99
  EXPECT_EQ(big.beyond, 10u);
  EXPECT_EQ(tail_percentile(one_to(99999)).per10k, 9995u);  // 9 beyond p99.99
}

TEST(TailPercentile, TooFewSamplesFallsBackToMedianAndSaysSo) {
  const Tail t = tail_percentile(one_to(12));
  EXPECT_EQ(t.per10k, 5000u);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(TailPercentile, UnsortedInputAndNearestRank) {
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_percentile(v).value, 90.0);
  EXPECT_EQ(nearest_rank(one_to(10), 5000), 5.0);
  EXPECT_EQ(nearest_rank(one_to(10), 9900), 10.0);
  EXPECT_EQ(samples_beyond(20, 5000), 10u);
}

TEST(TailPercentile, Labels) {
  EXPECT_EQ(percentile_label(9000), "p90");
  EXPECT_EQ(percentile_label(9950), "p99.5");
  EXPECT_EQ(percentile_label(9995), "p99.95");
  EXPECT_EQ(percentile_label(9999), "p99.99");
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(CellTally, CountsFailuresAgainstAttempts) {
  CellTally tally;
  EXPECT_EQ(tally.fail_frac(), 0.0);
  for (int i = 0; i < 8; ++i) tally.record(i != 3 && i != 5);
  EXPECT_EQ(tally.attempted, 8u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_DOUBLE_EQ(tally.fail_frac(), 0.25);
  EXPECT_DOUBLE_EQ(tally.pass_frac(), 0.75);
}

TEST(SpanAccount, SelfTimeSubtractsDirectChildren) {
  // run_until [0,100) > handler [10,50) > on_send [20,25) and [30,32);
  //                   > handler [60,90) > on_send [70,80).
  SpanAccount a(kLayerCount);
  a.open(kRunUntil, 0);
  a.open(kScpHandler, 10);
  a.open(kOnSend, 20);
  a.close(25);
  a.open(kOnSend, 30);
  a.close(32);
  a.close(50);
  a.open(kCupHandler, 60);
  a.open(kOnSend, 70);
  a.close(80);
  a.close(90);
  a.close(100);
  EXPECT_EQ(a.depth(), 0u);
  EXPECT_EQ(a.self_ns(kRunUntil), 100u - 40u - 30u);
  EXPECT_EQ(a.self_ns(kScpHandler), 40u - 5u - 2u);
  EXPECT_EQ(a.self_ns(kCupHandler), 30u - 10u);
  EXPECT_EQ(a.self_ns(kOnSend), 17u);
  // Self times partition the root span.
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) sum += a.self_ns(l);
  EXPECT_EQ(sum, 100u);
}

TEST(SpanAccount, GrandchildrenAreNotSubtractedTwice) {
  SpanAccount a(3);
  a.open(0, 0);
  a.open(1, 10);
  a.open(2, 20);
  a.close(30);
  a.close(40);
  a.close(50);
  EXPECT_EQ(a.self_ns(0), 20u);
  EXPECT_EQ(a.self_ns(1), 20u);
  EXPECT_EQ(a.self_ns(2), 10u);
}

TEST(SpanAccount, AbsorbResetAndMisuse) {
  SpanAccount a(2), b(2);
  a.open(0, 0);
  a.close(5);
  a.count(1, 3);
  b.absorb(a);
  b.absorb(a);
  EXPECT_EQ(b.self_ns(0), 10u);
  EXPECT_EQ(b.counter(1), 6u);
  b.reset();
  EXPECT_EQ(b.self_ns(0), 0u);
  EXPECT_EQ(b.counter(1), 0u);
  EXPECT_THROW(b.close(1), std::logic_error);
  EXPECT_THROW(b.open(7, 0), std::out_of_range);
}

TEST(EngineSelf, SubtractsWorkerSpansFromWorkerDrains) {
  CellResult r;
  r.spans.main.open(kRunUntil, 0);
  r.spans.main.open(kCupHandler, 100);
  r.spans.main.close(400);
  r.spans.main.close(1000);
  r.spans.workers.open(kCupHandler, 0);
  r.spans.workers.close(250);
  r.shard.shard_drain_ns = {500, 300, 200};  // shard 0 runs on the caller
  EXPECT_NEAR(engine_self_s(r), (700 + (500 - 250)) * 1e-9, 1e-15);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("sim.shard.drain_imbalance"));
  EXPECT_TRUE(valid_metric_name("0-a.b_c"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name("p99%"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, EveryReportedNameIsValidAndUnique) {
  std::vector<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), d.name), 0) << d.name;
      seen.emplace_back(d.name);
    }
  }
}

TEST(ResultJson, ShapeAndFullPrecision) {
  CellTally tally;
  tally.record(true);
  const std::vector<MetricDef> defs = {{"a", "s"}, {"b.c", "count"}};
  const std::string json =
      result_json(true, tally, defs, {{"a", 0.1234567890123}, {"b.c", 7}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"a\": {\"value\": 0.1234567890123, \"unit\": "
            "\"s\"}, \"b.c\": {\"value\": 7, \"unit\": \"count\"}}}");
  EXPECT_THROW(result_json(true, tally, defs, {{"a", 1}}), std::logic_error);
}

TEST(Reference, SameWorkOnEveryThread) {
  const std::uint64_t expected = reference_checksum();
  EXPECT_EQ(reference_checksum(), expected);
  EXPECT_GT(reference_seconds(1), 0.0);
  EXPECT_GT(reference_seconds(3), 0.0);  // throws on a wrong checksum
}

TEST(Layers, TypeNamesAndTimers) {
  EXPECT_EQ(layer_of_type("cup.get_sink"), kSinkDetectorHandler);
  EXPECT_EQ(layer_of_type("cup.sink_value"), kSinkDetectorHandler);
  EXPECT_EQ(layer_of_type("cup.discover"), kCupHandler);
  EXPECT_EQ(layer_of_type("scp.slot.prepare"), kScpHandler);
  EXPECT_EQ(layer_of_type("pbft.commit"), kPbftHandler);
  EXPECT_EQ(layer_of_type("bftcup.decision"), kDissemHandler);
  EXPECT_EQ(layer_of_type("other"), kOtherHandler);
  EXPECT_EQ(layer_of_timer(300), kCupHandler);
  EXPECT_EQ(layer_of_timer(100), kScpTimer);
  EXPECT_EQ(layer_of_timer(10'001), kScpTimer);
  EXPECT_EQ(layer_of_timer(200), kBftTimer);
}

}  // namespace
}  // namespace perfbench
