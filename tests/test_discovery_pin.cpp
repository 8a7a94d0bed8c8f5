// Behaviour-identity pins for the sink-discovery path (cup::SinkDiscovery
// under the BFT-CUP baseline). The certificate table, the gossip payload
// layout and the incremental reachability set are pure speed work: every
// certificate must merge into the same certified graph, in the same edge
// order, and every DISCOVER/KNOWN must go out to the same peers in the same
// order as with the map-and-rescan formulation. A difference shows up in
// the message and byte counts, the discovery payload counters folded into
// SimMetrics, the Notary sign log (PBFT signs after the sink is known) and
// the decision times, so this suite pins all of them for three BFT-CUP
// cells and one churn/partition/loss cell on the 4-shard engine.
//
// On these paths the Notary fingerprint differs per cell, so it is a live
// witness (on the Stellar paths of test_scp_pin it is a constant).
//
// The pinned values were recorded from the map-and-rescan formulation. A
// change that moves any of them changes the protocol's behaviour and must
// say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/experiment.hpp"
#include "pin_digest.hpp"

namespace scup::core {
namespace {

using pin::Fold;
using pin::metrics_digest;

struct DiscoveryPin {
  std::string name;
  ScenarioConfig config;
  std::uint64_t fingerprint;
  std::uint64_t metrics;
  std::uint64_t decisions;  // fold of every process's decision time
};

void PrintTo(const DiscoveryPin& pin, std::ostream* os) { *os << pin.name; }

ScenarioConfig bftcup_cell(std::uint64_t seed) {
  LargeScaleParams p;
  p.n = 64;
  p.f = 1;
  p.sink_fraction = 0.5;
  p.seed = seed;
  p.protocol = ProtocolKind::kBftCup;
  return large_scale_scenario(p);
}

/// Late arrivals, half the sink cut until GST and pre-GST loss (so the
/// requery timer runs), on the sharded engine.
ScenarioConfig churn_cell(std::uint64_t seed) {
  ChurnPartitionParams p;
  p.n = 64;
  p.f = 1;
  p.protocol = ProtocolKind::kBftCup;
  p.late_fraction = 0.5;
  p.with_partition = true;
  p.pre_gst_drop = 0.1;
  p.gst = 2'000;
  p.seed = seed;
  ScenarioConfig cfg = churn_partition_scenario(p);
  cfg.shards = 4;
  return cfg;
}

class DiscoveryPathPinTest : public ::testing::TestWithParam<DiscoveryPin> {};

TEST_P(DiscoveryPathPinTest, CellIsBitIdentical) {
  const DiscoveryPin& pin = GetParam();
  const ScenarioReport report = run_scenario(pin.config);
  ASSERT_TRUE(report.all_decided && report.agreement && report.validity);
  ASSERT_TRUE(report.sd_all_returned && report.sd_sink_exact);
  Fold decisions;
  for (SimTime t : report.decision_times) decisions.add(t);
  EXPECT_EQ(report.notary_fingerprint, pin.fingerprint) << pin.name;
  EXPECT_EQ(metrics_digest(report.metrics), pin.metrics) << pin.name;
  EXPECT_EQ(decisions.value(), pin.decisions) << pin.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DiscoveryPathPinTest,
    ::testing::Values(
        DiscoveryPin{"bftcup_seed1001", bftcup_cell(1001),
                     16617937749937413836u, 6292716357890658286u,
                     7832307469162972307u},
        DiscoveryPin{"bftcup_seed1002", bftcup_cell(1002),
                     4297790239165344014u, 9700291929842837855u,
                     776550247791321751u},
        DiscoveryPin{"bftcup_seed1003", bftcup_cell(1003),
                     13486503740623706914u, 9369284650939094560u,
                     1577446707865609923u},
        DiscoveryPin{"churn_shards4_seed1001", churn_cell(1001),
                     2685106981183250615u, 13104272011746265969u,
                     11044881203475977223u}),
    [](const ::testing::TestParamInfo<DiscoveryPin>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace scup::core
