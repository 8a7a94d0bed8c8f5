// Behaviour-identity pins for the SCP hot path. The nomination value index,
// the delta-driven support views and the scratch-buffer steps in ScpNode are
// pure speed work: every QuorumEngine query must be made with the same
// arguments, in the same order, as the straightforward rescan formulation.
// A reordered query shows up in the engine counters folded into SimMetrics
// (closure runs and hits, qset evals, support updates/rebuilds) and usually
// in the Notary sign log and decision times as well, so this suite pins all
// of them for four Stellar+SD cells and one ledger chain.
//
// The pinned values were recorded from the rescan formulation. A change that
// moves any of them changes the protocol's behaviour and must say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/adversaries.hpp"
#include "core/experiment.hpp"
#include "core/ledger_node.hpp"
#include "sim/simulation.hpp"
#include "pin_digest.hpp"

namespace scup::core {
namespace {

using pin::Fold;
using pin::metrics_digest;

ScenarioConfig stellar_cell(std::uint64_t seed) {
  LargeScaleParams p;
  p.n = 16;
  p.f = 1;
  p.sink_fraction = 0.5;
  p.seed = seed;
  p.protocol = ProtocolKind::kStellarSd;
  return large_scale_scenario(p);
}

struct OneShotPin {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t metrics;
  std::uint64_t decisions;  // fold of every process's decision time
};

class ScpHotPathPinTest : public ::testing::TestWithParam<OneShotPin> {};

TEST_P(ScpHotPathPinTest, StellarCellIsBitIdentical) {
  const OneShotPin& pin = GetParam();
  const ScenarioReport report = run_scenario(stellar_cell(pin.seed));
  ASSERT_TRUE(report.all_decided && report.agreement && report.validity);
  Fold decisions;
  for (SimTime t : report.decision_times) decisions.add(t);
  EXPECT_EQ(report.notary_fingerprint, pin.fingerprint) << "seed " << pin.seed;
  EXPECT_EQ(metrics_digest(report.metrics), pin.metrics) << "seed " << pin.seed;
  EXPECT_EQ(decisions.value(), pin.decisions) << "seed " << pin.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScpHotPathPinTest,
    ::testing::Values(OneShotPin{1001, 276048405u, 9206793236884692969u,
                                 16091533509644892207u},
                      OneShotPin{1002, 276048405u, 13357503371221786093u,
                                 14949926793012391750u},
                      OneShotPin{1003, 276048405u, 6441881501939327207u,
                                 8792303218360506832u},
                      OneShotPin{1004, 276048405u, 17268964021706758963u,
                                 10858731673459199611u}),
    [](const ::testing::TestParamInfo<OneShotPin>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(ScpHotPathPinTest, LedgerChainIsBitIdentical) {
  constexpr std::size_t kSlots = 6;
  constexpr std::uint64_t kSeed = 1001;
  const ScenarioConfig cfg = stellar_cell(kSeed);
  const std::size_t n = cfg.graph.node_count();
  sim::Simulation sim(n, cfg.net);
  std::vector<LedgerNode*> nodes(n, nullptr);
  for (ProcessId i = 0; i < n; ++i) {
    if (cfg.faulty.contains(i)) {
      sim.emplace_process<SilentNode>(i);
      continue;
    }
    nodes[i] = &sim.emplace_process<LedgerNode>(i, cfg.graph.pd_of(i), cfg.f,
                                                kSlots);
    // 16 contending proposals per slot.
    nodes[i]->set_value_provider([i](std::uint64_t slot) {
      return hash_mix(0xE13, kSeed ^ slot, i % 16) | 1;
    });
  }
  const NodeSet correct = cfg.faulty.complement();
  sim.start();
  ASSERT_TRUE(sim.run_until(
      [&] {
        for (ProcessId i : correct) {
          if (nodes[i]->decided_slots() < kSlots) return false;
        }
        return true;
      },
      cfg.deadline * 4, /*stride=*/64));
  Fold closes;
  for (ProcessId i : correct) {
    EXPECT_EQ(nodes[i]->chain_digest(),
              nodes[correct.min_member()]->chain_digest());
    closes.add(nodes[i]->last_close_time());
  }
  EXPECT_EQ(nodes[correct.min_member()]->chain_digest(),
            4420980557565763113u);
  EXPECT_EQ(sim.notary().fingerprint(), 276048405u);
  EXPECT_EQ(metrics_digest(sim.metrics()), 158502097977547663u);
  EXPECT_EQ(closes.value(), 14245052616628965433u);
}

}  // namespace
}  // namespace scup::core
