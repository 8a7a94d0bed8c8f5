#include "graph/kosr.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"

namespace scup::graph {
namespace {

TEST(KosrTest, Fig2Is3Osr) {
  // The paper states Fig. 2 is a 3-OSR PD with sink {1,2,3,4}.
  const Digraph g = fig2_graph();
  const KosrReport report = check_kosr(g, 3);
  EXPECT_TRUE(report.weakly_connected);
  EXPECT_TRUE(report.single_sink);
  EXPECT_TRUE(report.sink_k_connected);
  EXPECT_TRUE(report.paths_to_sink);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sink, fig2_sink());
}

TEST(KosrTest, Fig1IsOsrWithSmallK) {
  // Fig. 1's sink {5,6,7,8} is 2-strongly connected; the graph is 1-OSR at
  // least (it is the paper's running example for f = 1 with the failure
  // outside critical paths).
  const Digraph g = fig1_graph();
  const KosrReport r1 = check_kosr(g, 1);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_EQ(r1.sink, fig1_sink());
}

TEST(KosrTest, DisconnectedFails) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const KosrReport r = check_kosr(g, 1);
  EXPECT_FALSE(r.weakly_connected);
  EXPECT_FALSE(r.ok());
}

TEST(KosrTest, TwoSinksFail) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.add_edge(0, 2);  // connect weakly: component A reaches B... B is sink
  // Now only one sink: {2,3}. Break it with an isolated extra sink:
  const KosrReport r = check_kosr(g, 1);
  EXPECT_TRUE(r.single_sink);
  // Add a second sink: node isolated except incoming edge.
  Digraph h(5);
  h.add_edge(0, 1);
  h.add_edge(1, 0);
  h.add_edge(0, 2);
  h.add_edge(0, 3);
  h.add_edge(3, 4);
  // sinks: {2} and {4}
  const KosrReport rh = check_kosr(h, 1);
  EXPECT_TRUE(rh.weakly_connected);
  EXPECT_FALSE(rh.single_sink);
  EXPECT_FALSE(rh.ok());
}

TEST(KosrTest, InsufficientSinkConnectivity) {
  // Sink is a directed cycle (1-connected); demand k = 2.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4);
  g.add_edge(4, 0);  // non-sink node 4 points in
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.single_sink);
  EXPECT_FALSE(r.sink_k_connected);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

TEST(KosrTest, InsufficientPathsFromNonSink) {
  // Sink = K4-ish circulant (2-connected); non-sink node has only 1 edge in.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) {
    g.add_edge(i, (i + 1) % 4);
    g.add_edge(i, (i + 2) % 4);
  }
  g.add_edge(4, 0);
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.sink_k_connected);
  EXPECT_FALSE(r.paths_to_sink);
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

TEST(KosrGeneratorTest, GeneratedGraphsPassChecker) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    KosrGenParams params;
    params.sink_size = 5;
    params.non_sink_size = 4;
    params.k = 2;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    const KosrReport r = check_kosr(g, params.k);
    EXPECT_TRUE(r.ok()) << "seed=" << seed << " " << r.to_string();
    EXPECT_EQ(r.sink.count(), params.sink_size);
    // Sink members are exactly ids [0, sink_size).
    for (ProcessId i = 0; i < params.sink_size; ++i) {
      EXPECT_TRUE(r.sink.contains(i));
    }
  }
}

TEST(KosrGeneratorTest, RejectsBadParameters) {
  KosrGenParams params;
  params.sink_size = 0;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
  params.sink_size = 3;
  params.k = 3;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
}

TEST(ByzantineSafetyTest, Fig2SafeForF1) {
  // Fig. 2 provides enough knowledge for f = 1 per the paper: whether the
  // faulty process is in the sink or not, the residual graph is 2-OSR.
  const Digraph g = fig2_graph();
  for (ProcessId victim = 0; victim < 7; ++victim) {
    NodeSet faulty(7, {victim});
    EXPECT_TRUE(is_byzantine_safe(g, faulty, 1)) << "victim=" << victim;
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, 1))
        << "victim=" << victim;
  }
}

TEST(ByzantineSafetyTest, TooManyFaultsRejected) {
  const Digraph g = fig2_graph();
  EXPECT_FALSE(is_byzantine_safe(g, NodeSet(7, {0, 1}), 1));
}

TEST(ByzantineSafetyTest, SinkNeeds2fPlus1Correct) {
  // A graph whose sink has only 2 correct members cannot satisfy the
  // BFT-CUP precondition for f = 1 even if k-OSR holds.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  NodeSet faulty(3, {1});
  EXPECT_FALSE(satisfies_bft_cup_preconditions(g, faulty, 1));
}

TEST(ByzantineSafetyTest, GeneratedFamiliesWithSafeFaultPlacement) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t f = 1;
    KosrGenParams params;
    params.sink_size = 3 * f + 2;  // tolerate in-sink faults
    params.non_sink_size = 3;
    params.k = 2 * f + 1;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    Rng rng(seed + 1000);
    const NodeSet sink = unique_sink_component(g);
    const NodeSet faulty =
        pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);
    EXPECT_EQ(faulty.count(), f);
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, f));
  }
}

/// Clause-by-clause reference for check_kosr with clause (4) asked one
/// (i, j) pair at a time through a fresh has_k_vertex_disjoint_paths.
KosrReport per_pair_kosr(const Digraph& g, std::size_t k,
                         const NodeSet& active) {
  KosrReport report;
  report.sink = NodeSet(g.node_count());
  report.weakly_connected = is_weakly_connected(g, active);
  const Condensation c = condense(g, active);
  report.single_sink = c.sink_components.size() == 1;
  if (!report.single_sink) return report;
  report.sink = c.scc.components[c.sink_components[0]];
  report.sink_k_connected = is_k_strongly_connected(g, k, report.sink);
  report.paths_to_sink = true;
  for (ProcessId i : active) {
    if (report.sink.contains(i)) continue;
    for (ProcessId j : report.sink) {
      if (!has_k_vertex_disjoint_paths(g, i, j, k, active)) {
        report.paths_to_sink = false;
        return report;
      }
    }
  }
  return report;
}

TEST(KosrTest, SharedFlowNetworkMatchesPerPairReference) {
  // Generated k-OSR graphs, some with a few non-sink → sink edges dropped
  // so that clause (4) fails, checked over the full set, over the
  // complement of a safe faulty set and over the complement of an
  // arbitrary one, for k around the generated connectivity.
  Rng rng(4242);
  std::size_t clause4_failures = 0;
  std::size_t clause4_passes = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t f = 1 + seed % 2;
    KosrGenParams params;
    params.sink_size = 3 * f + 2;
    params.non_sink_size = 6;
    params.k = 2 * f + 1;
    params.seed = seed;
    const Digraph base = random_kosr_graph(params);
    const std::size_t n = base.node_count();
    const NodeSet sink = unique_sink_component(base);
    Digraph g(n);
    for (ProcessId u = 0; u < n; ++u) {
      for (ProcessId v : base.successors(u)) {
        const bool droppable = seed % 3 == 0 && !sink.contains(u) &&
                               sink.contains(v);
        if (droppable && rng.uniform_range(0, 3) == 0) continue;
        g.add_edge(u, v);
      }
    }
    NodeSet arbitrary(n);
    for (ProcessId v = 0; v < n; ++v) {
      if (rng.uniform_range(0, 4) == 0) arbitrary.add(v);
    }
    const std::vector<NodeSet> actives = {
        NodeSet::full(n),
        pick_safe_faulty_set(base, sink, f, /*allow_in_sink=*/true, rng)
            .complement(),
        arbitrary.complement()};
    for (const NodeSet& active : actives) {
      for (std::size_t k = 1; k <= params.k + 1; ++k) {
        const KosrReport got = check_kosr(g, k, active);
        const KosrReport want = per_pair_kosr(g, k, active);
        ASSERT_EQ(got.to_string(), want.to_string())
            << "seed=" << seed << " k=" << k << " active=" << active;
        if (got.single_sink && got.sink_k_connected) {
          ++(got.paths_to_sink ? clause4_passes : clause4_failures);
        }
      }
    }
  }
  // Both outcomes of clause (4) were actually exercised.
  EXPECT_GT(clause4_failures, 0u);
  EXPECT_GT(clause4_passes, 0u);
}

}  // namespace
}  // namespace scup::graph
