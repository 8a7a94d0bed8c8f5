#include "common/node_set.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"

namespace scup {
namespace {

TEST(NodeSetTest, EmptyByDefault) {
  NodeSet s(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.universe_size(), 10u);
  EXPECT_EQ(s.min_member(), kInvalidProcess);
}

TEST(NodeSetTest, AddRemoveContains) {
  NodeSet s(100);
  s.add(0);
  s.add(63);
  s.add(64);
  s.add(99);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(50));
  s.remove(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.count(), 3u);
  // Removing a non-member or out-of-range id is a no-op.
  s.remove(63);
  s.remove(1000);
  EXPECT_EQ(s.count(), 3u);
}

TEST(NodeSetTest, AddOutOfRangeThrows) {
  NodeSet s(8);
  EXPECT_THROW(s.add(8), std::out_of_range);
  EXPECT_THROW(s.add(1000), std::out_of_range);
}

TEST(NodeSetTest, InitializerListAndVectorConstruction) {
  NodeSet a(8, {1, 3, 5});
  NodeSet b(8, std::vector<ProcessId>{1, 3, 5});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(NodeSetTest, FullSet) {
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    NodeSet s = NodeSet::full(n);
    EXPECT_EQ(s.count(), n) << "n=" << n;
    if (n > 0) {
      EXPECT_TRUE(s.contains(0));
      EXPECT_TRUE(s.contains(static_cast<ProcessId>(n - 1)));
    }
  }
}

TEST(NodeSetTest, SetAlgebra) {
  NodeSet a(10, {1, 2, 3});
  NodeSet b(10, {3, 4, 5});
  EXPECT_EQ((a | b), NodeSet(10, {1, 2, 3, 4, 5}));
  EXPECT_EQ((a & b), NodeSet(10, {3}));
  EXPECT_EQ((a - b), NodeSet(10, {1, 2}));
  EXPECT_EQ((b - a), NodeSet(10, {4, 5}));
}

TEST(NodeSetTest, MismatchedUniverseThrows) {
  NodeSet a(10);
  NodeSet b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW((void)a.subset_of(b), std::invalid_argument);
}

TEST(NodeSetTest, Complement) {
  NodeSet a(5, {0, 2, 4});
  EXPECT_EQ(a.complement(), NodeSet(5, {1, 3}));
  EXPECT_EQ(a.complement().complement(), a);
}

TEST(NodeSetTest, SubsetAndIntersection) {
  NodeSet a(10, {1, 2});
  NodeSet b(10, {1, 2, 3});
  NodeSet c(10, {4, 5});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(b.superset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(b.subset_of(a, 3));   // b \ {3} ⊆ a
  EXPECT_FALSE(b.subset_of(a, 9));  // excluding a non-member changes nothing
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.intersection_count(b), 2u);
  EXPECT_EQ(b.intersection_count(c), 0u);
}

TEST(NodeSetTest, IterationInOrder) {
  NodeSet s(200, {0, 7, 63, 64, 128, 199});
  std::vector<ProcessId> got;
  for (ProcessId p : s) got.push_back(p);
  EXPECT_EQ(got, (std::vector<ProcessId>{0, 7, 63, 64, 128, 199}));
  EXPECT_EQ(s.to_vector(), got);
}

TEST(NodeSetTest, MinMember) {
  NodeSet s(100);
  s.add(77);
  EXPECT_EQ(s.min_member(), 77u);
  s.add(12);
  EXPECT_EQ(s.min_member(), 12u);
}

TEST(NodeSetTest, OrderingAndHash) {
  NodeSet a(10, {1});
  NodeSet b(10, {2});
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  std::unordered_set<NodeSet> set;
  set.insert(a);
  set.insert(b);
  set.insert(a);
  EXPECT_EQ(set.size(), 2u);
}

TEST(NodeSetTest, ToString) {
  NodeSet s(10, {1, 5});
  EXPECT_EQ(s.to_string(), "{1, 5}");
  EXPECT_EQ(NodeSet(4).to_string(), "{}");
}

// Property test: random sets obey basic identities.
class NodeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeSetPropertyTest, AlgebraIdentities) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform(300);
  NodeSet a(n), b(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (rng.chance(0.4)) a.add(p);
    if (rng.chance(0.4)) b.add(p);
  }
  // De Morgan.
  EXPECT_EQ((a | b).complement(), (a.complement() & b.complement()));
  EXPECT_EQ((a & b).complement(), (a.complement() | b.complement()));
  // Difference via complement.
  EXPECT_EQ(a - b, a & b.complement());
  // Inclusion-exclusion on counts.
  EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
  // Intersection count consistency.
  EXPECT_EQ(a.intersection_count(b), (a & b).count());
  // Subset characterization, also with one member ignored.
  EXPECT_EQ(a.subset_of(b), (a - b).empty());
  const auto except = static_cast<ProcessId>(rng.uniform(n));
  NodeSet rest = a;
  rest.remove(except);
  EXPECT_EQ(a.subset_of(b, except), rest.subset_of(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeSetPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---- Word-boundary and degenerate-universe edge cases ----

TEST(NodeSetEdgeCaseTest, FullWithMultipleOf64Universe) {
  // universe % 64 == 0 means "no partial last word": the clear-tail-bits
  // step must be a no-op, not a 1ULL << 64 shift.
  for (const std::size_t universe : {64u, 128u, 192u}) {
    const NodeSet s = NodeSet::full(universe);
    EXPECT_EQ(s.count(), universe) << universe;
    EXPECT_TRUE(s.contains(0)) << universe;
    EXPECT_TRUE(s.contains(static_cast<ProcessId>(universe - 1))) << universe;
    EXPECT_FALSE(s.contains(static_cast<ProcessId>(universe))) << universe;
    EXPECT_TRUE(s.complement().empty()) << universe;
  }
}

TEST(NodeSetEdgeCaseTest, NextMemberAcrossWordBoundaries) {
  NodeSet s(200, {0, 63, 64, 127, 128, 191});
  // Iteration enumerates exactly the members, in order, across all three
  // word boundaries.
  const std::vector<ProcessId> expected{0, 63, 64, 127, 128, 191};
  EXPECT_EQ(s.to_vector(), expected);
  // min_member after removing the first member of a word must find the
  // next word's first member.
  s.remove(0);
  EXPECT_EQ(s.min_member(), 63u);
  s.remove(63);
  EXPECT_EQ(s.min_member(), 64u);
  s.remove(64);
  EXPECT_EQ(s.min_member(), 127u);
}

TEST(NodeSetEdgeCaseTest, IterationOverExactlyWordSizedUniverse) {
  NodeSet s(64, {63});
  std::size_t visits = 0;
  for (ProcessId p : s) {
    EXPECT_EQ(p, 63u);
    ++visits;
  }
  EXPECT_EQ(visits, 1u);
}

TEST(NodeSetEdgeCaseTest, UniverseZero) {
  NodeSet s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min_member(), kInvalidProcess);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.begin() == s.end());
  EXPECT_TRUE(s.to_vector().empty());
  EXPECT_EQ(NodeSet::full(0).count(), 0u);
  EXPECT_TRUE(s.complement().empty());
  EXPECT_EQ(s, NodeSet::full(0));
  EXPECT_THROW(s.add(0), std::out_of_range);
}

TEST(NodeSetEdgeCaseTest, ComplementNeverSetsBitsPastTheUniverse) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 100u, 128u}) {
    const NodeSet none(universe);
    const NodeSet all = none.complement();
    EXPECT_EQ(all.count(), universe) << universe;
    EXPECT_EQ(all, NodeSet::full(universe)) << universe;
    // Every member enumerated by iteration must be a legal id; a stray
    // tail bit would surface here as id >= universe.
    for (ProcessId p : all) {
      EXPECT_LT(p, universe);
    }
    // Complement of complement round-trips (tail bits would survive the
    // subtraction and break this).
    EXPECT_EQ(all.complement(), none) << universe;
    EXPECT_EQ(all.complement().count(), 0u) << universe;
  }
}

}  // namespace
}  // namespace scup
