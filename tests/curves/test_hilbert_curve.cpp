#include "sfc/curves/hilbert_curve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sfc/curves/hilbert_skilling.h"
#include "sfc/rng/xoshiro256.h"

namespace sfc {
namespace {

class HilbertContinuity : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HilbertContinuity, ConsecutiveKeysAreNearestNeighbors) {
  const auto [d, k] = GetParam();
  const Universe u = Universe::pow2(d, k);
  const HilbertCurve h(u);
  for (index_t key = 1; key < u.cell_count(); ++key) {
    ASSERT_EQ(manhattan_distance(h.point_at(key - 1), h.point_at(key)), 1u)
        << "d=" << d << " k=" << k << " key=" << key;
  }
}

TEST_P(HilbertContinuity, Bijective) {
  const auto [d, k] = GetParam();
  const Universe u = Universe::pow2(d, k);
  const HilbertCurve h(u);
  std::vector<bool> seen(u.cell_count(), false);
  for (index_t id = 0; id < u.cell_count(); ++id) {
    const Point p = u.from_row_major(id);
    const index_t key = h.index_of(p);
    ASSERT_LT(key, u.cell_count());
    ASSERT_FALSE(seen[key]);
    seen[key] = true;
    ASSERT_EQ(h.point_at(key), p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndLevels, HilbertContinuity,
    ::testing::Values(std::pair{2, 1}, std::pair{2, 2}, std::pair{2, 3},
                      std::pair{2, 4}, std::pair{3, 1}, std::pair{3, 2},
                      std::pair{3, 3}, std::pair{4, 1}, std::pair{4, 2},
                      std::pair{5, 1}, std::pair{5, 2}, std::pair{6, 1}),
    [](const auto& name_info) {
      return "d" + std::to_string(name_info.param.first) + "_k" +
             std::to_string(name_info.param.second);
    });

TEST(HilbertCurve, StartsAtOrigin) {
  for (int d = 2; d <= 5; ++d) {
    const Universe u = Universe::pow2(d, 2);
    const HilbertCurve h(u);
    EXPECT_EQ(u.row_major_index(h.point_at(0)), 0u) << "d=" << d;
  }
}

TEST(HilbertCurve, TwoDimFirstQuadrantStaysTogether) {
  // The first quarter of the keys covers exactly one 2^{k-1} quadrant — the
  // defining recursive property of the Hilbert construction.
  const Universe u = Universe::pow2(2, 3);
  const HilbertCurve h(u);
  const index_t quarter = u.cell_count() / 4;
  // Identify the quadrant of key 0.
  const Point first = h.point_at(0);
  const coord_t half = u.side() / 2;
  const bool qx = first[0] >= half, qy = first[1] >= half;
  for (index_t key = 0; key < quarter; ++key) {
    const Point p = h.point_at(key);
    EXPECT_EQ(p[0] >= half, qx) << "key=" << key;
    EXPECT_EQ(p[1] >= half, qy) << "key=" << key;
  }
}

TEST(HilbertCurve, EndpointIsAdjacentCornerIn2D) {
  // The 2-d Hilbert curve ends at a corner adjacent to its start corner.
  const Universe u = Universe::pow2(2, 4);
  const HilbertCurve h(u);
  const Point start = h.point_at(0);
  const Point end = h.point_at(u.cell_count() - 1);
  EXPECT_EQ(start, (Point{0, 0}));
  // End must be at distance side-1 along exactly one axis.
  const std::uint64_t dist = manhattan_distance(start, end);
  EXPECT_EQ(dist, u.side() - 1u);
}

TEST(HilbertCurve, OneDimensionalIsIdentity) {
  const Universe u = Universe::pow2(1, 5);
  const HilbertCurve h(u);
  for (coord_t x = 0; x < u.side(); ++x) {
    EXPECT_EQ(h.index_of(Point{x}), x);
    EXPECT_EQ(h.point_at(x), (Point{x}));
  }
}

TEST(HilbertCurve, ReportsContinuous) {
  EXPECT_TRUE(HilbertCurve(Universe::pow2(2, 2)).is_continuous());
}

// The state-table codec against Skilling's transforms, the construction the
// tables are derived from: every key of small universes at d = 2..4, scalar
// and batched, in both directions.
TEST(HilbertTableCodec, MatchesSkillingExhaustivelyOnSmallUniverses) {
  for (int d = 2; d <= 4; ++d) {
    for (int k = 1; k * d <= 12; ++k) {
      const Universe u = Universe::pow2(d, k);
      const HilbertCurve h(u);
      const index_t cells = u.cell_count();
      std::vector<index_t> keys(cells);
      std::vector<Point> expected(cells);
      for (index_t key = 0; key < cells; ++key) {
        keys[key] = key;
        expected[key] = skilling::point_at(key, d, k);
        ASSERT_EQ(h.point_at(key), expected[key])
            << "d=" << d << " k=" << k << " key=" << key;
        ASSERT_EQ(h.index_of(expected[key]), key)
            << "d=" << d << " k=" << k << " key=" << key;
      }
      std::vector<Point> decoded(cells);
      h.point_at_batch(keys, decoded);
      EXPECT_EQ(decoded, expected) << "d=" << d << " k=" << k;
      std::vector<index_t> encoded(cells);
      h.index_of_batch(expected, encoded);
      EXPECT_EQ(encoded, keys) << "d=" << d << " k=" << k;
    }
  }
}

// Random keys at large sides, for every dimension: d <= 5 walks the
// enumerated tables (several levels per lookup at d <= 4), d >= 6 composes
// the transforms directly.
TEST(HilbertTableCodec, MatchesSkillingOnRandomKeysAtLargeSides) {
  Xoshiro256 rng(2024);
  for (int d = 2; d <= kMaxDim; ++d) {
    const int k = std::min(16, 62 / d);
    const Universe u = Universe::pow2(d, k);
    const HilbertCurve h(u);
    std::vector<index_t> keys(2000);
    std::vector<Point> expected(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.next() & (u.cell_count() - 1);
      expected[i] = skilling::point_at(keys[i], d, k);
      ASSERT_EQ(skilling::index_of(expected[i], k), keys[i]);
      ASSERT_EQ(h.point_at(keys[i]), expected[i]) << "d=" << d;
      ASSERT_EQ(h.index_of(expected[i]), keys[i]) << "d=" << d;
    }
    std::vector<Point> decoded(keys.size());
    h.point_at_batch(keys, decoded);
    EXPECT_EQ(decoded, expected) << "d=" << d;
    std::vector<index_t> encoded(keys.size());
    h.index_of_batch(expected, encoded);
    EXPECT_EQ(encoded, keys) << "d=" << d;
  }
}

// Subtree descent runs on the same tables: two levels below the root, every
// child's subcube must hold exactly the cells Skilling puts at its keys.
TEST(HilbertTableCodec, SubtreeChildrenMatchSkillingInEveryDimension) {
  for (int d = 2; d <= 7; ++d) {
    const int k = 3;
    const HilbertCurve h(Universe::pow2(d, k));
    const index_t arity = index_t{1} << d;
    std::vector<SubtreeNode> level{h.subtree_root()};
    for (int depth = 1; depth <= 2; ++depth) {
      std::vector<SubtreeNode> next(level.size() * arity);
      h.subtree_children_batch(level, next);
      for (const SubtreeNode& child : next) {
        for (index_t key = child.key_lo; key < child.key_lo + child.key_count;
             key += std::max<index_t>(1, child.key_count / 8)) {
          const Point cell = skilling::point_at(key, d, k);
          for (int i = 0; i < d; ++i) {
            ASSERT_GE(cell[i], child.origin[i]) << "d=" << d << " key=" << key;
            ASSERT_LT(cell[i], child.origin[i] + child.side)
                << "d=" << d << " key=" << key;
          }
        }
      }
      level = std::move(next);
    }
  }
}

}  // namespace
}  // namespace sfc
