// Build invariants of the SFC point index: sorted key column, stable
// payload-id permutation, points decoded from the keys, and block-directory
// row resolution — all bit-identical across pools and grains.
#include "sfc/index/point_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/rng/sampling.h"

namespace sfc {
namespace {

std::vector<Point> random_points(const Universe& u, std::size_t count,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) points.push_back(random_cell(u, rng));
  return points;
}

void expect_build_invariants(const SpaceFillingCurve& curve,
                             const std::vector<Point>& points,
                             const IndexBuildOptions& options = {}) {
  const PointIndex index = PointIndex::build(curve, points, options);
  ASSERT_EQ(index.row_count(), points.size());
  std::vector<bool> seen(points.size(), false);
  for (std::uint64_t r = 0; r < index.row_count(); ++r) {
    const std::uint32_t id = index.id_of_row(r);
    ASSERT_LT(id, points.size());
    EXPECT_FALSE(seen[id]) << "id " << id << " appears twice";
    seen[id] = true;
    // Row key and point are the encode of the input point the id names.
    EXPECT_EQ(index.key_of_row(r), curve.index_of(points[id]));
    EXPECT_EQ(index.point_of_row(r), points[id]);
    if (r > 0) {
      ASSERT_LE(index.key_of_row(r - 1), index.key_of_row(r)) << "unsorted";
      if (index.key_of_row(r - 1) == index.key_of_row(r)) {
        // Stable: duplicate keys keep input order.
        EXPECT_LT(index.id_of_row(r - 1), index.id_of_row(r));
      }
    }
  }
}

TEST(PointIndex, BuildInvariantsAcrossFamilies) {
  const Universe u = Universe::pow2(2, 5);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 7);
    expect_build_invariants(*curve, random_points(u, 500, 11));
  }
}

TEST(PointIndex, DuplicateHeavyDataset) {
  // Coordinates drawn from {0..3}^2 in a side-32 universe: ~every point is
  // a duplicate of another.
  const Universe u = Universe::pow2(2, 5);
  Xoshiro256 rng(5);
  std::vector<Point> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(Point{static_cast<coord_t>(rng.next_below(4)),
                           static_cast<coord_t>(rng.next_below(4))});
  }
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  expect_build_invariants(*h, points);
}

TEST(PointIndex, DegenerateDatasets) {
  const Universe u = Universe::pow2(2, 4);
  const CurvePtr z = make_curve(CurveFamily::kZ, u);
  expect_build_invariants(*z, {});
  expect_build_invariants(*z, {Point{7, 9}});
  expect_build_invariants(*z, std::vector<Point>(100, Point{3, 3}));

  const PointIndex empty = PointIndex::build(*z, {});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.block_count(), 0u);
  EXPECT_EQ(empty.lower_bound_row(0), 0u);
  EXPECT_EQ(empty.rows_in_interval(0, u.cell_count() - 1),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
}

TEST(PointIndex, RowResolutionMatchesEqualRange) {
  const Universe u = Universe::pow2(2, 5);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const std::vector<Point> points = random_points(u, 700, 23);
  // Exercise directory granularities from one row per block to one block.
  for (std::uint32_t block_rows : {1u, 3u, 64u, 256u, 100000u}) {
    IndexBuildOptions options;
    options.block_rows = block_rows;
    const PointIndex index = PointIndex::build(*h, points, options);
    const auto keys = index.keys();
    Xoshiro256 rng(31);
    for (int i = 0; i < 300; ++i) {
      const index_t a = rng.next_below(u.cell_count());
      const index_t b = rng.next_below(u.cell_count());
      const index_t lo = std::min(a, b), hi = std::max(a, b);
      const auto expect_first = static_cast<std::uint64_t>(
          std::lower_bound(keys.begin(), keys.end(), lo) - keys.begin());
      const auto expect_last = static_cast<std::uint64_t>(
          std::upper_bound(keys.begin(), keys.end(), hi) - keys.begin());
      EXPECT_EQ(index.lower_bound_row(lo), expect_first)
          << "block_rows " << block_rows;
      const auto [first, last] = index.rows_in_interval(lo, hi);
      EXPECT_EQ(first, expect_first) << "block_rows " << block_rows;
      EXPECT_EQ(last, std::max(expect_first, expect_last))
          << "block_rows " << block_rows;
    }
    // Past-the-end key resolves to row_count, empty interval to an empty
    // range.
    EXPECT_EQ(index.lower_bound_row(u.cell_count()), index.row_count());
  }
}

TEST(PointIndex, BuildIsDeterministicAcrossPoolsAndGrains) {
  const Universe u = Universe::pow2(2, 5);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const std::vector<Point> points = random_points(u, 5000, 77);
  const PointIndex base = PointIndex::build(*h, points);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    for (std::uint64_t grain : {std::uint64_t{1}, std::uint64_t{100},
                                std::uint64_t{1} << 16}) {
      IndexBuildOptions options;
      options.pool = pool;
      options.grain = grain;
      const PointIndex other = PointIndex::build(*h, points, options);
      ASSERT_EQ(other.row_count(), base.row_count());
      for (std::uint64_t r = 0; r < base.row_count(); ++r) {
        ASSERT_EQ(other.key_of_row(r), base.key_of_row(r));
        ASSERT_EQ(other.id_of_row(r), base.id_of_row(r));
      }
    }
  }
}

TEST(PointIndex, RejectsInvalidPoints) {
  const Universe u = Universe::pow2(2, 4);
  const CurvePtr z = make_curve(CurveFamily::kZ, u);
  // Out of universe.
  EXPECT_THROW(PointIndex::build(*z, std::vector<Point>{Point{3, 16}}),
               IndexArgumentError);
  // Dimension mismatch.
  EXPECT_THROW(PointIndex::build(*z, std::vector<Point>{Point{3, 3, 3}}),
               IndexArgumentError);
  // The error names the first bad position, independent of threading.
  std::vector<Point> points(50, Point{1, 1});
  points[17] = Point{99, 0};
  points[40] = Point{99, 0};
  try {
    PointIndex::build(*z, points);
    FAIL() << "expected IndexArgumentError";
  } catch (const IndexArgumentError& error) {
    EXPECT_NE(std::string(error.what()).find("position 17"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace sfc
