#include "workload.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sfc/index/knn.h"
#include "sfc/index/range_scan.h"

namespace perfbench {

void run_threads(std::uint32_t threads,
                 const std::function<void(std::uint32_t)>& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads > 0 ? threads - 1 : 0);
  for (std::uint32_t t = 1; t < threads; ++t) pool.emplace_back(fn, t);
  fn(0);
  for (std::thread& th : pool) th.join();
}

std::vector<sfc::Point> make_points(std::uint64_t count, std::uint32_t side,
                                    std::uint64_t seed) {
  SplitMix rng{seed};
  std::vector<sfc::Point> points(count, sfc::Point::zero(2));
  for (sfc::Point& p : points) {
    p[0] = static_cast<sfc::coord_t>(rng.below(side));
    p[1] = static_cast<sfc::coord_t>(rng.below(side));
  }
  return points;
}

std::vector<Query> make_queries(const Settings& s, std::uint32_t count,
                                std::uint64_t seed) {
  SplitMix rng{seed};
  std::vector<Query> queries(count);
  const std::uint32_t span = s.side - s.box_extent + 1;
  for (Query& q : queries) {
    q.knn = rng.below(100) < s.knn_percent;
    if (q.knn) {
      q.p = sfc::Point::zero(2);
      q.p[0] = static_cast<sfc::coord_t>(rng.below(s.side));
      q.p[1] = static_cast<sfc::coord_t>(rng.below(s.side));
      q.k = kKnnK;
    } else {
      q.lo = sfc::Point::zero(2);
      q.lo[0] = static_cast<sfc::coord_t>(rng.below(span));
      q.lo[1] = static_cast<sfc::coord_t>(rng.below(span));
      q.hi = q.lo;
      q.hi[0] += s.box_extent - 1;
      q.hi[1] += s.box_extent - 1;
    }
  }
  return queries;
}

std::vector<std::uint64_t> reference_digests(const sfc::IndexColumnsView& view,
                                             const std::vector<Query>& queries,
                                             std::uint32_t threads) {
  std::vector<std::uint64_t> digests(queries.size());
  std::atomic<std::size_t> next{0};
  run_threads(threads, [&](std::uint32_t) {
    sfc::RangeScanEngine scan(view);
    sfc::KnnEngine knn(view);
    std::vector<std::uint32_t> ids;
    for (std::size_t i = next++; i < queries.size(); i = next++) {
      const Query& q = queries[i];
      if (q.knn) {
        digests[i] = digest_knn(knn.query(q.p, q.k));
      } else {
        scan.scan(q.box(), &ids);
        digests[i] = digest_range(ids);
      }
    }
  });
  return digests;
}

namespace {

std::uint64_t sq_dist(const sfc::Point& a, const sfc::Point& b) {
  const std::int64_t dx = static_cast<std::int64_t>(a[0]) - b[0];
  const std::int64_t dy = static_cast<std::int64_t>(a[1]) - b[1];
  return static_cast<std::uint64_t>(dx * dx + dy * dy);
}

bool brute_range_matches(const Query& q, const std::vector<sfc::Point>& points,
                         std::vector<std::uint32_t> served) {
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sfc::Point& p = points[i];
    if (p[0] >= q.lo[0] && p[0] <= q.hi[0] && p[1] >= q.lo[1] &&
        p[1] <= q.hi[1]) {
      expect.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::sort(served.begin(), served.end());
  return served == expect;
}

bool brute_knn_matches(const Query& q, const sfc::SpaceFillingCurve& curve,
                       const std::vector<sfc::Point>& points,
                       const std::vector<sfc::KnnNeighbor>& served) {
  struct Cand {
    std::uint64_t d;
    std::uint32_t id;
  };
  std::vector<Cand> cands(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    cands[i] = {sq_dist(points[i], q.p), static_cast<std::uint32_t>(i)};
  }
  const std::size_t k = std::min<std::size_t>(q.k, cands.size());
  // Every point at the k-th distance may be in the answer; the curve key
  // then decides, so keep all of them before ordering by (d, key, id).
  std::nth_element(cands.begin(), cands.begin() + static_cast<long>(k - 1),
                   cands.end(),
                   [](const Cand& a, const Cand& b) { return a.d < b.d; });
  const std::uint64_t kth = cands[k - 1].d;
  std::vector<sfc::KnnNeighbor> expect;
  for (const Cand& c : cands) {
    if (c.d <= kth) {
      expect.push_back({c.id, curve.index_of(points[c.id]), c.d});
    }
  }
  std::sort(expect.begin(), expect.end(),
            [](const sfc::KnnNeighbor& a, const sfc::KnnNeighbor& b) {
              if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
              if (a.key != b.key) return a.key < b.key;
              return a.id < b.id;
            });
  expect.resize(k);
  return served == expect;
}

}  // namespace

std::uint64_t brute_force_mismatches(const sfc::IndexColumnsView& view,
                                     const sfc::SpaceFillingCurve& curve,
                                     const std::vector<sfc::Point>& points,
                                     const std::vector<Query>& queries,
                                     const std::vector<std::uint32_t>& sample,
                                     std::uint32_t threads) {
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::size_t> next{0};
  run_threads(threads, [&](std::uint32_t) {
    sfc::RangeScanEngine scan(view);
    sfc::KnnEngine knn(view);
    std::vector<std::uint32_t> ids;
    for (std::size_t i = next++; i < sample.size(); i = next++) {
      const Query& q = queries[sample[i]];
      bool ok = false;
      if (q.knn) {
        ok = brute_knn_matches(q, curve, points, knn.query(q.p, q.k));
      } else {
        scan.scan(q.box(), &ids);
        ok = brute_range_matches(q, points, ids);
      }
      if (!ok) ++mismatches;
    }
  });
  return mismatches.load();
}

}  // namespace perfbench
