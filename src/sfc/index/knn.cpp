#include "sfc/index/knn.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "sfc/common/math.h"
#include "sfc/obs/metrics.h"

namespace sfc {

namespace {

struct KnnMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter neighbors_returned;
  MetricsRegistry::Counter nodes_expanded;
  MetricsRegistry::Counter frontier_pushes;
  MetricsRegistry::Counter rows_scanned;
  MetricsRegistry::Counter certified;
};

KnnMetrics& knn_metrics() {
  static KnnMetrics metrics{
      MetricsRegistry::global().counter("index.knn.queries"),
      MetricsRegistry::global().counter("index.knn.neighbors_returned"),
      MetricsRegistry::global().counter("index.knn.nodes_expanded"),
      MetricsRegistry::global().counter("index.knn.frontier_pushes"),
      MetricsRegistry::global().counter("index.knn.rows_scanned"),
      MetricsRegistry::global().counter("index.knn.certified"),
  };
  return metrics;
}

/// The total candidate order: (squared distance, curve key, row) ascending —
/// exactly what a brute-force stable ranking produces, so index answers are
/// bit-identical to the reference scan, ties included.
struct Closer {
  template <typename C>
  bool operator()(const C& a, const C& b) const {
    return std::tie(a.sq_dist, a.key, a.row) < std::tie(b.sq_dist, b.key, b.row);
  }
};

/// Min-heap order for the frontier: nearest subcube first, ties by key_lo so
/// the pop sequence (and therefore every statistic) is deterministic.
struct FrontierAfter {
  template <typename V>
  bool operator()(const V& a, const V& b) const {
    return std::tie(a.sq_dist, a.node.key_lo) > std::tie(b.sq_dist, b.node.key_lo);
  }
};

}  // namespace

void KnnEngine::consider_rows(const Point& query, std::uint32_t k,
                              std::uint64_t first, std::uint64_t last,
                              KnnStats& stats) {
  const std::span<const index_t> keys = view_.keys();
  const Closer closer;
  for (std::uint64_t at = first; at < last; at += kLeafRows) {
    // Rows carry no points: decode this tile of keys to their cells.
    const std::uint64_t n = std::min<std::uint64_t>(kLeafRows, last - at);
    view_.curve().point_at_batch(keys.subspan(at, n),
                                 std::span<Point>(tile_.data(), n));
    stats.rows_scanned += n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Candidate candidate{squared_euclidean_distance(query, tile_[i]),
                                keys[at + i], at + i};
      if (best_.size() < k) {
        best_.push_back(candidate);
        std::push_heap(best_.begin(), best_.end(), closer);
      } else if (closer(candidate, best_.front())) {
        std::pop_heap(best_.begin(), best_.end(), closer);
        best_.back() = candidate;
        std::push_heap(best_.begin(), best_.end(), closer);
      }
    }
  }
}

std::vector<KnnNeighbor> KnnEngine::query(const Point& query, std::uint32_t k,
                                          KnnStats* stats) {
  const SpaceFillingCurve& curve = view_.curve();
  const Universe& u = curve.universe();
  if (query.dim() != u.dim() || !u.contains(query)) {
    throw IndexArgumentError("knn query: point " + query.to_string() +
                             " lies outside the d=" + std::to_string(u.dim()) +
                             " side-" + std::to_string(u.side()) + " universe");
  }
  KnnStats local;
  best_.clear();
  frontier_.clear();

  if (k == 0 || view_.empty()) {
    local.certified = true;
    if (obs_enabled()) {
      knn_metrics().queries.add(1);
      knn_metrics().certified.add(1);
    }
    if (stats != nullptr) *stats = local;
    return {};
  }

  if (!curve.has_subtree_traversal()) {
    // No hierarchy to descend: exhaustive scan, trivially certified.
    consider_rows(query, k, 0, view_.row_count(), local);
    local.certified = true;
  } else {
    local.used_subtree = true;
    const FrontierAfter after;
    const index_t arity = ipow(curve.subtree_radix(), u.dim());
    const SubtreeNode root = curve.subtree_root();
    frontier_.push_back(Visit{root.min_squared_distance(query), root, 0,
                              view_.row_count()});
    ++local.frontier_pushes;
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), after);
      const Visit visit = frontier_.back();
      frontier_.pop_back();
      if (best_.size() == k && visit.sq_dist > best_.front().sq_dist) {
        // Certificate: the k-th best distance is <= the min distance of this
        // and (by heap order) every remaining frontier node — no unvisited
        // row can enter the result.  Ties (==) keep descending so the
        // (distance, key, row) tie-break stays exact.
        local.certified = true;
        local.frontier_bound_valid = true;
        local.frontier_sq_dist = visit.sq_dist;
        break;
      }
      const SubtreeNode& node = visit.node;
      if (node.side == 1 || visit.row_last - visit.row_first <= kLeafRows) {
        consider_rows(query, k, visit.row_first, visit.row_last, local);
        continue;
      }
      ++local.nodes_expanded;
      children_.resize(arity);
      curve.subtree_children(node, children_);
      for (const SubtreeNode& child : children_) {
        const auto [child_first, child_last] =
            view_.rows_in_interval(child.key_lo,
                                    child.key_lo + (child.key_count - 1));
        if (child_first == child_last) continue;  // no rows: prune
        const std::uint64_t child_dist = child.min_squared_distance(query);
        if (best_.size() == k && child_dist > best_.front().sq_dist) continue;
        frontier_.push_back(Visit{child_dist, child, child_first, child_last});
        std::push_heap(frontier_.begin(), frontier_.end(), after);
        ++local.frontier_pushes;
      }
    }
    // A drained frontier certifies too: every reachable candidate was
    // evaluated.  (No-op when the loop broke on the frontier bound.)
    local.certified = true;
  }

  std::sort(best_.begin(), best_.end(), Closer{});
  std::vector<KnnNeighbor> result;
  result.reserve(best_.size());
  for (const Candidate& candidate : best_) {
    result.push_back(KnnNeighbor{view_.id_of_row(candidate.row), candidate.key,
                                 candidate.sq_dist});
  }
  if (obs_enabled()) {
    KnnMetrics& metrics = knn_metrics();
    metrics.queries.add(1);
    metrics.neighbors_returned.add(result.size());
    metrics.nodes_expanded.add(local.nodes_expanded);
    metrics.frontier_pushes.add(local.frontier_pushes);
    metrics.rows_scanned.add(local.rows_scanned);
    if (local.certified) metrics.certified.add(1);
  }
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sfc
