// Thread-pool-backed multi-query execution over an index columns view.
//
// Serving traffic means answering *batches* of queries, not one box at a
// time.  Each query is answered independently into its own pre-allocated
// result slot, chunks of queries share one scan/kNN engine (so cover
// workspaces and heaps are reused across a chunk without allocation churn),
// and chunk boundaries depend only on the query count and grain — the same
// fixed-chunk design as parallel_for / random_box_clustering — so results
// are bit-identical across 1/2/8 threads and any grain.
//
// The executors take IndexColumnsView: an owned PointIndex, a mmap-backed
// MappedIndex (sfc/store), and a degraded serving generation's copy of its
// live rows all run through the same code.  The serving front end
// (sfc/serve) answers its admission batches with the same engines, one query
// per slot, and a ShardedIndex forwards here unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/grid/box.h"
#include "sfc/grid/point.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

struct MultiQueryOptions {
  /// Worker pool; nullptr means ThreadPool::shared().  The pool size only
  /// affects wall clock, never any result or statistic.
  ThreadPool* pool = nullptr;
  /// Queries per deterministic chunk (0 = default 16).
  std::uint64_t grain = 16;
};

struct RangeQueryResult {
  /// Payload ids inside the box, in row order (ascending key).
  std::vector<std::uint32_t> ids;
  RangeScanStats stats;
};

struct KnnQueryResult {
  std::vector<KnnNeighbor> neighbors;
  KnnStats stats;
};

/// Answers every box query; result[i] corresponds to boxes[i].  Boxes must
/// lie inside the curve's universe.
std::vector<RangeQueryResult> run_range_queries(
    const IndexColumnsView& view, std::span<const Box> boxes,
    const MultiQueryOptions& options = {});

/// Answers every kNN query; result[i] corresponds to queries[i].  Queries
/// must lie inside the curve's universe (IndexArgumentError otherwise).
std::vector<KnnQueryResult> run_knn_queries(
    const IndexColumnsView& view, std::span<const Point> queries,
    std::uint32_t k, const MultiQueryOptions& options = {});

}  // namespace sfc
