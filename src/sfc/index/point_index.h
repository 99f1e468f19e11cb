// An immutable, SFC-keyed point index over arbitrary point datasets.
//
// The paper's premise is that a curve key order makes one-dimensional
// storage answer d-dimensional proximity queries; this subsystem is the
// serving layer that realizes it for *data* rather than full grids.  Build
// fuses curve encoding into the sfc/sort radix pipeline (one pass over the
// input produces sorted (key, payload-id) records), and the index stores the
// result as columns: the sorted key column and the payload-id column.  The
// points themselves are not stored — the curve is a bijection, so a row's
// point is the cell of its key, decoded on demand.  A sparse block
// directory (last key per fixed-size row block) resolves a key interval to
// its row range by searching the small directory first and only then one
// block of the key column — the classic "B-tree over curve keys"
// access pattern of the clustering literature (Moon et al.; Haverkort & van
// Walderveen's bounding-box-quality workloads).
//
// PointIndex is the *owning* storage backend: build once, then hand out the
// storage-agnostic IndexColumnsView (columns_view.h) that every query engine
// runs on.  The same columns round-trip through the on-disk format
// (sfc/store) and come back as a mmap-backed view serving bit-identical
// answers.
//
// Query engines on top: batched box range scans driven by the exact covers
// of sfc/ranges (range_scan.h) and certified best-first kNN over the curve's
// subtree hierarchy (knn.h), both multi-query parallel via executor.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sfc/common/error.h"
#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/grid/point.h"
#include "sfc/index/columns_view.h"
#include "sfc/parallel/parallel_for.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

/// Thrown on invalid index construction or query arguments: points outside
/// the curve's universe, dimension mismatches, or datasets exceeding the
/// 32-bit payload-id limit.  Derives from sfc::Error so drivers recover
/// instead of aborting.
class IndexArgumentError : public Error {
 public:
  explicit IndexArgumentError(const std::string& what) : Error(what) {}
};

struct IndexBuildOptions {
  /// Worker pool for the build; nullptr means ThreadPool::shared().  The
  /// pool size only affects wall clock, never the built index.
  ThreadPool* pool = nullptr;
  /// Elements per deterministic sort/gather chunk (0 = kDefaultGrain).
  std::uint64_t grain = kDefaultGrain;
  /// Rows per block-directory entry (0 = default 256).  Smaller blocks mean
  /// a larger directory but fewer key-column probes per interval.
  std::uint32_t block_rows = 256;
};

/// The index.  Immutable after build; rows are ordered by (curve key,
/// input position) — the stable sort keeps duplicate keys in input order.
class PointIndex {
 public:
  /// Bulk build over `points` (duplicates allowed, empty allowed).  Every
  /// point must lie inside the curve's universe; throws IndexArgumentError
  /// otherwise, and when points.size() >= 2^32 (payload ids are 32-bit).
  /// The curve must outlive the index.
  static PointIndex build(const SpaceFillingCurve& curve,
                          std::span<const Point> points,
                          const IndexBuildOptions& options = {});

  /// The storage-agnostic view of the owned columns — what engines query.
  /// Valid while this index is alive and unmoved.
  IndexColumnsView view() const {
    return IndexColumnsView(*curve_, block_rows_, keys_, ids_,
                            block_last_key_);
  }
  /// Implicit: a PointIndex is usable wherever a view is expected.
  operator IndexColumnsView() const { return view(); }  // NOLINT

  const SpaceFillingCurve& curve() const { return *curve_; }
  std::uint64_t row_count() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Sorted key column; keys()[r] is row r's curve key.
  std::span<const index_t> keys() const { return keys_; }
  /// ids()[r] is the input position (payload id) of row r.
  std::span<const std::uint32_t> ids() const { return ids_; }
  index_t key_of_row(std::uint64_t row) const { return keys_[row]; }
  std::uint32_t id_of_row(std::uint64_t row) const { return ids_[row]; }
  /// Row r's point (the input point at ids()[r]), decoded from its key.
  Point point_of_row(std::uint64_t row) const {
    return curve_->point_at(keys_[row]);
  }

  std::uint32_t block_rows() const { return block_rows_; }
  std::uint64_t block_count() const { return block_last_key_.size(); }

  /// First row whose key is >= `key` (row_count() when none); delegates to
  /// the view's directory search.
  std::uint64_t lower_bound_row(index_t key) const {
    return view().lower_bound_row(key);
  }

  /// Half-open row range [first, second) of the rows whose keys lie in the
  /// inclusive key interval [lo, hi].
  std::pair<std::uint64_t, std::uint64_t> rows_in_interval(index_t lo,
                                                           index_t hi) const {
    return view().rows_in_interval(lo, hi);
  }

 private:
  PointIndex() = default;

  const SpaceFillingCurve* curve_ = nullptr;
  std::uint32_t block_rows_ = 256;
  std::vector<index_t> keys_;
  std::vector<std::uint32_t> ids_;
  /// Directory: block_last_key_[b] = max key of rows [b*B, (b+1)*B).
  std::vector<index_t> block_last_key_;
};

}  // namespace sfc
