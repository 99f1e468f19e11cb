// Curve-contiguous sharding of an index columns view: a partition map.
//
// Splitting by the *leading* bits of the curve key partitions the rows into
// 2^shard_bits contiguous key ranges — and, because rows are key-sorted,
// into contiguous row ranges too.  A ShardedIndex records only that map: each
// shard's key range and its first row in the base view.  It copies nothing
// and builds no per-shard directory.
//
// Queries never fan out over shards.  A box's cover is one short sorted
// interval list (its clustering number, which the paper's curves keep small),
// and cutting the key space at shard boundaries only cuts that list; it never
// needs a second one.  So run_range_queries / run_knn_queries over a
// ShardedIndex answer each query once over the base view, bit-identically to
// the unsharded executors for every shard count.  The map is what serving
// needs the shards for: attributing corruption to a key range at open time
// and reporting which dead key ranges a query needed (sfc/serve/generation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/index/columns_view.h"
#include "sfc/index/executor.h"
#include "sfc/ranges/range_cover.h"

namespace sfc {

/// A sharded, read-only partition map over any index storage (in-memory
/// PointIndex or mmap-backed MappedIndex — anything that yields an
/// IndexColumnsView).  The base storage must outlive the sharded index.
class ShardedIndex {
 public:
  /// Splits `base` into 2^shard_bits curve-contiguous shards, locating each
  /// shard's first row through the base view's block directory.  shard_bits
  /// is clamped to the key width of the universe, so tiny universes simply
  /// get fewer shards; shard_bits = 0 means one shard (the base view itself).
  explicit ShardedIndex(IndexColumnsView base, int shard_bits = 0);

  /// Same map, with each shard's first row located from the key column
  /// alone and robustly to local corruption — for a base whose keys and
  /// directory are untrusted (a file opened degraded).  In a clean file it
  /// equals the constructor's map.  O(rows + shards).
  static ShardedIndex from_untrusted_keys(IndexColumnsView base,
                                          int shard_bits);

  const IndexColumnsView& base() const { return base_; }
  int shard_bits() const { return shard_bits_; }
  std::size_t shard_count() const { return row_begin_.size(); }

  /// Inclusive key range [lo, hi] owned by shard s.
  KeyInterval shard_key_range(std::size_t s) const {
    const index_t lo = static_cast<index_t>(s) << shift_;
    return KeyInterval{lo, lo + ((index_t{1} << shift_) - 1)};
  }

  /// Global (base-view) row index of shard s's first row.
  std::uint64_t shard_row_begin(std::size_t s) const { return row_begin_[s]; }
  /// One past shard s's last row.
  std::uint64_t shard_row_end(std::size_t s) const {
    return s + 1 < row_begin_.size() ? row_begin_[s + 1] : base_.row_count();
  }

 private:
  struct Unlocated {};
  /// Sets base_, shard_bits_ and shift_; leaves row_begin_ empty.
  ShardedIndex(IndexColumnsView base, int shard_bits, Unlocated);

  IndexColumnsView base_;
  int shard_bits_ = 0;
  int shift_ = 0;  ///< key bits below the shard bits
  std::vector<std::uint64_t> row_begin_;
};

/// Multi-query execution over a sharded index: the base-view executors.
/// Sharding is a partition map, not a query plan, so these are forwards kept
/// for callers that hold a ShardedIndex.
std::vector<RangeQueryResult> run_range_queries(
    const ShardedIndex& index, std::span<const Box> boxes,
    const MultiQueryOptions& options = {});

std::vector<KnnQueryResult> run_knn_queries(
    const ShardedIndex& index, std::span<const Point> queries, std::uint32_t k,
    const MultiQueryOptions& options = {});

}  // namespace sfc
