#include "sfc/serve/sharded_index.h"

#include <algorithm>
#include <bit>

namespace sfc {

ShardedIndex::ShardedIndex(IndexColumnsView base, int shard_bits, Unlocated)
    : base_(base) {
  const std::uint64_t cells = base_.curve().universe().cell_count();
  const int key_bits =
      cells <= 1 ? 0 : static_cast<int>(std::bit_width(cells - 1));
  shard_bits_ = std::clamp(shard_bits, 0, key_bits);
  shift_ = key_bits - shard_bits_;
}

ShardedIndex::ShardedIndex(IndexColumnsView base, int shard_bits)
    : ShardedIndex(base, shard_bits, Unlocated{}) {
  const std::size_t count = std::size_t{1} << shard_bits_;
  row_begin_.reserve(count);
  // Rows are key-sorted, so shard s starts at the first row whose key
  // reaches the shard's low key.
  for (std::size_t s = 0; s < count; ++s) {
    row_begin_.push_back(s == 0 ? 0
                                : base_.lower_bound_row(shard_key_range(s).lo));
  }
}

ShardedIndex ShardedIndex::from_untrusted_keys(IndexColumnsView base,
                                               int shard_bits) {
  ShardedIndex map(base, shard_bits, Unlocated{});
  const std::size_t count = std::size_t{1} << map.shard_bits_;
  const std::span<const index_t> keys = base.keys();
  const std::uint64_t n = keys.size();

  // Per key shard (plus one bucket for keys past the last shard): row count,
  // first row, and one past the last row.
  std::vector<std::uint64_t> rows(count + 1, 0);
  std::vector<std::uint64_t> first(count + 1, n);
  std::vector<std::uint64_t> last_end(count + 1, 0);
  for (std::uint64_t r = 0; r < n; ++r) {
    const std::size_t k = static_cast<std::size_t>(
        std::min<index_t>(keys[r] >> map.shift_, count));
    if (rows[k]++ == 0) first[k] = r;
    last_end[k] = r + 1;
  }
  // first_from[s] = first row whose key shard is >= s.
  std::vector<std::uint64_t> first_from(count + 1, n);
  for (std::size_t s = count + 1; s-- > 0;) {
    first_from[s] = s == count ? first[s] : std::min(first[s], first_from[s + 1]);
  }

  // In a clean file shard s starts both at the first row whose key reaches
  // it (L) and one past the last row whose key is below it (U).  Corrupt
  // keys pull the two apart: a block stomped high drags L back into an
  // earlier shard, a block stomped low pushes U forward.  Each boundary
  // takes the candidate that leaves fewer rows on the wrong side of it, so
  // a local corruption cannot drag a boundary across the clean rows around
  // it.
  map.row_begin_.assign(count, 0);
  std::uint64_t below_end = last_end[0];  // U for the next shard
  std::uint64_t below_rows = rows[0];     // rows whose key shard is < s
  for (std::size_t s = 1; s < count; ++s) {
    const std::uint64_t u = below_end;
    const std::uint64_t l = first_from[s];
    // Every row below s lies before U, and every row before L is below s:
    // so U - below_rows rows before U are not below s, and below_rows - L
    // rows from L on are.
    const std::uint64_t wrong_u = u - below_rows;
    const std::uint64_t wrong_l = below_rows - l;
    map.row_begin_[s] =
        std::max(wrong_u <= wrong_l ? u : l, map.row_begin_[s - 1]);
    below_end = std::max(below_end, last_end[s]);
    below_rows += rows[s];
  }
  return map;
}

std::vector<RangeQueryResult> run_range_queries(
    const ShardedIndex& index, std::span<const Box> boxes,
    const MultiQueryOptions& options) {
  return run_range_queries(index.base(), boxes, options);
}

std::vector<KnnQueryResult> run_knn_queries(const ShardedIndex& index,
                                            std::span<const Point> queries,
                                            std::uint32_t k,
                                            const MultiQueryOptions& options) {
  return run_knn_queries(index.base(), queries, k, options);
}

}  // namespace sfc
