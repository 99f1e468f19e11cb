#include "sfc/serve/sharded_index.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "sfc/parallel/parallel_for.h"

namespace sfc {

namespace {

std::uint64_t normalized_grain(const MultiQueryOptions& options) {
  return options.grain == 0 ? 16 : options.grain;
}

ThreadPool& pool_of(const MultiQueryOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::shared();
}

/// Indices of shards marked dead in `alive` (missing entries count as alive,
/// so an empty span means a fully-live index).
std::vector<std::uint32_t> dead_shards_of(const ShardedIndex& index,
                                          std::span<const std::uint8_t> alive) {
  std::vector<std::uint32_t> dead;
  const std::size_t n = std::min(index.shard_count(), alive.size());
  for (std::size_t s = 0; s < n; ++s) {
    if (alive[s] == 0) dead.push_back(static_cast<std::uint32_t>(s));
  }
  return dead;
}

}  // namespace

ShardedIndex::ShardedIndex(IndexColumnsView base, int shard_bits)
    : base_(base) {
  const std::uint64_t cells = base_.curve().universe().cell_count();
  const int key_bits =
      cells <= 1 ? 0 : static_cast<int>(std::bit_width(cells - 1));
  shard_bits_ = std::clamp(shard_bits, 0, key_bits);
  const std::size_t count = std::size_t{1} << shard_bits_;
  const int shift = key_bits - shard_bits_;

  key_ranges_.reserve(count);
  shard_row_begin_.reserve(count);
  directories_.reserve(count);
  shards_.reserve(count);

  const std::uint32_t block_rows = base_.block_rows();
  std::uint64_t row = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const index_t lo = static_cast<index_t>(s) << shift;
    const index_t next = static_cast<index_t>(s + 1) << shift;
    key_ranges_.push_back(KeyInterval{lo, next - 1});
    shard_row_begin_.push_back(row);

    // Rows are key-sorted, so the shard's rows are the contiguous run up to
    // the first key of the next shard.
    const std::uint64_t end =
        s + 1 == count ? base_.row_count() : base_.lower_bound_row(next);
    const std::uint64_t rows = end - row;

    const auto keys = base_.keys().subspan(row, rows);
    std::vector<index_t>& dir = directories_.emplace_back();
    if (rows != 0) {
      const std::uint64_t blocks = (rows + block_rows - 1) / block_rows;
      dir.reserve(blocks);
      for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t last =
            std::min<std::uint64_t>((b + 1) * std::uint64_t{block_rows}, rows);
        dir.push_back(keys[last - 1]);
      }
    }
    shards_.emplace_back(base_.curve(), block_rows, keys,
                         base_.ids().subspan(row, rows),
                         std::span<const index_t>(dir));
    row = end;
  }
}

std::vector<RangeQueryResult> run_range_queries(
    const ShardedIndex& index, std::span<const Box> boxes,
    const MultiQueryOptions& options) {
  const std::size_t shard_count = index.shard_count();
  if (shard_count <= 1) {
    return run_range_queries(index.base(), boxes, options);
  }
  const std::uint64_t query_count = boxes.size();

  // Cell (s, q) = per-shard partial answer; laid out shard-major so a chunk
  // of consecutive cells reuses one engine per shard run.
  std::vector<RangeQueryResult> cells(shard_count * query_count);
  parallel_for_chunks(
      pool_of(options), cells.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        std::size_t engine_shard = shard_count;  // no engine yet
        std::optional<RangeScanEngine> engine;
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          const std::size_t s = c / query_count;
          const std::uint64_t q = c % query_count;
          if (s != engine_shard) {
            engine.emplace(index.shard(s));
            engine_shard = s;
          }
          engine->scan(boxes[q], &cells[c].ids, &cells[c].stats);
        }
      });

  // Shards ascend in key order and every shard's ids come out in row order,
  // so concatenating in shard order reproduces the unsharded id sequence
  // exactly.
  std::vector<RangeQueryResult> results(query_count);
  for (std::uint64_t q = 0; q < query_count; ++q) {
    RangeQueryResult& merged = results[q];
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      total += cells[s * query_count + q].ids.size();
    }
    merged.ids.reserve(total);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const RangeQueryResult& part = cells[s * query_count + q];
      merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
      merged.stats.rows_returned += part.stats.rows_returned;
      merged.stats.rows_scanned += part.stats.rows_scanned;
      merged.stats.runs_touched += part.stats.runs_touched;
      merged.stats.nodes_visited += part.stats.nodes_visited;
      merged.stats.used_subtree |= part.stats.used_subtree;
    }
    // The cover is a property of the box, computed identically in every
    // shard; report it once, not shard_count times.
    merged.stats.runs_in_cover = cells[q].stats.runs_in_cover;
  }
  return results;
}

std::vector<KnnQueryResult> run_knn_queries(const ShardedIndex& index,
                                            std::span<const Point> queries,
                                            std::uint32_t k,
                                            const MultiQueryOptions& options) {
  const std::size_t shard_count = index.shard_count();
  if (shard_count <= 1) {
    return run_knn_queries(index.base(), queries, k, options);
  }
  const std::uint64_t query_count = queries.size();

  std::vector<KnnQueryResult> cells(shard_count * query_count);
  parallel_for_chunks(
      pool_of(options), cells.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        std::size_t engine_shard = shard_count;
        std::optional<KnnEngine> engine;
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          const std::size_t s = c / query_count;
          const std::uint64_t q = c % query_count;
          if (s != engine_shard) {
            engine.emplace(index.shard(s));
            engine_shard = s;
          }
          cells[c].neighbors =
              engine->query(queries[q], k, &cells[c].stats);
        }
      });

  // Each shard returns its exact top-k; the global top-k is the best k of
  // the union under the engines' total candidate order (squared distance,
  // key, id) — within equal keys row order is id order, so this matches the
  // unsharded (distance, key, row) order bit for bit.
  std::vector<KnnQueryResult> results(query_count);
  std::vector<KnnNeighbor> pool;
  for (std::uint64_t q = 0; q < query_count; ++q) {
    KnnQueryResult& merged = results[q];
    pool.clear();
    bool all_certified = true;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const KnnQueryResult& part = cells[s * query_count + q];
      pool.insert(pool.end(), part.neighbors.begin(), part.neighbors.end());
      merged.stats.nodes_expanded += part.stats.nodes_expanded;
      merged.stats.frontier_pushes += part.stats.frontier_pushes;
      merged.stats.rows_scanned += part.stats.rows_scanned;
      merged.stats.used_subtree |= part.stats.used_subtree;
      all_certified &= part.stats.certified;
    }
    merged.stats.certified = all_certified;
    std::sort(pool.begin(), pool.end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
                if (a.key != b.key) return a.key < b.key;
                return a.id < b.id;
              });
    if (pool.size() > k) pool.resize(k);
    merged.neighbors = pool;
  }
  return results;
}

std::vector<DegradedRangeResult> run_range_queries_degraded(
    const ShardedIndex& index, std::span<const Box> boxes,
    std::span<const std::uint8_t> alive, const MultiQueryOptions& options) {
  const std::vector<std::uint32_t> dead = dead_shards_of(index, alive);
  const std::uint64_t query_count = boxes.size();
  std::vector<DegradedRangeResult> results(query_count);
  if (dead.empty()) {
    std::vector<RangeQueryResult> plain =
        run_range_queries(index, boxes, options);
    for (std::uint64_t q = 0; q < query_count; ++q) {
      results[q].result = std::move(plain[q]);
    }
    return results;
  }

  // Exact overlap: a query needs a dead shard iff its key cover intersects
  // that shard's key range.  The cover is sorted and disjoint, so each dead
  // shard costs one binary search per query.  Cover computation works for
  // every curve family (subtree descent or the enumeration fallback).
  const RangeCoverEngine cover_engine(index.base().curve());
  CoverWorkspace ws;
  for (std::uint64_t q = 0; q < query_count; ++q) {
    const std::span<const KeyInterval> cover =
        cover_engine.cover(boxes[q], ws);
    results[q].result.stats.runs_in_cover = cover.size();
    for (const std::uint32_t d : dead) {
      const KeyInterval range = index.shard_key_range(d);
      const auto it = std::lower_bound(
          cover.begin(), cover.end(), range.lo,
          [](const KeyInterval& interval, index_t lo) {
            return interval.hi < lo;
          });
      if (it != cover.end() && it->lo <= range.hi) {
        results[q].dead_overlap.push_back(d);
      }
    }
  }

  // Fan out over live shards only; concatenation in (live) shard order is
  // still global row order over the surviving rows.
  std::vector<std::uint32_t> live;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    if (s >= alive.size() || alive[s] != 0) {
      live.push_back(static_cast<std::uint32_t>(s));
    }
  }
  std::vector<RangeQueryResult> cells(live.size() * query_count);
  parallel_for_chunks(
      pool_of(options), cells.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        std::size_t engine_shard = index.shard_count();
        std::optional<RangeScanEngine> engine;
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          const std::size_t s = live[c / query_count];
          const std::uint64_t q = c % query_count;
          if (s != engine_shard) {
            engine.emplace(index.shard(s));
            engine_shard = s;
          }
          engine->scan(boxes[q], &cells[c].ids, &cells[c].stats);
        }
      });
  for (std::uint64_t q = 0; q < query_count; ++q) {
    RangeQueryResult& merged = results[q].result;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      total += cells[i * query_count + q].ids.size();
    }
    merged.ids.reserve(total);
    for (std::size_t i = 0; i < live.size(); ++i) {
      const RangeQueryResult& part = cells[i * query_count + q];
      merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
      merged.stats.rows_returned += part.stats.rows_returned;
      merged.stats.rows_scanned += part.stats.rows_scanned;
      merged.stats.runs_touched += part.stats.runs_touched;
      merged.stats.nodes_visited += part.stats.nodes_visited;
      merged.stats.used_subtree |= part.stats.used_subtree;
    }
  }
  return results;
}

std::vector<DegradedKnnResult> run_knn_queries_degraded(
    const ShardedIndex& index, std::span<const Point> queries, std::uint32_t k,
    std::span<const std::uint8_t> alive, const MultiQueryOptions& options) {
  const std::vector<std::uint32_t> dead = dead_shards_of(index, alive);
  const std::uint64_t query_count = queries.size();
  std::vector<DegradedKnnResult> results(query_count);
  if (dead.empty()) {
    std::vector<KnnQueryResult> plain =
        run_knn_queries(index, queries, k, options);
    for (std::uint64_t q = 0; q < query_count; ++q) {
      results[q].result = std::move(plain[q]);
    }
    return results;
  }

  std::vector<std::uint32_t> live;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    if (s >= alive.size() || alive[s] != 0) {
      live.push_back(static_cast<std::uint32_t>(s));
    }
  }
  std::vector<KnnQueryResult> cells(live.size() * query_count);
  parallel_for_chunks(
      pool_of(options), cells.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        std::size_t engine_shard = index.shard_count();
        std::optional<KnnEngine> engine;
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          const std::size_t s = live[c / query_count];
          const std::uint64_t q = c % query_count;
          if (s != engine_shard) {
            engine.emplace(index.shard(s));
            engine_shard = s;
          }
          cells[c].neighbors = engine->query(queries[q], k, &cells[c].stats);
        }
      });
  std::vector<KnnNeighbor> pool;
  for (std::uint64_t q = 0; q < query_count; ++q) {
    KnnQueryResult& merged = results[q].result;
    // Conservative: any dead shard could hold a closer neighbor for any
    // query point, so every query reports every dead shard and no partial
    // answer is certified.
    results[q].dead_overlap = dead;
    pool.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const KnnQueryResult& part = cells[i * query_count + q];
      pool.insert(pool.end(), part.neighbors.begin(), part.neighbors.end());
      merged.stats.nodes_expanded += part.stats.nodes_expanded;
      merged.stats.frontier_pushes += part.stats.frontier_pushes;
      merged.stats.rows_scanned += part.stats.rows_scanned;
      merged.stats.used_subtree |= part.stats.used_subtree;
    }
    merged.stats.certified = false;
    std::sort(pool.begin(), pool.end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
                if (a.key != b.key) return a.key < b.key;
                return a.id < b.id;
              });
    if (pool.size() > k) pool.resize(k);
    merged.neighbors = pool;
  }
  return results;
}

}  // namespace sfc
