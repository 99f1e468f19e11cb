#include "sfc/index/range_scan.h"

#include <algorithm>
#include <array>

#include "sfc/obs/metrics.h"

namespace sfc {

namespace {

struct RangeScanMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter rows_returned;
  MetricsRegistry::Counter rows_scanned;
  MetricsRegistry::Counter runs_in_cover;
  MetricsRegistry::Counter runs_touched;
  MetricsRegistry::Counter nodes_visited;
};

RangeScanMetrics& range_scan_metrics() {
  static RangeScanMetrics metrics{
      MetricsRegistry::global().counter("index.range.queries"),
      MetricsRegistry::global().counter("index.range.rows_returned"),
      MetricsRegistry::global().counter("index.range.rows_scanned"),
      MetricsRegistry::global().counter("index.range.runs_in_cover"),
      MetricsRegistry::global().counter("index.range.runs_touched"),
      MetricsRegistry::global().counter("index.range.nodes_visited"),
  };
  return metrics;
}

}  // namespace

void RangeScanEngine::scan(const Box& box, std::vector<std::uint32_t>* out,
                           RangeScanStats* stats) {
  out->clear();
  RangeScanStats local;
  CoverStats cover_stats;
  const std::span<const std::uint32_t> ids = view_.ids();
  cover_.for_each_interval(
      box, ws_,
      [&](const KeyInterval& interval) {
        ++local.runs_in_cover;
        const auto [first, last] =
            view_.rows_in_interval(interval.lo, interval.hi);
        if (first == last) return;
        ++local.runs_touched;
        local.rows_returned += last - first;
        out->insert(out->end(), ids.begin() + static_cast<std::ptrdiff_t>(first),
                    ids.begin() + static_cast<std::ptrdiff_t>(last));
      },
      &cover_stats);
  // Exact covers: every resolved row is a hit, nothing else was touched.
  local.rows_scanned = local.rows_returned;
  local.nodes_visited = cover_stats.nodes_visited;
  local.used_subtree = cover_stats.used_subtree;
  if (obs_enabled()) {
    RangeScanMetrics& metrics = range_scan_metrics();
    metrics.queries.add(1);
    metrics.rows_returned.add(local.rows_returned);
    metrics.rows_scanned.add(local.rows_scanned);
    metrics.runs_in_cover.add(local.runs_in_cover);
    metrics.runs_touched.add(local.runs_touched);
    metrics.nodes_visited.add(local.nodes_visited);
  }
  if (stats != nullptr) *stats = local;
}

std::vector<std::uint32_t> range_scan_full(const IndexColumnsView& view,
                                           const Box& box,
                                           RangeScanStats* stats) {
  std::vector<std::uint32_t> out;
  const std::uint64_t n = view.row_count();
  const std::span<const index_t> keys = view.keys();
  constexpr std::uint64_t kTile = 256;
  std::array<Point, kTile> tile;
  for (std::uint64_t at = 0; at < n; at += kTile) {
    const std::uint64_t rows = std::min(kTile, n - at);
    view.curve().point_at_batch(keys.subspan(at, rows),
                                std::span<Point>(tile.data(), rows));
    for (std::uint64_t i = 0; i < rows; ++i) {
      if (box.contains(tile[i])) out.push_back(view.id_of_row(at + i));
    }
  }
  if (stats != nullptr) {
    *stats = RangeScanStats{};
    stats->rows_returned = out.size();
    stats->rows_scanned = n;
  }
  return out;
}

}  // namespace sfc
