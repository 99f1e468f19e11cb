#include "layers.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <optional>
#include <span>

#include "sfc/index/executor.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/serve/sharded_index.h"
#include "sfc/sort/radix_sort.h"
#include "sfc/store/index_store.h"

namespace perfbench {

namespace {

/// Span ids of the probes, clear of the load phases' query ids.
constexpr std::uint64_t kProbeIdBase = 1ULL << 40;
constexpr std::uint64_t kSetupIdBase = 2ULL << 40;
constexpr std::uint64_t kSwapIdBase = 3ULL << 40;
constexpr std::uint32_t kSwapPairs = 8;
/// The shard probe's fan-out: 16 shards, the CI serving configuration.  No
/// workload serves sharded, so the shard layer is timed on its own view.
constexpr int kFanoutShardBits = 4;

/// Calls fn() `reps` times, one span per call; returns the fastest call in
/// microseconds.  Query probes take the fastest of three, so per-query
/// paired differences compare warm calls.
template <typename Fn>
double timed(std::vector<Span>& spans, std::uint64_t id, const char* name,
             Fn&& fn, int reps = 3) {
  std::int64_t best = INT64_MAX;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    spans.push_back({id, name, t0, t1});
    best = std::min(best, t1 - t0);
  }
  return static_cast<double>(best) / 1e3;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void probe_query_layers(sfc::IndexServer& server,
                        const std::vector<Query>& queries, MetricMap& out,
                        std::vector<Span>& spans, std::uint64_t* wrong) {
  const std::shared_ptr<const sfc::IndexGeneration> gen = server.generation();
  const sfc::ShardedIndex& sharded = gen->sharded();
  const sfc::IndexColumnsView& base = sharded.base();
  const sfc::ShardedIndex fanout(base, kFanoutShardBits);
  const sfc::RangeCoverEngine cover(base.curve());
  sfc::CoverWorkspace ws;
  sfc::RangeScanEngine scan(base);
  sfc::KnnEngine knn(base);

  std::vector<double> serve_self, shard_self, cover_us, resolve_us, gather_us,
      knn_us;
  double runs = 0, nodes = 0, rows = 0, rows_scanned = 0, range_n = 0;
  double shard_nodes = 0, base_nodes = 0;
  double knn_rows = 0, knn_pushes = 0, knn_k = 0, knn_n = 0;
  double shard_knn_rows = 0, base_knn_rows = 0;
  std::vector<std::uint32_t> ids;

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const std::uint64_t id = kProbeIdBase + i;
    if (q.knn) {
      sfc::ServedKnn served;
      std::vector<sfc::KnnQueryResult> sh, bs;
      std::vector<sfc::KnnNeighbor> nn;
      sfc::KnnStats st;
      const std::span<const sfc::Point> one(&q.p, 1);
      const double t_serve = timed(spans, id, "serve.knn", [&] {
        served = server.knn_query_served(q.p, q.k);
      });
      const double t_served_exec = timed(spans, id, "serve.knn_executor",
                                         [&] {
        sfc::run_knn_queries(sharded, one, q.k);
      });
      const double t_shard = timed(spans, id, "shard.knn", [&] {
        sh = sfc::run_knn_queries(fanout, one, q.k);
      });
      const double t_base = timed(spans, id, "index.knn_executor", [&] {
        bs = sfc::run_knn_queries(base, one, q.k);
      });
      knn_us.push_back(timed(spans, id, "index.knn",
                             [&] { nn = knn.query(q.p, q.k, &st); }));
      if (served.result.neighbors != nn) ++*wrong;
      serve_self.push_back(t_serve - t_served_exec);
      shard_self.push_back(t_shard - t_base);
      knn_rows += static_cast<double>(st.rows_scanned);
      knn_pushes += static_cast<double>(st.frontier_pushes);
      knn_k += q.k;
      knn_n += 1;
      shard_knn_rows += static_cast<double>(sh[0].stats.rows_scanned);
      base_knn_rows += static_cast<double>(bs[0].stats.rows_scanned);
    } else {
      const sfc::Box box = q.box();
      sfc::ServedRange served;
      std::vector<sfc::RangeQueryResult> sh, bs;
      sfc::CoverStats cs;
      sfc::RangeScanStats st;
      std::span<const sfc::KeyInterval> intervals;
      std::uint64_t resolved = 0;
      const std::span<const sfc::Box> one(&box, 1);
      const double t_serve = timed(spans, id, "serve.range", [&] {
        served = server.range_query_served(box);
      });
      const double t_served_exec = timed(spans, id, "serve.range_executor",
                                         [&] {
        sfc::run_range_queries(sharded, one);
      });
      const double t_shard = timed(spans, id, "shard.range", [&] {
        sh = sfc::run_range_queries(fanout, one);
      });
      const double t_base = timed(spans, id, "index.range_executor", [&] {
        bs = sfc::run_range_queries(base, one);
      });
      const double t_cover = timed(spans, id, "ranges.cover", [&] {
        intervals = cover.cover(box, ws, &cs);
      });
      const double t_resolve = timed(spans, id, "index.resolve", [&] {
        resolved = 0;
        for (const sfc::KeyInterval& iv : intervals) {
          const auto [first, last] = base.rows_in_interval(iv.lo, iv.hi);
          resolved += last - first;
        }
      });
      const double t_scan = timed(spans, id, "index.scan",
                                  [&] { scan.scan(box, &ids, &st); });
      if (served.result.ids != ids || resolved != ids.size()) ++*wrong;
      serve_self.push_back(t_serve - t_served_exec);
      shard_self.push_back(t_shard - t_base);
      cover_us.push_back(t_cover);
      resolve_us.push_back(t_resolve);
      gather_us.push_back(t_scan - t_cover - t_resolve);
      runs += static_cast<double>(intervals.size());
      nodes += static_cast<double>(cs.nodes_visited);
      rows += static_cast<double>(st.rows_returned);
      rows_scanned += static_cast<double>(st.rows_scanned);
      range_n += 1;
      shard_nodes += static_cast<double>(sh[0].stats.nodes_visited);
      base_nodes += static_cast<double>(bs[0].stats.nodes_visited);
    }
  }

  out["serve.self_us.p50"] = {median(serve_self), "us"};
  out["shard.self_us.p50"] = {median(shard_self), "us"};
  out["shard.cover_amplification"] = {ratio(shard_nodes, base_nodes), "ratio"};
  out["shard.knn_rows_amplification"] = {ratio(shard_knn_rows, base_knn_rows),
                                         "ratio"};
  out["ranges.cover_us.p50"] = {median(cover_us), "us"};
  out["ranges.runs_per_query"] = {ratio(runs, range_n), "count"};
  out["ranges.nodes_per_query"] = {ratio(nodes, range_n), "count"};
  out["index.resolve_us.p50"] = {median(resolve_us), "us"};
  out["index.gather_us.p50"] = {median(gather_us), "us"};
  out["index.rows_per_query"] = {ratio(rows, range_n), "count"};
  out["index.scan_efficiency"] = {ratio(rows, rows_scanned), "ratio"};
  out["index.knn_us.p50"] = {median(knn_us), "us"};
  out["index.knn_rows_per_query"] = {ratio(knn_rows, knn_n), "count"};
  out["index.knn_pushes_per_query"] = {ratio(knn_pushes, knn_n), "count"};
  out["index.knn_useful_ratio"] = {ratio(knn_k, knn_rows), "ratio"};
}

void probe_setup_layers(const sfc::SpaceFillingCurve& curve,
                        const sfc::CurveDescriptor& descriptor,
                        const std::vector<sfc::Point>& points,
                        const std::string& path, MetricMap& out,
                        std::vector<Span>& spans) {
  std::vector<double> encode, sort, build, write, open_verified,
      open_unverified, verify;
  std::vector<sfc::index_t> keys(points.size());
  for (std::uint32_t r = 0; r < kSetupRepeats; ++r) {
    const std::uint64_t id = kSetupIdBase + r;
    encode.push_back(timed(spans, id, "curves.encode", [&] {
      curve.index_of_batch(points, keys);
    }, 1));
    // Results are released after their span ends, so no span times a free.
    std::optional<sfc::SortedKeyColumns> cols;
    sort.push_back(timed(spans, id, "sort.columns", [&] {
      cols.emplace(sfc::sort_curve_key_columns(curve, points));
    }, 1));
    cols.reset();
    std::optional<sfc::PointIndex> index;
    build.push_back(timed(spans, id, "index.build", [&] {
      index.emplace(sfc::PointIndex::build(curve, points));
    }, 1));
    write.push_back(timed(spans, id, "store.write", [&] {
      sfc::write_index_file(path, *index, descriptor);
    }, 1));
    index.reset();
    std::optional<sfc::MappedIndex> mapped;
    const double v = timed(spans, id, "store.open_verified", [&] {
      mapped.emplace(sfc::MappedIndex::open(path));
    }, 1);
    mapped.reset();
    sfc::MappedIndexOptions unverified;
    unverified.verify = false;
    const double u = timed(spans, id, "store.open_unverified", [&] {
      mapped.emplace(sfc::MappedIndex::open(path, unverified));
    }, 1);
    mapped.reset();
    open_verified.push_back(v);
    open_unverified.push_back(u);
    verify.push_back(v - u);
  }
  out["curves.encode_ns_per_key"] = {
      median(encode) * 1e3 / static_cast<double>(points.size()), "ns"};
  out["sort.columns_s"] = {median(sort) / 1e6, "s"};
  out["index.build_s"] = {median(build) / 1e6, "s"};
  out["store.write_s"] = {median(write) / 1e6, "s"};
  out["store.open_verified_s"] = {median(open_verified) / 1e6, "s"};
  out["store.open_unverified_ms"] = {median(open_unverified) / 1e3, "ms"};
  out["store.verify_s"] = {median(verify) / 1e6, "s"};
  out["store.file_bytes"] = {
      static_cast<double>(std::filesystem::file_size(path)), "B"};
  std::filesystem::remove(path);
}

void probe_swap(sfc::IndexServer& server, const std::string& path,
                MetricMap& out, std::vector<Span>& spans) {
  // The host's interference only ever slows a call down, so the fastest
  // call of each kind is the steadiest estimate of its own cost.
  double open = 1e300, reload = 1e300;
  for (std::uint32_t j = 0; j < kSwapPairs; ++j) {
    const std::uint64_t id = kSwapIdBase + j;
    auto do_open = [&] {
      std::optional<sfc::MappedIndex> mapped;
      open = std::min(open, timed(spans, id, "store.open_verified", [&] {
        mapped.emplace(sfc::MappedIndex::open(path));
      }, 1));
    };
    auto do_reload = [&] {
      reload = std::min(reload, timed(spans, id, "gen.reload",
                                      [&] { server.reload(path); }, 1));
    };
    // Alternate the order so neither call always finds a warmer cache.
    if (j % 2 == 0) {
      do_open();
      do_reload();
    } else {
      do_reload();
      do_open();
    }
  }
  out["gen.swap_ms"] = {(reload - open) / 1e3, "ms"};
}

}  // namespace perfbench
