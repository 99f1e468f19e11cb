// Seeded inputs and answer checking: datasets, query pools, reference
// digests from the direct single-query engines, and the brute-force sample.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/index/columns_view.h"

namespace perfbench {

/// Runs fn(t) for t in [0, threads): t = 0 on the calling thread, the rest
/// on new threads, all joined before returning.  The harness never has more
/// than `threads` threads doing work.
void run_threads(std::uint32_t threads,
                 const std::function<void(std::uint32_t)>& fn);

/// `count` uniform points of the side x side universe.
std::vector<sfc::Point> make_points(std::uint64_t count, std::uint32_t side,
                                    std::uint64_t seed);

/// The workload's query pool: range boxes of box_extent cells per side and
/// k-NN points, mixed by knn_percent.
std::vector<Query> make_queries(const Settings& s, std::uint32_t count,
                                std::uint64_t seed);

/// The digest of every pool query's answer from RangeScanEngine::scan or
/// KnnEngine::query on `view` (the direct single-query engines).
std::vector<std::uint64_t> reference_digests(const sfc::IndexColumnsView& view,
                                             const std::vector<Query>& queries,
                                             std::uint32_t threads);

/// Compares the direct engine answer on `view` with a brute-force scan of
/// `points` (ids = positions) for every query in `sample`: range ids as a
/// set, k-NN as the exact (squared distance, curve key, id) sequence.
/// Returns the number of mismatching queries.
std::uint64_t brute_force_mismatches(const sfc::IndexColumnsView& view,
                                     const sfc::SpaceFillingCurve& curve,
                                     const std::vector<sfc::Point>& points,
                                     const std::vector<Query>& queries,
                                     const std::vector<std::uint32_t>& sample,
                                     std::uint32_t threads);

}  // namespace perfbench
