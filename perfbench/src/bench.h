// Shared types of the serving benchmark harness: settings, seeded inputs,
// answer digests, per-query records and percentile helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sfc/grid/box.h"
#include "sfc/grid/point.h"
#include "sfc/index/knn.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One workload's settings, as run.py passes them from workloads.json.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;

  std::uint64_t points = 0;      ///< rows per dataset
  std::uint32_t side = 1024;     ///< 2D Hilbert universe side
  std::uint32_t box_extent = 8;  ///< range boxes are extent x extent cells
  std::uint32_t knn_percent = 50;
  std::uint32_t pool = 4096;     ///< distinct queries replayed cyclically
  double paced_qps = 1000.0;
  /// Two datasets and a writer that rebuilds, rewrites and reloads the
  /// served file every reload_period_s during the paced blocks.  Without
  /// churn only the traced run reloads under load: the unchanged file, on
  /// the same period.
  bool churn = false;
  double reload_period_s = 0.5;
  std::uint32_t threads = 0;     ///< harness threads: the CPUs (nproc)
};

/// Neighbours per k-NN query, in every workload.
constexpr std::uint32_t kKnnK = 8;
/// Set-ups per run (setup_s is their median) and per traced set-up probe.
constexpr std::uint32_t kSetupRepeats = 5;

/// Seeded generator for every input the benchmark makes.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Query {
  bool knn = false;
  sfc::Point lo, hi;  ///< range corners (inclusive)
  sfc::Point p;       ///< kNN query point
  std::uint32_t k = 0;
  sfc::Box box() const { return sfc::Box(lo, hi); }
};

/// Order-sensitive digests of an answer: range ids in row order, kNN
/// (id, squared distance) in rank order.
inline std::uint64_t digest_mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}
inline std::uint64_t digest_range(std::span<const std::uint32_t> ids) {
  std::uint64_t h = ids.size();
  for (std::uint32_t id : ids) h = (h + id + 1) * 0x9e3779b97f4a7c15ULL;
  return digest_mix(h);
}
inline std::uint64_t digest_knn(std::span<const sfc::KnnNeighbor> nn) {
  std::uint64_t h = nn.size() + 0x5bd1e995ULL;
  for (const sfc::KnnNeighbor& n : nn) {
    h = (h + n.id + 1) * 0x9e3779b97f4a7c15ULL;
    h = (h + n.sq_dist) * 0xc2b2ae3d27d4eb4fULL;
  }
  return digest_mix(h);
}

enum class Outcome : std::uint32_t { kAnswered, kShed, kTimedOut, kError };

/// One served query: its pool slot, the epoch that answered it, the answer
/// digest (taken after the clock stopped), and its timestamps.  In a traced
/// run a record is the query's serve span.
struct Record {
  std::uint64_t seq = 0;      ///< position in the phase's send order
  std::uint32_t slot = 0;
  Outcome outcome = Outcome::kAnswered;
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
  std::int64_t due_ns = 0;   ///< scheduled send time (paced) or send time
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

/// A reload performed by the writer: [start, end] of the reload() call and
/// which dataset the new epoch serves.
struct ReloadEvent {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t epoch = 0;
  int dataset = 0;
  bool ok = true;
};

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

/// The highest nearest-rank percentile with at least ten samples beyond it,
/// but never below the median: with 20 samples or fewer it is p50.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t samples = 0;
};
inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t median_rank = (v.size() + 1) / 2;
  const std::size_t rank =  // 1-based; v.size() - 10 leaves 10 above it
      v.size() > 10 ? std::max(v.size() - 10, median_rank) : median_rank;
  t.value = v[rank - 1];
  t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return t;
}

}  // namespace perfbench
