// Microbenchmarks: the persistent index store (sfc/store) — crash-safe
// writes and validated mmap opens, next to an index build over the same
// points.
//
// The write path streams to a temp file, fsyncs, and renames; the open path
// runs the full verification pass (header digest, curve fingerprint, CRC32C
// column checksums, key range and order, directory consistency).  Serving
// restarts and every reload pay the open cost and rebuilds pay the write
// cost, so both are tracked.  Every benchmark reports rows per wall-clock
// second (the build runs on the thread pool), so the CI gate compares a
// verified open with BM_IndexBuild at 1M rows in the same job: the open must
// cost at most a fifth of the build
// (tools/check_bench_speedup.py --min-speedup 5).  The unverified open (used
// when reopening a file the process just validated) must stay essentially
// free next to both.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/rng/sampling.h"
#include "sfc/store/index_store.h"

namespace {

using namespace sfc;

std::string bench_path(const char* name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
         "/sfc_bench_store_" + name + ".sfcidx";
}

/// One point per cell on average: bits k -> 4^k points in a 2^k-side 2D
/// Hilbert universe (bits 9 = 256K points, bits 10 = 1M points).
struct StoreFixture {
  CurveDescriptor descriptor;
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;

  static StoreFixture make(int bits) {
    CurveDescriptor descriptor;
    descriptor.family = "hilbert";
    descriptor.dim = 2;
    descriptor.side = static_cast<coord_t>(1u << bits);
    CurvePtr curve = make_curve(descriptor);
    const Universe& u = curve->universe();
    Xoshiro256 rng(7);
    std::vector<Point> points;
    points.reserve(u.cell_count());
    for (index_t i = 0; i < u.cell_count(); ++i) {
      points.push_back(random_cell(u, rng));
    }
    PointIndex index = PointIndex::build(*curve, points);
    return StoreFixture{std::move(descriptor), std::move(curve),
                        std::move(points), std::move(index)};
  }
};

void BM_IndexBuild(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PointIndex index = PointIndex::build(*f.curve, f.points);
    benchmark::DoNotOptimize(index.keys().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.points.size()));
}
BENCHMARK(BM_IndexBuild)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_StoreWrite(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("write");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    write_index_file(path, f.index, f.descriptor);
    bytes = MappedIndex::open(path, {.verify = false}).file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.index.row_count()));
}
BENCHMARK(BM_StoreWrite)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_StoreOpenVerified(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("open_verified");
  write_index_file(path, f.index, f.descriptor);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const MappedIndex mapped = MappedIndex::open(path, {.verify = true});
    benchmark::DoNotOptimize(mapped.row_count());
    bytes = mapped.file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.index.row_count()));
}
BENCHMARK(BM_StoreOpenVerified)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_StoreOpenUnverified(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("open_unverified");
  write_index_file(path, f.index, f.descriptor);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const MappedIndex mapped = MappedIndex::open(path, {.verify = false});
    benchmark::DoNotOptimize(mapped.row_count());
    bytes = mapped.file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.index.row_count()));
}
BENCHMARK(BM_StoreOpenUnverified)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
