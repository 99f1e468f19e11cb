// Microbenchmarks: curve key encode/decode throughput per family, the
// generic-vs-magic-mask Morton ablation, the batched-vs-scalar codec
// comparison (CI checks batched Z encode is >= 2x the scalar-virtual loop at
// 1M points), and the Hilbert state-table codec against Skilling's
// transforms, the reference it is derived from (CI checks batched Hilbert
// encode and decode are >= 4x it at 1M keys).  tools/check_bench_speedup.py
// parses the --benchmark_out JSON.
#include <benchmark/benchmark.h>

#include <numeric>
#include <span>
#include <vector>

#include "sfc/curves/bitops.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/curves/hilbert_skilling.h"
#include "sfc/rng/xoshiro256.h"

namespace {

using namespace sfc;

// Pre-generated random cells so the benchmark measures encoding, not RNG.
std::vector<Point> make_cells(const Universe& u, std::size_t count) {
  Xoshiro256 rng(7);
  std::vector<Point> cells(count, Point::zero(u.dim()));
  for (auto& cell : cells) {
    for (int i = 0; i < u.dim(); ++i) {
      cell[i] = static_cast<coord_t>(rng.next_below(u.side()));
    }
  }
  return cells;
}

void BM_Encode(benchmark::State& state, CurveFamily family, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  const auto cells = make_cells(u, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->index_of(cells[i]));
    i = (i + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Decode(benchmark::State& state, CurveFamily family, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  Xoshiro256 rng(9);
  std::vector<index_t> keys(1024);
  for (auto& key : keys) key = rng.next_below(u.cell_count());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->point_at(keys[i]));
    i = (i + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}

// --- Batched vs scalar codec, bulk buffers ---------------------------------
// The scalar loop is the pre-batch baseline: one virtual dispatch per point.
// The batch call dispatches once and runs the branch-free kernel.

void BM_EncodeScalarLoop(benchmark::State& state, CurveFamily family, int d,
                         int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto cells = make_cells(u, count);
  std::vector<index_t> keys(count);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = curve->index_of(cells[i]);
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_EncodeBatch(benchmark::State& state, CurveFamily family, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto cells = make_cells(u, count);
  std::vector<index_t> keys(count);
  for (auto _ : state) {
    curve->index_of_batch(cells, keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_DecodeScalarLoop(benchmark::State& state, CurveFamily family, int d,
                         int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<index_t> keys(count);
  Xoshiro256 rng(11);
  for (auto& key : keys) key = rng.next_below(u.cell_count());
  std::vector<Point> cells(count, Point::zero(d));
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      cells[i] = curve->point_at(keys[i]);
    }
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_DecodeBatch(benchmark::State& state, CurveFamily family, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const CurvePtr curve = make_curve(family, u, 1);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<index_t> keys(count);
  Xoshiro256 rng(11);
  for (auto& key : keys) key = rng.next_below(u.cell_count());
  std::vector<Point> cells(count, Point::zero(d));
  for (auto _ : state) {
    curve->point_at_batch(keys, cells);
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

// Skilling's transpose kernels over the same buffers as the Hilbert batch
// benchmarks: the reference the table codec is derived from.
void BM_EncodeSkilling(benchmark::State& state, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto cells = make_cells(u, count);
  std::vector<index_t> keys(count);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = skilling::index_of(cells[i], k);
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_DecodeSkilling(benchmark::State& state, int d, int k) {
  const Universe u = Universe::pow2(d, k);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<index_t> keys(count);
  Xoshiro256 rng(11);
  for (auto& key : keys) key = rng.next_below(u.cell_count());
  std::vector<Point> cells(count, Point::zero(d));
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      cells[i] = skilling::point_at(keys[i], d, k);
    }
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_MortonGenericSpread(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint32_t> values(1024);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.next() & 0xffff);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spread_bits(values[i], 2, 16));
    i = (i + 1) & 1023;
  }
}

void BM_MortonMagicSpread(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint32_t> values(1024);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.next() & 0xffff);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spread_bits_2(values[i]));
    i = (i + 1) & 1023;
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Encode, z_d2_k10, CurveFamily::kZ, 2, 10);
BENCHMARK_CAPTURE(BM_Encode, z_d3_k7, CurveFamily::kZ, 3, 7);
BENCHMARK_CAPTURE(BM_Encode, simple_d2_k10, CurveFamily::kSimple, 2, 10);
BENCHMARK_CAPTURE(BM_Encode, snake_d2_k10, CurveFamily::kSnake, 2, 10);
BENCHMARK_CAPTURE(BM_Encode, gray_d2_k10, CurveFamily::kGray, 2, 10);
BENCHMARK_CAPTURE(BM_Encode, hilbert_d2_k10, CurveFamily::kHilbert, 2, 10);
BENCHMARK_CAPTURE(BM_Encode, hilbert_d3_k7, CurveFamily::kHilbert, 3, 7);

BENCHMARK_CAPTURE(BM_Decode, z_d2_k10, CurveFamily::kZ, 2, 10);
BENCHMARK_CAPTURE(BM_Decode, hilbert_d2_k10, CurveFamily::kHilbert, 2, 10);
BENCHMARK_CAPTURE(BM_Decode, simple_d2_k10, CurveFamily::kSimple, 2, 10);

BENCHMARK(BM_MortonGenericSpread);
BENCHMARK(BM_MortonMagicSpread);

// Batched vs scalar, at a CI-smoke size (16K) and the acceptance size (1M).
#define SFC_BATCH_SIZES Arg(1 << 14)->Arg(1 << 20)
BENCHMARK_CAPTURE(BM_EncodeScalarLoop, z_d2_k10, CurveFamily::kZ, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeBatch, z_d2_k10, CurveFamily::kZ, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeScalarLoop, z_d3_k7, CurveFamily::kZ, 3, 7)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeBatch, z_d3_k7, CurveFamily::kZ, 3, 7)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeScalarLoop, gray_d2_k10, CurveFamily::kGray, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeBatch, gray_d2_k10, CurveFamily::kGray, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeScalarLoop, hilbert_d2_k10, CurveFamily::kHilbert, 2,
                  10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeBatch, hilbert_d2_k10, CurveFamily::kHilbert, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeSkilling, hilbert_d2_k10, 2, 10)->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeBatch, hilbert_d3_k7, CurveFamily::kHilbert, 3, 7)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_EncodeSkilling, hilbert_d3_k7, 3, 7)->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeScalarLoop, z_d2_k10, CurveFamily::kZ, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeBatch, z_d2_k10, CurveFamily::kZ, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeScalarLoop, gray_d2_k10, CurveFamily::kGray, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeBatch, gray_d2_k10, CurveFamily::kGray, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeBatch, hilbert_d2_k10, CurveFamily::kHilbert, 2, 10)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeSkilling, hilbert_d2_k10, 2, 10)->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeBatch, hilbert_d3_k7, CurveFamily::kHilbert, 3, 7)
    ->SFC_BATCH_SIZES;
BENCHMARK_CAPTURE(BM_DecodeSkilling, hilbert_d3_k7, 3, 7)->SFC_BATCH_SIZES;
#undef SFC_BATCH_SIZES

BENCHMARK_MAIN();
