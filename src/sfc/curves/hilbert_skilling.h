// Skilling's transpose algorithm for the d-dimensional Hilbert curve
// ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004).
//
// HilbertCurve does not encode or decode through these kernels: it walks
// orientation-state tables instead (hilbert_curve.h).  Skilling's transforms
// are what those tables are derived from, and they stay available here as
// the independent oracle the table codec is tested and benchmarked against.
// Coordinates are transformed in place to or from the "transposed" form of
// the Hilbert index, which is then (de)interleaved exactly like a Morton key.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sfc/common/types.h"
#include "sfc/curves/bitops.h"
#include "sfc/grid/point.h"

namespace sfc::skilling {

/// AxestoTranspose: grid coordinates -> transposed Hilbert index, in place.
/// x[i] are b-bit values.
inline void axes_to_transpose(std::array<std::uint32_t, kMaxDim>& x, int b,
                              int d) {
  if (b == 0 || d < 2) return;
  const std::uint32_t m = 1u << (b - 1);
  // Inverse undo of the excess-work loop in transpose_to_axes.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t i = 0; i < static_cast<std::size_t>(d); ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert low bits of x[0]
      } else {
        const std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::size_t i = 1; i < static_cast<std::size_t>(d); ++i) {
    x[i] ^= x[i - 1];
  }
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if (x[static_cast<std::size_t>(d - 1)] & q) t ^= q - 1;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(d); ++i) x[i] ^= t;
}

/// TransposetoAxes: transposed Hilbert index -> grid coordinates, in place.
inline void transpose_to_axes(std::array<std::uint32_t, kMaxDim>& x, int b,
                              int d) {
  if (b == 0 || d < 2) return;
  const std::uint32_t n = 2u << (b - 1);
  // Gray decode by H ^ (H/2).
  const std::uint32_t t = x[static_cast<std::size_t>(d - 1)] >> 1;
  for (std::size_t i = static_cast<std::size_t>(d - 1); i > 0; --i) {
    x[i] ^= x[i - 1];
  }
  x[0] ^= t;
  // Undo excess work.
  for (std::uint32_t q = 2; q != n; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (int i = d - 1; i >= 0; --i) {
      const auto at = static_cast<std::size_t>(i);
      if (x[at] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t s = (x[0] ^ x[at]) & p;
        x[0] ^= s;
        x[at] ^= s;
      }
    }
  }
}

/// Hilbert key of `cell` in a d = cell.dim() universe of side 2^b.  The
/// transposed form carries the most significant bit of each level in x[0],
/// matching the Morton interleave convention.
inline index_t index_of(const Point& cell, int b) {
  const int d = cell.dim();
  if (d == 1) return cell[0];
  std::array<std::uint32_t, kMaxDim> x{};
  for (int i = 0; i < d; ++i) x[static_cast<std::size_t>(i)] = cell[i];
  axes_to_transpose(x, b, d);
  Point transposed = Point::zero(d);
  for (int i = 0; i < d; ++i) transposed[i] = x[static_cast<std::size_t>(i)];
  return interleave(transposed, b);
}

/// Inverse of index_of.
inline Point point_at(index_t key, int d, int b) {
  if (d == 1) {
    Point p = Point::zero(1);
    p[0] = static_cast<coord_t>(key);
    return p;
  }
  const Point transposed = deinterleave(key, d, b);
  std::array<std::uint32_t, kMaxDim> x{};
  for (int i = 0; i < d; ++i) x[static_cast<std::size_t>(i)] = transposed[i];
  transpose_to_axes(x, b, d);
  Point p = Point::zero(d);
  for (int i = 0; i < d; ++i) p[i] = x[static_cast<std::size_t>(i)];
  return p;
}

}  // namespace sfc::skilling
