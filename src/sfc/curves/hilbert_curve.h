// The Hilbert curve in arbitrary dimension (Hilbert [13]).
//
// The curve is Skilling's ("Programming the Hilbert curve", AIP Conf. Proc.
// 707, 2004; kernels in hilbert_skilling.h), but it is encoded and decoded as
// a finite-state machine in the view of Haverkort & van Walderveen: a base
// motif (the order of the 2^d subcubes) plus, per child, a signed bit
// permutation of the motif.  Every subtree's orientation is a composition of
// those transforms, and in low dimensions the reachable orientations are
// few, so a key is translated one or several levels per table lookup:
//
//   Hilbert key --(decode tables)--> Morton key --deinterleave--> cell
//   cell --interleave--> Morton key --(encode tables)--> Hilbert key
//
// The tables depend only on d.  They are derived once per dimension from
// Skilling's decoder and checked against it at derivation; the same tables
// drive subtree descent.  Above five dimensions the orientation group is too
// large to tabulate, and the walk composes the transforms level by level.
// The curve is continuous — consecutive keys are always nearest neighbors —
// which the test suite verifies exhaustively for small universes in 2..6
// dimensions.
//
// The paper leaves the average NN-stretch of the Hilbert curve as an open
// question (§VI); bench/repro_ext_hilbert measures it.  Requires side = 2^k.
#pragma once

#include <cstdint>

#include "sfc/curves/space_filling_curve.h"

namespace sfc {

namespace detail {
struct HilbertTables;  // per-dimension state tables (hilbert_curve.cpp)
}  // namespace detail

class HilbertCurve final : public SpaceFillingCurve {
 public:
  explicit HilbertCurve(Universe universe);

  std::string name() const override { return "hilbert"; }
  index_t index_of(const Point& cell) const override;
  Point point_at(index_t key) const override;
  bool is_continuous() const override { return true; }

  /// Batched codec: the interleave kernels fused with the table walk.
  void index_of_batch(std::span<const Point> cells,
                      std::span<index_t> keys) const override;
  void point_at_batch(std::span<const index_t> keys,
                      std::span<Point> cells) const override;

  /// Dyadic: every 2^d-way key split lands on the 2^d aligned half-side
  /// subcubes (the defining self-similarity).
  coord_t subtree_radix() const override { return 2; }

  /// State descent: a node's state is its orientation (a table row, or a
  /// packed transform above five dimensions), so its 2^d children cost one
  /// lookup or one transform composition each — no decoding.
  void subtree_children(const SubtreeNode& node,
                        std::span<SubtreeNode> children) const override;
  void subtree_children_batch(std::span<const SubtreeNode> nodes,
                              std::span<SubtreeNode> children) const override;

 private:
  index_t morton_to_key(index_t morton) const;
  index_t key_to_morton(index_t key) const;

  int level_bits_;
  /// Shared per dimension; null when d = 1 (the identity curve).
  const detail::HilbertTables* tables_ = nullptr;
};

}  // namespace sfc
