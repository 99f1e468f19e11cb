#include "sfc/curves/hilbert_curve.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "sfc/curves/batch_kernels.h"
#include "sfc/curves/bitops.h"
#include "sfc/curves/hilbert_skilling.h"

namespace sfc {

namespace {

/// A signed bit permutation of d-bit digits: T(x) = P(x) ^ flip, where P
/// moves bit i of x to bit to[i].  Hilbert orientations are such transforms
/// (rotations and reflections of the subcube).
struct DigitTransform {
  std::array<std::uint8_t, kMaxDim> to{0, 1, 2, 3, 4, 5, 6, 7};
  std::uint32_t flip = 0;

  std::uint32_t apply(std::uint32_t x, int d) const {
    std::uint32_t y = 0;
    for (int i = 0; i < d; ++i) {
      y |= ((x >> i) & 1u) << to[static_cast<std::size_t>(i)];
    }
    return y ^ flip;
  }
  std::uint32_t invert(std::uint32_t y, int d) const {
    y ^= flip;
    std::uint32_t x = 0;
    for (int i = 0; i < d; ++i) {
      x |= ((y >> to[static_cast<std::size_t>(i)]) & 1u) << i;
    }
    return x;
  }
  /// (*this ∘ inner)(x) = apply(inner.apply(x)).
  DigitTransform after(const DigitTransform& inner, int d) const {
    DigitTransform t;
    for (int i = 0; i < d; ++i) {
      const auto at = static_cast<std::size_t>(i);
      t.to[at] = to[inner.to[at]];
    }
    t.flip = apply(inner.flip, d);
    return t;
  }
  /// 32-bit packing (3 bits per permuted position, 8 flip bits); the
  /// identity packs to 0, the root state of subtree descent.
  std::uint32_t pack() const {
    std::uint32_t c = flip << 24;
    for (std::uint32_t i = 0; i < kMaxDim; ++i) c |= (to[i] ^ i) << (3 * i);
    return c;
  }
  static DigitTransform unpack(std::uint32_t c) {
    DigitTransform t;
    for (std::uint32_t i = 0; i < kMaxDim; ++i) {
      t.to[i] = static_cast<std::uint8_t>(((c >> (3 * i)) & 7u) ^ i);
    }
    t.flip = c >> 24;
    return t;
  }
};

}  // namespace

// The Hilbert construction of one dimension: the base motif (visit j ->
// subcube digit, dimension 1 most significant) and each child's orientation
// relative to its parent.  Up to kMaxTabledDim the reachable orientations
// are enumerated into lookup tables: an entry is (next state << 8) | output
// digits, indexed by (state << (d * g)) | input digits for a g-level lookup;
// decoding maps Hilbert digits to Morton digits, encoding the reverse, and
// state 0 is the root.  Above it the orientation group is too large to
// enumerate (d = 6 reaches 23040 orientations), so the walk composes the
// transforms directly and a subtree state is a packed DigitTransform.
struct detail::HilbertTables {
  int d = 0;
  std::array<std::uint8_t, 256> base{};
  std::array<std::uint8_t, 256> base_inverse{};
  std::array<DigitTransform, 256> child{};

  bool tabled = false;
  int step_levels = 1;
  std::uint32_t states = 0;
  std::vector<std::uint32_t> decode_one, encode_one;    // one level per lookup
  std::vector<std::uint32_t> decode_many, encode_many;  // step_levels levels
  const std::uint32_t* decode_step = nullptr;  // decode_many, or decode_one
  const std::uint32_t* encode_step = nullptr;  //   when step_levels == 1

  index_t decode(index_t key, int b) const;
  index_t encode(index_t morton, int b) const;
};

namespace {

constexpr int kMaxTabledDim = 5;
// Multi-level tables stay within this many entries (256 KB).
constexpr std::size_t kMaxStepEntries = std::size_t{1} << 16;

/// Translates the b-level digit string `in` (d bits per level, most
/// significant level first) through a table pair: b % levels single-level
/// lookups, then one lookup per `levels` levels.
inline index_t walk(const std::uint32_t* one, const std::uint32_t* step,
                    int d, int levels, int b, index_t in) {
  const index_t one_mask = (index_t{1} << d) - 1;
  const int step_bits = d * levels;
  const index_t step_mask = (index_t{1} << step_bits) - 1;
  std::uint32_t state = 0;
  index_t out = 0;
  int level = b;
  for (int lead = b % levels; lead > 0; --lead) {
    --level;
    const int shift = level * d;
    const std::uint32_t e =
        one[(index_t{state} << d) | ((in >> shift) & one_mask)];
    out |= index_t{e & 0xffu} << shift;
    state = e >> 8;
  }
  while (level > 0) {
    level -= levels;
    const int shift = level * d;
    const std::uint32_t e =
        step[(index_t{state} << step_bits) | ((in >> shift) & step_mask)];
    out |= index_t{e & 0xffu} << shift;
    state = e >> 8;
  }
  return out;
}

/// Composes `levels` single-level lookups into one table over d*levels-bit
/// digit groups.
std::vector<std::uint32_t> compose_levels(const std::vector<std::uint32_t>& one,
                                          std::uint32_t states, int d,
                                          int levels) {
  const std::uint32_t groups = 1u << (d * levels);
  const std::uint32_t digit_mask = (1u << d) - 1;
  std::vector<std::uint32_t> table(std::size_t{states} * groups);
  for (std::uint32_t s = 0; s < states; ++s) {
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::uint32_t state = s;
      std::uint32_t out = 0;
      for (int k = levels - 1; k >= 0; --k) {
        const std::uint32_t digit = (g >> (k * d)) & digit_mask;
        const std::uint32_t e = one[(std::size_t{state} << d) | digit];
        out |= (e & 0xffu) << (k * d);
        state = e >> 8;
      }
      table[std::size_t{s} * groups + g] = (state << 8) | out;
    }
  }
  return table;
}

/// Enumerates the orientations reachable from the root into tables: a node
/// with orientation T visits child j at subcube T(base[j]), and the child's
/// orientation is T ∘ child[j].
void enumerate_states(detail::HilbertTables& t) {
  const int d = t.d;
  const std::uint32_t arity = 1u << d;
  std::vector<DigitTransform> states{DigitTransform{}};
  std::unordered_map<std::uint32_t, std::uint32_t> id_of{{0u, 0u}};
  for (std::size_t s = 0; s < states.size(); ++s) {
    const DigitTransform orientation = states[s];
    t.decode_one.resize((s + 1) * arity);
    t.encode_one.resize((s + 1) * arity);
    for (std::uint32_t j = 0; j < arity; ++j) {
      const std::uint32_t m = orientation.apply(t.base[j], d);
      const DigitTransform next = orientation.after(t.child[j], d);
      const auto [it, inserted] = id_of.try_emplace(
          next.pack(), static_cast<std::uint32_t>(states.size()));
      if (inserted) states.push_back(next);
      t.decode_one[s * arity + j] = (it->second << 8) | m;
      t.encode_one[s * arity + m] = (it->second << 8) | j;
    }
  }
  t.states = static_cast<std::uint32_t>(states.size());
  int levels = 1;
  while (d * (levels + 1) <= 8 &&
         (std::size_t{t.states} << (d * (levels + 1))) <= kMaxStepEntries) {
    ++levels;
  }
  t.step_levels = levels;
  if (levels > 1) {
    t.decode_many = compose_levels(t.decode_one, t.states, d, levels);
    t.encode_many = compose_levels(t.encode_one, t.states, d, levels);
    t.decode_step = t.decode_many.data();
    t.encode_step = t.encode_many.data();
  } else {
    t.decode_step = t.decode_one.data();
    t.encode_step = t.encode_one.data();
  }
  t.tabled = true;
}

/// Derives the construction of dimension d (>= 2) from Skilling's decoder.
/// The base motif is the side-2 visit order; each child's transform is read
/// off the side-4 curve and fitted as a signed bit permutation.  Every fit,
/// and the resulting codec against Skilling on a side-8 universe, is checked
/// here: a failure is a defect in the construction, not in any input, so it
/// aborts.
std::unique_ptr<detail::HilbertTables> derive_tables(int d) {
  auto t = std::make_unique<detail::HilbertTables>();
  t->d = d;
  const std::uint32_t arity = 1u << d;
  const auto digit_of = [d](const Point& cell, int shift) {
    std::uint32_t m = 0;
    for (int i = 0; i < d; ++i) {
      m |= ((cell[i] >> shift) & 1u) << (d - 1 - i);
    }
    return m;
  };
  for (std::uint32_t j = 0; j < arity; ++j) {
    t->base[j] = static_cast<std::uint8_t>(
        digit_of(skilling::point_at(j, d, 1), 0));
    t->base_inverse[t->base[j]] = static_cast<std::uint8_t>(j);
  }
  for (std::uint32_t j = 0; j < arity; ++j) {
    // Self-similarity: the top digits of the side-4 curve repeat the motif.
    const index_t first = index_t{j} * arity;
    if (digit_of(skilling::point_at(first, d, 2), 1) != t->base[j]) {
      std::abort();
    }
    // Within child j, visit v lands on sub[base[v]]; fit sub = P(x) ^ flip.
    std::array<std::uint8_t, 256> sub{};
    for (std::uint32_t v = 0; v < arity; ++v) {
      sub[t->base[v]] = static_cast<std::uint8_t>(
          digit_of(skilling::point_at(first + v, d, 2), 0));
    }
    DigitTransform& fit = t->child[j];
    fit.flip = sub[0];
    for (int i = 0; i < d; ++i) {
      const std::uint32_t moved = sub[1u << i] ^ fit.flip;
      if (!std::has_single_bit(moved)) std::abort();
      fit.to[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(std::countr_zero(moved));
    }
    for (std::uint32_t x = 0; x < arity; ++x) {
      if (fit.apply(x, d) != sub[x]) std::abort();
    }
  }
  if (d <= kMaxTabledDim) enumerate_states(*t);

  // The codec must reproduce Skilling three levels deep (every key up to
  // 4096 of them, else an even stride through the key space).
  constexpr int kCheckLevels = 3;
  const index_t cells = index_t{1} << (d * kCheckLevels);
  const index_t stride = std::max<index_t>(1, cells / 4096);
  for (index_t key = 0; key < cells; key += stride) {
    const Point cell = skilling::point_at(key, d, kCheckLevels);
    if (deinterleave(t->decode(key, kCheckLevels), d, kCheckLevels) != cell ||
        t->encode(interleave(cell, kCheckLevels), kCheckLevels) != key) {
      std::abort();
    }
  }
  return t;
}

const detail::HilbertTables& tables_for(int d) {
  static std::array<std::once_flag, kMaxDim + 1> once;
  static std::array<std::unique_ptr<detail::HilbertTables>, kMaxDim + 1>
      tables;
  const auto at = static_cast<std::size_t>(d);
  std::call_once(once[at], [&] { tables[at] = derive_tables(d); });
  return *tables[at];
}

}  // namespace

index_t detail::HilbertTables::decode(index_t key, int b) const {
  if (tabled) {
    return walk(decode_one.data(), decode_step, d, step_levels, b, key);
  }
  const index_t mask = (index_t{1} << d) - 1;
  DigitTransform orientation;
  index_t morton = 0;
  for (int level = b - 1; level >= 0; --level) {
    const auto j = static_cast<std::uint32_t>((key >> (level * d)) & mask);
    morton |= index_t{orientation.apply(base[j], d)} << (level * d);
    orientation = orientation.after(child[j], d);
  }
  return morton;
}

index_t detail::HilbertTables::encode(index_t morton, int b) const {
  if (tabled) {
    return walk(encode_one.data(), encode_step, d, step_levels, b, morton);
  }
  const index_t mask = (index_t{1} << d) - 1;
  DigitTransform orientation;
  index_t key = 0;
  for (int level = b - 1; level >= 0; --level) {
    const auto m = static_cast<std::uint32_t>((morton >> (level * d)) & mask);
    const std::uint32_t j = base_inverse[orientation.invert(m, d)];
    key |= index_t{j} << (level * d);
    orientation = orientation.after(child[j], d);
  }
  return key;
}

HilbertCurve::HilbertCurve(Universe universe) : SpaceFillingCurve(universe) {
  if (!universe_.power_of_two_side()) std::abort();
  level_bits_ = universe_.level_bits();
  if (universe_.dim() >= 2) tables_ = &tables_for(universe_.dim());
}

index_t HilbertCurve::morton_to_key(index_t morton) const {
  return tables_ == nullptr ? morton : tables_->encode(morton, level_bits_);
}

index_t HilbertCurve::key_to_morton(index_t key) const {
  return tables_ == nullptr ? key : tables_->decode(key, level_bits_);
}

void HilbertCurve::subtree_children(const SubtreeNode& node,
                                    std::span<SubtreeNode> children) const {
  if (tables_ == nullptr) {  // d = 1: the identity curve
    SpaceFillingCurve::subtree_children(node, children);
    return;
  }
  if (node.side < 2 || node.side % 2 != 0) std::abort();
  const int d = universe_.dim();
  const index_t arity = index_t{1} << d;
  if (children.size() != arity) std::abort();
  const coord_t child_side = node.side / 2;
  const index_t child_count = node.key_count >> d;
  const detail::HilbertTables& t = *tables_;
  const std::uint32_t* row =
      t.tabled ? t.decode_one.data() + (std::size_t{node.state} << d) : nullptr;
  const DigitTransform orientation =
      row == nullptr ? DigitTransform::unpack(node.state) : DigitTransform{};
  for (std::uint32_t j = 0; j < arity; ++j) {
    std::uint32_t m;
    SubtreeNode& child = children[j];
    if (row != nullptr) {
      m = row[j] & 0xffu;
      child.state = row[j] >> 8;
    } else {
      m = orientation.apply(t.base[j], d);
      child.state = orientation.after(t.child[j], d).pack();
    }
    child.origin = node.origin;
    for (int i = 0; i < d; ++i) {
      if ((m >> (d - 1 - i)) & 1u) child.origin[i] += child_side;
    }
    child.side = child_side;
    child.key_lo = node.key_lo + j * child_count;
    child.key_count = child_count;
  }
}

void HilbertCurve::subtree_children_batch(
    std::span<const SubtreeNode> nodes, std::span<SubtreeNode> children) const {
  if (tables_ == nullptr) {
    SpaceFillingCurve::subtree_children_batch(nodes, children);
    return;
  }
  expand_subtrees_nodewise(nodes, children);
}

index_t HilbertCurve::index_of(const Point& cell) const {
  return morton_to_key(interleave(cell, level_bits_));
}

Point HilbertCurve::point_at(index_t key) const {
  return deinterleave(key_to_morton(key), universe_.dim(), level_bits_);
}

void HilbertCurve::index_of_batch(std::span<const Point> cells,
                                  std::span<index_t> keys) const {
  const int d = universe_.dim();
  const int b = level_bits_;
  if (tables_ != nullptr && tables_->tabled) {
    // Hoisted table pointers keep the per-key walk in registers.
    const std::uint32_t* one = tables_->encode_one.data();
    const std::uint32_t* step = tables_->encode_step;
    const int levels = tables_->step_levels;
    detail::interleave_batch(cells, keys, d, b, [=](index_t morton) {
      return walk(one, step, d, levels, b, morton);
    });
    return;
  }
  detail::interleave_batch(cells, keys, d, b, [this](index_t morton) {
    return morton_to_key(morton);
  });
}

void HilbertCurve::point_at_batch(std::span<const index_t> keys,
                                  std::span<Point> cells) const {
  const int d = universe_.dim();
  const int b = level_bits_;
  if (tables_ != nullptr && tables_->tabled) {
    const std::uint32_t* one = tables_->decode_one.data();
    const std::uint32_t* step = tables_->decode_step;
    const int levels = tables_->step_levels;
    detail::deinterleave_batch(keys, cells, d, b, [=](index_t key) {
      return walk(one, step, d, levels, b, key);
    });
    return;
  }
  detail::deinterleave_batch(keys, cells, d, b, [this](index_t key) {
    return key_to_morton(key);
  });
}

}  // namespace sfc
