// Test-only curve that holds the server's dispatcher on demand.
//
// GatedCurve delegates every call to a real curve, but blocks each call
// until the test opens its gate.  A server built over a view keyed by a
// GatedCurve therefore stalls inside its first batch's first engine call:
// that batch has left the queue, and every query submitted afterwards waits
// in the queue until the test calls open().  This is how the serve tests
// fill the admission queue deterministically, without timing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>

#include "sfc/curves/space_filling_curve.h"
#include "sfc/index/columns_view.h"

namespace sfc {

class GatedCurve final : public SpaceFillingCurve {
 public:
  explicit GatedCurve(const SpaceFillingCurve& real)
      : SpaceFillingCurve(real.universe()), real_(real) {}

  /// Releases every blocked and future call.
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    changed_.notify_all();
  }

  /// Blocks until some engine call is waiting at the closed gate — i.e. the
  /// dispatcher has taken a batch and is stalled executing it.
  void wait_for_blocked_call() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return open_ || waiting_ > 0; });
  }

  /// The view `base` with this curve in place of its own.
  IndexColumnsView gate(const IndexColumnsView& base) const {
    return IndexColumnsView(*this, base.block_rows(), base.keys(), base.ids(),
                            base.block_last_key());
  }

  std::string name() const override { return pass().name(); }
  index_t index_of(const Point& cell) const override {
    return pass().index_of(cell);
  }
  Point point_at(index_t key) const override { return pass().point_at(key); }
  void index_of_batch(std::span<const Point> cells,
                      std::span<index_t> keys) const override {
    pass().index_of_batch(cells, keys);
  }
  void point_at_batch(std::span<const index_t> keys,
                      std::span<Point> cells) const override {
    pass().point_at_batch(keys, cells);
  }
  bool is_continuous() const override { return pass().is_continuous(); }
  coord_t subtree_radix() const override { return pass().subtree_radix(); }
  void subtree_children(const SubtreeNode& node,
                        std::span<SubtreeNode> children) const override {
    pass().subtree_children(node, children);
  }
  void subtree_children_batch(std::span<const SubtreeNode> nodes,
                              std::span<SubtreeNode> children) const override {
    pass().subtree_children_batch(nodes, children);
  }
  std::uint32_t subtree_root_state() const override {
    return pass().subtree_root_state();
  }

 private:
  /// Waits at the gate, then hands out the real curve.
  const SpaceFillingCurve& pass() const {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!open_) {
      ++waiting_;
      changed_.notify_all();
      changed_.wait(lock, [this] { return open_; });
      --waiting_;
    }
    return real_;
  }

  const SpaceFillingCurve& real_;
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  bool open_ = false;
  mutable int waiting_ = 0;
};

}  // namespace sfc
