// Generation-managed index storage: the serving-continuity seam.
//
// Zero-downtime serving means an index file can be replaced while queries are
// in flight.  The mechanism is refcounted immutable generations: an
// IndexGeneration bundles one validated storage epoch — the MappedIndex, the
// shard partition map over it, the per-shard liveness verdicts, the view
// queries run on, and a monotonically increasing epoch id — behind a
// shared_ptr that in-flight batches pin for as long as they execute.
// GenerationManager::reload validates a candidate file *fully* before
// anything changes, then swaps the active pointer; the old generation keeps
// serving every batch that already pinned it and unmaps exactly when its
// refcount reaches zero.  A failed validation throws a typed ReloadError and
// leaves the old generation active: a bad push is an operator event, never an
// outage.
//
// Degraded mode rides the same open path: with allow_degraded, per-shard
// verification marks corrupt shards dead instead of failing the whole open
// (as long as the corruption is localizable — an unattributable mismatch
// still rejects the file).  A dead shard's keys and directory entries are
// untrusted, and one garbage directory entry can misroute a lookup for a key
// in a live shard, so a degraded generation never queries the file's rows
// directly: it copies the live shards' keys and ids into a view it owns, with
// a directory rebuilt over them (~12 B per live row, paid only when
// degraded).  Every query then runs the plain executors on that view, and a
// query that needed a dead key range gets a typed PartialResultError carrying
// the live answer.  Reloading a repaired file resurrects the shards, because
// liveness is a property of the generation, not the server.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sfc/serve/sharded_index.h"
#include "sfc/store/index_store.h"

namespace sfc {

/// One immutable storage epoch: a validated index (mapped from a file, or
/// wrapping caller-owned storage) plus the shard map, per-shard liveness and
/// query view built over it.  Never mutated after the factory returns, so any
/// number of batch executions may query it concurrently without
/// synchronization; the shared_ptr refcount is the only lifetime mechanism
/// (the mapping unmaps when the last pin drops).
class IndexGeneration {
 public:
  /// Opens and fully validates `path`.  With allow_degraded = false this is
  /// a strict open: any corruption throws StoreError.  With allow_degraded =
  /// true, corruption that per-shard verification can localize marks those
  /// shards dead and the open succeeds degraded; corruption that cannot be
  /// attributed to a shard (an ids-column mismatch — ids carry no semantic
  /// invariant a shard check could catch — or a checksum mismatch no shard
  /// check explains), or every shard dead, still throws.
  static std::shared_ptr<const IndexGeneration> open(const std::string& path,
                                                     int shard_bits,
                                                     std::uint64_t epoch,
                                                     bool allow_degraded);

  /// Wraps caller-owned storage (e.g. an in-memory PointIndex) as a fully
  /// live generation; the storage must outlive the generation.
  static std::shared_ptr<const IndexGeneration> wrap(IndexColumnsView view,
                                                     int shard_bits,
                                                     std::uint64_t epoch);

  std::uint64_t epoch() const { return epoch_; }
  /// The path this generation was opened from; empty for wrap().
  const std::string& path() const { return path_; }
  /// The shard partition map over the stored rows.
  const ShardedIndex& sharded() const { return *sharded_; }
  /// The rows every query runs on: the stored rows, or in a degraded
  /// generation the live shards' rows (in row order) with their own
  /// directory.
  const IndexColumnsView& view() const { return view_; }

  bool degraded() const { return !dead_shards_.empty(); }
  std::size_t dead_shard_count() const { return dead_shards_.size(); }
  /// Per-shard liveness (1 = alive), indexed like sharded()'s shards.
  const std::vector<std::uint8_t>& shard_alive() const { return shard_alive_; }
  /// Per-shard verification failure (empty string for live shards).
  const std::vector<std::string>& shard_errors() const { return shard_errors_; }
  /// Dead shards, ascending — what a kNN query in a degraded generation
  /// reports: any of them could hold a closer neighbor.
  const std::vector<std::uint32_t>& dead_shards() const { return dead_shards_; }
  /// Dead shards whose key range a range query's cover (sorted, disjoint key
  /// intervals) intersects, ascending; empty means the live answer is the
  /// full answer.
  std::vector<std::uint32_t> dead_overlap(
      std::span<const KeyInterval> cover) const;

 private:
  IndexGeneration() = default;

  std::uint64_t epoch_ = 0;
  std::string path_;
  // mapped_ declared before sharded_ and view_: both point into the mapping,
  // so they must be destroyed first (reverse declaration order).
  std::optional<MappedIndex> mapped_;
  std::optional<ShardedIndex> sharded_;
  std::vector<std::uint8_t> shard_alive_;
  std::vector<std::string> shard_errors_;
  std::vector<std::uint32_t> dead_shards_;
  // Degraded generations only: the live rows' columns that view_ points at.
  std::vector<index_t> live_keys_;
  std::vector<std::uint32_t> live_ids_;
  std::vector<index_t> live_directory_;
  IndexColumnsView view_;
};

/// The swap point: hands out the active generation and replaces it
/// atomically.  reload() does all validation *before* taking the swap lock,
/// so readers never observe a half-validated generation and a failed reload
/// provably cannot disturb the active one.  Epochs increase monotonically
/// across successful and failed reloads alike.
class GenerationManager {
 public:
  explicit GenerationManager(std::shared_ptr<const IndexGeneration> initial);

  /// The current generation; callers keep the returned shared_ptr for the
  /// duration of any use (it is the pin that defers unmap).
  std::shared_ptr<const IndexGeneration> active() const;

  /// Opens + validates `path` as a new generation and makes it active.
  /// Throws ReloadError on any failure, leaving the previous generation
  /// active and untouched.  Returns the new generation.
  std::shared_ptr<const IndexGeneration> reload(const std::string& path,
                                                int shard_bits,
                                                bool allow_degraded);

  std::uint64_t reloads() const;
  std::uint64_t failed_reloads() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const IndexGeneration> active_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t reloads_ = 0;
  std::uint64_t failed_reloads_ = 0;
};

}  // namespace sfc
