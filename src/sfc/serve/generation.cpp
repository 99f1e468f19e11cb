#include "sfc/serve/generation.h"

#include <algorithm>
#include <span>
#include <utility>

#include "sfc/serve/serve_error.h"

namespace sfc {

namespace {

// Column indices of MappedIndex::verify_column_checksums()'s bitmask.
constexpr std::uint32_t kIdsBit = 1u << 1;

/// Semantic verification of one shard's slice: keys inside the universe and
/// the shard's key range, and sorted — the key checks the strict open runs
/// globally, restricted to the rows this shard owns so a failure is
/// attributable.  (Points are the keys' cells, so there is nothing else to
/// check per row.)  Returns the empty string when the shard is clean, else a
/// description of the first failure.
std::string verify_shard(const IndexColumnsView& shard,
                         const KeyInterval& key_range) {
  const std::span<const index_t> keys = shard.keys();
  const index_t cells = shard.curve().universe().cell_count();
  for (std::uint64_t r = 0; r < keys.size(); ++r) {
    if (keys[r] >= cells) {
      return "row " + std::to_string(r) + " key " + std::to_string(keys[r]) +
             " outside the " + std::to_string(cells) + "-cell universe";
    }
    if (keys[r] < key_range.lo || keys[r] > key_range.hi) {
      return "row " + std::to_string(r) + " key " + std::to_string(keys[r]) +
             " outside the shard's key range [" + std::to_string(key_range.lo) +
             ", " + std::to_string(key_range.hi) + "]";
    }
    if (r > 0 && keys[r - 1] > keys[r]) {
      return "key column not sorted at row " + std::to_string(r);
    }
  }
  return std::string();
}

/// Shard owning global row `row`: the last shard whose first row is <= row
/// (empty shards share a begin with their successor and own no rows).
std::size_t shard_of_row(const std::vector<std::uint64_t>& row_begin,
                         std::uint64_t row) {
  const auto it =
      std::upper_bound(row_begin.begin(), row_begin.end(), row);
  return static_cast<std::size_t>(it - row_begin.begin()) - 1;
}

}  // namespace

std::shared_ptr<const IndexGeneration> IndexGeneration::open(
    const std::string& path, int shard_bits, std::uint64_t epoch,
    bool allow_degraded) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->path_ = path;

  if (!allow_degraded) {
    // Strict open: the store layer's full validation, any corruption throws.
    gen->mapped_.emplace(MappedIndex::open(path, {.verify = true}));
    gen->sharded_.emplace(gen->mapped_->view(), shard_bits);
    gen->shard_alive_.assign(gen->sharded_->shard_count(), 1);
    gen->shard_errors_.assign(gen->sharded_->shard_count(), std::string());
    return gen;
  }

  // Degraded open: structural validation only (header, bounds, descriptor —
  // anything failing there makes the whole file unusable), then localize.
  gen->mapped_.emplace(MappedIndex::open(path, {.verify = false}));
  const std::uint32_t mask = gen->mapped_->verify_column_checksums();
  if (mask & kIdsBit) {
    // The ids column has no semantic invariant a per-shard check could
    // verify (any permutation of input positions is plausible), so its
    // corruption cannot be localized — serving would risk silently wrong
    // ids.  Reject the file outright.
    throw StoreError("index open: '" + path +
                     "': ids column checksum mismatch — not localizable to "
                     "a shard, refusing degraded open");
  }

  gen->sharded_.emplace(gen->mapped_->view(), shard_bits);
  const ShardedIndex& sharded = *gen->sharded_;
  const std::size_t count = sharded.shard_count();
  gen->shard_alive_.assign(count, 1);
  gen->shard_errors_.assign(count, std::string());

  std::vector<std::uint64_t> row_begin(count);
  for (std::size_t s = 0; s < count; ++s) {
    row_begin[s] = sharded.shard_row_begin(s);
  }

  const auto mark_dead = [&](std::size_t s, std::string why) {
    if (gen->shard_alive_[s] == 0) return;
    gen->shard_alive_[s] = 0;
    gen->shard_errors_[s] = std::move(why);
    ++gen->dead_count_;
  };

  for (std::size_t s = 0; s < count; ++s) {
    std::string why = verify_shard(sharded.shard(s), sharded.shard_key_range(s));
    if (!why.empty()) mark_dead(s, std::move(why));
  }

  // The file's global block directory is not part of any shard slice (shards
  // rebuild their own), but a mismatch there still marks the shard owning
  // the block's last row: that is where the disagreeing key lives.
  const IndexColumnsView& base = gen->mapped_->view();
  const std::span<const index_t> directory = base.block_last_key();
  const std::uint64_t rows = base.row_count();
  for (std::uint64_t b = 0; b < directory.size(); ++b) {
    const std::uint64_t end = std::min<std::uint64_t>(
        (b + 1) * std::uint64_t{base.block_rows()}, rows);
    if (end == 0) break;
    if (directory[b] != base.keys()[end - 1]) {
      mark_dead(shard_of_row(row_begin, end - 1),
                "global directory entry " + std::to_string(b) +
                    " disagrees with the key column");
    }
  }

  if (gen->dead_count_ == count && count > 0) {
    throw StoreError("index open: '" + path +
                     "': every shard failed verification (first: " +
                     gen->shard_errors_[0] + ")");
  }
  if (mask != 0 && gen->dead_count_ == 0) {
    // A checksum disagrees but no shard check explains it — either the
    // recorded checksum itself is corrupt or the corruption hides where the
    // semantic checks cannot see it.  Unattributable = unserveable.
    throw StoreError("index open: '" + path + "': column checksum mismatch " +
                     "(mask " + std::to_string(mask) +
                     ") not localizable to any shard, refusing degraded open");
  }
  return gen;
}

std::shared_ptr<const IndexGeneration> IndexGeneration::wrap(
    IndexColumnsView view, int shard_bits, std::uint64_t epoch) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->sharded_.emplace(view, shard_bits);
  gen->shard_alive_.assign(gen->sharded_->shard_count(), 1);
  gen->shard_errors_.assign(gen->sharded_->shard_count(), std::string());
  return gen;
}

GenerationManager::GenerationManager(
    std::shared_ptr<const IndexGeneration> initial)
    : active_(std::move(initial)) {
  next_epoch_ = active_->epoch() + 1;
}

std::shared_ptr<const IndexGeneration> GenerationManager::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::shared_ptr<const IndexGeneration> GenerationManager::reload(
    const std::string& path, int shard_bits, bool allow_degraded) {
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = next_epoch_++;
  }
  std::shared_ptr<const IndexGeneration> next;
  try {
    // All validation happens here, before the swap lock: a throw leaves
    // active_ untouched and still serving.
    next = IndexGeneration::open(path, shard_bits, epoch, allow_degraded);
  } catch (const Error& error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_reloads_;
    }
    throw ReloadError(path, error.what());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = next;  // old generation unpins here; unmaps at refcount zero
  ++reloads_;
  return next;
}

std::uint64_t GenerationManager::reloads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reloads_;
}

std::uint64_t GenerationManager::failed_reloads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_reloads_;
}

}  // namespace sfc
