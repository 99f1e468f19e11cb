#include "sfc/serve/generation.h"

#include <algorithm>
#include <span>
#include <utility>

#include "sfc/serve/serve_error.h"

namespace sfc {

namespace {

// Column indices of MappedIndex::verify_column_checksums()'s bitmask.
constexpr std::uint32_t kIdsBit = 1u << 1;

/// Semantic verification of one shard's key slice (global rows starting at
/// `first_row`): keys inside the universe and the shard's key range, and
/// sorted — the key checks the strict open runs globally, restricted to the
/// rows this shard owns so a failure is attributable.  (Points are the keys'
/// cells, so there is nothing else to check per row.)  Returns the empty
/// string when the shard is clean, else a description of the first failure.
std::string verify_shard(std::span<const index_t> keys, std::uint64_t first_row,
                         const KeyInterval& key_range, index_t cells) {
  const auto row = [&](std::uint64_t i) {
    return "row " + std::to_string(first_row + i);
  };
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    if (keys[i] >= cells) {
      return row(i) + " key " + std::to_string(keys[i]) + " outside the " +
             std::to_string(cells) + "-cell universe";
    }
    if (keys[i] < key_range.lo || keys[i] > key_range.hi) {
      return row(i) + " key " + std::to_string(keys[i]) +
             " outside the shard's key range [" + std::to_string(key_range.lo) +
             ", " + std::to_string(key_range.hi) + "]";
    }
    if (i > 0 && keys[i - 1] > keys[i]) {
      return "key column not sorted at " + row(i);
    }
  }
  return std::string();
}

/// Shard owning global row `row`: the last shard whose first row is <= row
/// (empty shards share a begin with their successor and own no rows).
std::size_t shard_of_row(const ShardedIndex& sharded, std::uint64_t row) {
  std::size_t lo = 0;
  std::size_t hi = sharded.shard_count();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (sharded.shard_row_begin(mid) <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
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
    gen->view_ = gen->mapped_->view();
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

  // Neither the keys nor the directory are trusted yet, so the shard
  // boundaries come from the keys alone, robustly to local corruption.
  const IndexColumnsView& base = gen->mapped_->view();
  gen->sharded_.emplace(ShardedIndex::from_untrusted_keys(base, shard_bits));
  const ShardedIndex& sharded = *gen->sharded_;
  const std::size_t count = sharded.shard_count();
  gen->shard_alive_.assign(count, 1);
  gen->shard_errors_.assign(count, std::string());

  const auto mark_dead = [&](std::size_t s, std::string why) {
    if (gen->shard_alive_[s] == 0) return;
    gen->shard_alive_[s] = 0;
    gen->shard_errors_[s] = std::move(why);
  };

  const std::span<const index_t> keys = base.keys();
  const std::uint64_t rows = base.row_count();
  const index_t cells = base.curve().universe().cell_count();
  const std::uint64_t block_rows = base.block_rows();
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint64_t begin = sharded.shard_row_begin(s);
    std::string why =
        verify_shard(keys.subspan(begin, sharded.shard_row_end(s) - begin),
                     begin, sharded.shard_key_range(s), cells);
    if (!why.empty()) mark_dead(s, std::move(why));
  }

  // The file's block directory is not used to serve a degraded generation
  // (the live rows get their own), but a mismatch there still marks the
  // shard owning the block's last row: that is where the disagreeing key
  // lives.
  const std::span<const index_t> directory = base.block_last_key();
  for (std::uint64_t b = 0; b < directory.size(); ++b) {
    const std::uint64_t end =
        std::min<std::uint64_t>((b + 1) * block_rows, rows);
    if (end == 0) break;
    if (directory[b] != keys[end - 1]) {
      mark_dead(shard_of_row(sharded, end - 1),
                "directory entry " + std::to_string(b) +
                    " disagrees with the key column");
    }
  }

  // A live shard must own exactly its rows.  A row just outside its edge
  // that sits in a dead shard could be one of this shard's own rows with a
  // garbage key, which would leave the live shard silently short of it.  The
  // row is attributed to the dead shard only when its key lies in that
  // shard's range, is in order with the row beside it inside that shard
  // (the row before it for a dead shard's last row, the row after it for a
  // dead shard's first row), and agrees with the directory if it ends a
  // block; otherwise the live shard dies too.  (Shards this marks dead
  // passed their own checks, so their rows stay attributable and one pass
  // is enough.)
  const auto attributable = [&](std::uint64_t row, bool inner_before) {
    const std::size_t t = shard_of_row(sharded, row);
    if (gen->shard_alive_[t] != 0) return true;
    const KeyInterval range = sharded.shard_key_range(t);
    const bool in_order =
        inner_before
            ? row > sharded.shard_row_begin(t) && keys[row - 1] <= keys[row]
            : row + 1 < sharded.shard_row_end(t) && keys[row] <= keys[row + 1];
    const bool ends_block = (row + 1) % block_rows == 0 || row + 1 == rows;
    return keys[row] >= range.lo && keys[row] <= range.hi && in_order &&
           (!ends_block || directory[row / block_rows] == keys[row]);
  };
  std::vector<std::size_t> unattributable;
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint64_t begin = sharded.shard_row_begin(s);
    const std::uint64_t end = sharded.shard_row_end(s);
    if (gen->shard_alive_[s] != 0 &&
        ((begin > 0 && !attributable(begin - 1, true)) ||
         (end < rows && !attributable(end, false)))) {
      unattributable.push_back(s);
    }
  }
  for (const std::size_t s : unattributable) {
    mark_dead(s, "a neighbouring dead shard's edge row has a garbage key");
  }

  for (std::size_t s = 0; s < count; ++s) {
    if (gen->shard_alive_[s] == 0) {
      gen->dead_shards_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  if (gen->dead_shards_.size() == count && count > 0) {
    throw StoreError("index open: '" + path +
                     "': every shard failed verification (first: " +
                     gen->shard_errors_[0] + ")");
  }
  if (mask != 0 && gen->dead_shards_.empty()) {
    // A checksum disagrees but no shard check explains it — either the
    // recorded checksum itself is corrupt or the corruption hides where the
    // semantic checks cannot see it.  Unattributable = unserveable.
    throw StoreError("index open: '" + path + "': column checksum mismatch " +
                     "(mask " + std::to_string(mask) +
                     ") not localizable to any shard, refusing degraded open");
  }
  if (gen->dead_shards_.empty()) {
    gen->view_ = base;
    return gen;
  }

  // Serve from a copy of the live rows: concatenating live shards in shard
  // order keeps row order, and the rebuilt directory holds only trusted
  // keys.
  const std::span<const std::uint32_t> ids = base.ids();
  for (std::size_t s = 0; s < count; ++s) {
    if (gen->shard_alive_[s] == 0) continue;
    const std::uint64_t begin = sharded.shard_row_begin(s);
    const std::uint64_t rows_in_shard = sharded.shard_row_end(s) - begin;
    const auto shard_keys = keys.subspan(begin, rows_in_shard);
    const auto shard_ids = ids.subspan(begin, rows_in_shard);
    gen->live_keys_.insert(gen->live_keys_.end(), shard_keys.begin(),
                           shard_keys.end());
    gen->live_ids_.insert(gen->live_ids_.end(), shard_ids.begin(),
                          shard_ids.end());
  }
  for (std::uint64_t end = block_rows; end - block_rows < gen->live_keys_.size();
       end += block_rows) {
    gen->live_directory_.push_back(
        gen->live_keys_[std::min<std::uint64_t>(end, gen->live_keys_.size()) -
                        1]);
  }
  gen->view_ = IndexColumnsView(base.curve(), base.block_rows(),
                                gen->live_keys_, gen->live_ids_,
                                gen->live_directory_);
  return gen;
}

std::shared_ptr<const IndexGeneration> IndexGeneration::wrap(
    IndexColumnsView view, int shard_bits, std::uint64_t epoch) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->sharded_.emplace(view, shard_bits);
  gen->shard_alive_.assign(gen->sharded_->shard_count(), 1);
  gen->shard_errors_.assign(gen->sharded_->shard_count(), std::string());
  gen->view_ = view;
  return gen;
}

std::vector<std::uint32_t> IndexGeneration::dead_overlap(
    std::span<const KeyInterval> cover) const {
  // The cover is sorted and disjoint, so each dead shard costs one binary
  // search.
  std::vector<std::uint32_t> overlap;
  for (const std::uint32_t d : dead_shards_) {
    const KeyInterval range = sharded_->shard_key_range(d);
    const auto it = std::lower_bound(
        cover.begin(), cover.end(), range.lo,
        [](const KeyInterval& interval, index_t lo) { return interval.hi < lo; });
    if (it != cover.end() && it->lo <= range.hi) overlap.push_back(d);
  }
  return overlap;
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
