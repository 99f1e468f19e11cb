// Persistent on-disk index storage: versioned, checksummed, mmap-served.
//
// The north-star serving story is "build once, serve many processes": a
// PointIndex's columns are already flat arrays, so the on-disk format is a
// fixed header (magic, version, curve descriptor, universe, row count, curve
// fingerprint, column table with per-column CRC32C checksums) followed by
// the three columns — keys, ids, block directory — each 64-byte aligned; see
// docs/index_format.md for the byte-level layout.  No points are stored: the
// curve is a bijection, so a row's point is curve.point_at(key).
// write_index_file streams a built index out; MappedIndex mmaps a file
// read-only, validates it (magic, version, endianness, header checksum,
// column bounds, curve fingerprint, per-column checksums, key range and
// order, directory consistency), reconstructs the exact curve from the
// persisted CurveDescriptor, and exposes the same IndexColumnsView the
// in-memory index exposes — queries through either storage are
// bit-identical by construction, because the engines only ever see the view.
//
// The format is *not* an interchange format: it fixes the native
// little-endian column layout so that serving can map columns without any
// translation, and it refuses to open files whose header disagrees with the
// running build's layout constants.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sfc/common/error.h"
#include "sfc/common/types.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/point_index.h"

namespace sfc {

/// Thrown on any index-file problem: unwritable path, short/truncated file,
/// bad magic or version, checksum mismatch, column table out of bounds, a
/// descriptor naming an unknown curve, or a universe mismatch.  Derives from
/// sfc::Error so serving drivers recover at the tool boundary.
class StoreError : public Error {
 public:
  explicit StoreError(const std::string& what) : Error(what) {}
};

/// A StoreError raised by a failing syscall on the write or open path (open,
/// write, fsync, rename, flock, mmap, mincore, pread, ...), carrying the
/// syscall name and errno so callers can distinguish a full disk from a
/// missing directory (or a concurrently-truncated file from a corrupt one)
/// programmatically.
class StoreIoError : public StoreError {
 public:
  StoreIoError(const std::string& sys_call, const std::string& path,
               int errno_value);

  /// The syscall that failed ("open", "write", "fsync", "close", "rename").
  const std::string& sys_call() const { return sys_call_; }
  int errno_value() const { return errno_value_; }

 private:
  std::string sys_call_;
  int errno_value_;
};

/// Current on-disk format version (header field `version`).  This build
/// reads version 2 only.
inline constexpr std::uint32_t kIndexFormatVersion = 2;

/// Serializes `index` to `path` (overwriting), persisting `descriptor` as
/// the curve identity.  The descriptor is what MappedIndex::open
/// reconstructs the curve from, so it must name the curve the index was
/// built with — "hilbert d=2 side=1024 seed=1" etc.; a descriptor whose
/// universe or curve fingerprint differs from the index's curve throws
/// StoreError.
///
/// Crash-safe: the file is streamed to `path + ".tmp"`, fsync'd, and
/// atomically renamed over `path` (then the parent directory is fsync'd), so
/// readers only ever observe either the previous complete file or the new
/// complete file — never a torn write.  A crash mid-write leaves at worst a
/// stale `.tmp` alongside an intact `path`.  Every failing syscall raises a
/// typed StoreIoError (and the temp file is unlinked best-effort).
void write_index_file(const std::string& path, const PointIndex& index,
                      const CurveDescriptor& descriptor);

struct MappedIndexOptions {
  /// Verify per-column checksums, key range and sortedness, and
  /// block-directory consistency at open: one streaming pass over the keys,
  /// ids and directory.  Serving processes that reopen a file they just
  /// validated may switch this off.  Header, bounds and curve-fingerprint
  /// validation (which ties the persisted family/side/seed to the keys, so a
  /// tampered descriptor cannot serve silently wrong answers) always run.
  bool verify = true;
  /// Hold an advisory shared lock (flock LOCK_SH) on the file for the
  /// lifetime of the mapping.  Cooperating writers must never truncate or
  /// rewrite a read-locked path in place (write_index_file never does — it
  /// renames a complete temp file over the path, which leaves existing
  /// mappings on the old inode intact); a process that *would* mutate in
  /// place can take LOCK_EX and will see the readers.  Open fails with a
  /// typed StoreIoError("flock") if the file is exclusively locked.
  bool lock = true;
};

/// A read-only, mmap-backed index.  Owns the mapping and the curve
/// reconstructed from the persisted descriptor; exposes the storage-agnostic
/// IndexColumnsView that RangeScanEngine / KnnEngine / the executors and the
/// serve front end query.  Movable, not copyable; views are valid while the
/// MappedIndex is alive and unmoved.
class MappedIndex {
 public:
  /// Maps and validates `path`; throws StoreError on any mismatch.
  ///
  /// The open is SIGBUS-hardened: after mmap the mapping is pre-faulted (an
  /// mincore page-table walk plus a pread of the final byte) and the file
  /// size is re-checked, so a file replaced or truncated between the first
  /// stat and validation yields a typed StoreIoError instead of a crash when
  /// validation reads the columns.  With options.lock (the default) the fd
  /// stays open holding flock LOCK_SH until the mapping is destroyed, so
  /// cooperating writers can detect live readers.
  static MappedIndex open(const std::string& path,
                          const MappedIndexOptions& options = {});

  MappedIndex(MappedIndex&& other) noexcept;
  MappedIndex& operator=(MappedIndex&& other) noexcept;
  MappedIndex(const MappedIndex&) = delete;
  MappedIndex& operator=(const MappedIndex&) = delete;
  ~MappedIndex();

  /// The persisted curve identity the index was opened with.
  const CurveDescriptor& descriptor() const { return descriptor_; }
  /// The reconstructed curve (owned by this object).
  const SpaceFillingCurve& curve() const { return *curve_; }

  std::uint64_t row_count() const { return view_.row_count(); }
  std::uint32_t block_rows() const { return view_.block_rows(); }
  std::uint64_t file_bytes() const { return map_bytes_; }

  /// The columns view over the mapped file — what engines query.
  const IndexColumnsView& view() const { return view_; }
  operator IndexColumnsView() const { return view_; }  // NOLINT

  /// The path this mapping was opened from.
  const std::string& path() const { return path_; }

  /// Re-runs the per-column CRC32C checksums against the header's recorded
  /// values and returns a bitmask of mismatching columns (bit 0 keys, bit 1
  /// ids, bit 2 directory; 0 = all clean).  This is the localization
  /// primitive degraded-mode open uses to decide which shards to mark dead
  /// instead of refusing the whole file.
  std::uint32_t verify_column_checksums() const;

  /// Byte offset / length of column `c` (0 keys, 1 ids, 2 directory) within
  /// the mapped file, as recorded in the header.
  std::uint64_t column_offset(int c) const { return column_offset_[c]; }
  std::uint64_t column_bytes(int c) const { return column_bytes_[c]; }

 private:
  MappedIndex() = default;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  int fd_ = -1;  ///< kept open for the mapping's lifetime (holds the flock)
  std::string path_;
  std::uint64_t column_offset_[3] = {0, 0, 0};
  std::uint64_t column_bytes_[3] = {0, 0, 0};
  std::uint32_t column_checksum_[3] = {0, 0, 0};
  CurvePtr curve_;
  CurveDescriptor descriptor_;
  IndexColumnsView view_;
};

/// Test-only crash injection for the write path.  When `write_kill_countdown`
/// is >= 0, every write-path syscall write_index_file is about to issue
/// decrements it first; the call that drives it below zero terminates the
/// process immediately with _exit(kKillExitCode) — simulating a crash at an
/// exact, seedable syscall boundary.  Forked chaos/crash tests set the
/// countdown in the child, call write_index_file, and let the parent assert
/// the target path still opens clean (old or new complete content, never
/// torn).  Default -1 = disabled; production code never touches this.
namespace store_testing {
extern std::atomic<int> write_kill_countdown;
inline constexpr int kKillExitCode = 42;
}  // namespace store_testing

}  // namespace sfc
