// On-disk index format robustness and the core tentpole guarantee: queries
// through a mmap-opened file are bit-identical to queries through the
// in-memory index, for every curve family — both run through the same
// IndexColumnsView, and these tests pin that down end to end.
#include "sfc/store/index_store.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/executor.h"
#include "sfc/index/knn.h"
#include "sfc/index/range_scan.h"
#include "sfc/rng/sampling.h"
#include "sfc/store/crc32c.h"

namespace sfc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/sfc_store_" + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// A written index file for tamper tests: hilbert d=2 side=64, 500 rows.
struct WrittenIndex {
  CurveDescriptor descriptor;
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
  std::string path;
};

WrittenIndex write_sample(const std::string& name) {
  CurveDescriptor descriptor;
  descriptor.family = "hilbert";
  descriptor.dim = 2;
  descriptor.side = 64;
  CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(11);
  std::vector<Point> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  PointIndex index = PointIndex::build(*curve, points);
  const std::string path = temp_path(name);
  write_index_file(path, index, descriptor);
  return WrittenIndex{descriptor, std::move(curve), std::move(points),
                      std::move(index), path};
}

// --- byte-level header layout, mirrored from index_store.cpp (v2) ---------
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kCurveSideOffset = 24;
constexpr std::size_t kCurveSeedOffset = 32;
constexpr std::size_t kFamilyOffset = 48;
constexpr std::size_t kFamilyBytes = 24;
constexpr std::size_t kColumnChecksumOffset = 120;  // u32 per column
constexpr std::size_t kHeaderChecksumOffset = 140;
constexpr std::size_t kHeaderBytes = 144;

/// Recomputes the header checksum after a deliberate header edit, so tests
/// reach the validation step *behind* the checksum.
void fix_header_checksum(std::vector<char>& bytes) {
  ASSERT_GE(bytes.size(), kHeaderBytes);
  std::memset(bytes.data() + kHeaderChecksumOffset, 0, sizeof(std::uint32_t));
  const std::uint32_t digest = crc32c(bytes.data(), kHeaderBytes);
  std::memcpy(bytes.data() + kHeaderChecksumOffset, &digest,
              sizeof(std::uint32_t));
}

TEST(IndexStore, RoundTripPreservesColumnsExactly) {
  const WrittenIndex w = write_sample("roundtrip.sfcidx");
  const MappedIndex mapped = MappedIndex::open(w.path);

  EXPECT_EQ(mapped.descriptor(), w.descriptor);
  EXPECT_EQ(mapped.row_count(), w.index.row_count());
  EXPECT_EQ(mapped.block_rows(), w.index.block_rows());

  const IndexColumnsView& disk = mapped.view();
  const IndexColumnsView mem = w.index.view();
  ASSERT_EQ(disk.row_count(), mem.row_count());
  for (std::uint64_t r = 0; r < mem.row_count(); ++r) {
    ASSERT_EQ(disk.key_of_row(r), mem.key_of_row(r)) << "row " << r;
    ASSERT_EQ(disk.id_of_row(r), mem.id_of_row(r)) << "row " << r;
    ASSERT_EQ(disk.point_of_row(r), mem.point_of_row(r)) << "row " << r;
  }
  ASSERT_EQ(disk.block_count(), mem.block_count());
  for (std::uint64_t b = 0; b < mem.block_count(); ++b) {
    ASSERT_EQ(disk.block_last_key()[b], mem.block_last_key()[b]);
  }
}

TEST(IndexStore, EmptyIndexRoundTrips) {
  CurveDescriptor descriptor;
  descriptor.family = "z";
  descriptor.dim = 2;
  descriptor.side = 16;
  const CurvePtr curve = make_curve(descriptor);
  const PointIndex index = PointIndex::build(*curve, {});
  const std::string path = temp_path("empty.sfcidx");
  write_index_file(path, index, descriptor);
  const MappedIndex mapped = MappedIndex::open(path);
  EXPECT_EQ(mapped.row_count(), 0u);
  RangeScanEngine engine(mapped.view());
  std::vector<std::uint32_t> ids;
  engine.scan(Box(Point{2, 2}, Point{9, 9}), &ids);
  EXPECT_TRUE(ids.empty());
}

// The tentpole acceptance check: build -> write -> mmap -> query must be
// bit-identical to in-memory for every constructible family, range and kNN.
TEST(IndexStore, MappedQueriesBitIdenticalToInMemoryForEveryFamily) {
  for (const std::string& family : descriptor_family_names()) {
    CurveDescriptor descriptor;
    descriptor.family = family;
    descriptor.dim = 2;
    descriptor.side = family == "peano" ? 27 : 32;
    descriptor.seed = 5;
    const CurvePtr curve = make_curve(descriptor);
    const Universe& u = curve->universe();

    Xoshiro256 rng(23);
    std::vector<Point> points;
    for (int i = 0; i < 800; ++i) points.push_back(random_cell(u, rng));
    const PointIndex index = PointIndex::build(*curve, points);

    const std::string path = temp_path("family_" + family + ".sfcidx");
    write_index_file(path, index, descriptor);
    const MappedIndex mapped = MappedIndex::open(path);

    std::vector<Box> boxes;
    std::vector<Point> queries;
    for (int i = 0; i < 40; ++i) boxes.push_back(random_box(u, 5, rng));
    for (int i = 0; i < 40; ++i) queries.push_back(random_cell(u, rng));

    const auto mem_range = run_range_queries(index.view(), boxes);
    const auto disk_range = run_range_queries(mapped.view(), boxes);
    ASSERT_EQ(mem_range.size(), disk_range.size());
    for (std::size_t i = 0; i < mem_range.size(); ++i) {
      EXPECT_EQ(mem_range[i].ids, disk_range[i].ids)
          << family << " box " << i;
      EXPECT_EQ(mem_range[i].stats.rows_scanned,
                disk_range[i].stats.rows_scanned)
          << family << " box " << i;
    }

    const auto mem_knn = run_knn_queries(index.view(), queries, 7);
    const auto disk_knn = run_knn_queries(mapped.view(), queries, 7);
    ASSERT_EQ(mem_knn.size(), disk_knn.size());
    for (std::size_t i = 0; i < mem_knn.size(); ++i) {
      EXPECT_EQ(mem_knn[i].neighbors, disk_knn[i].neighbors)
          << family << " query " << i;
      EXPECT_EQ(mem_knn[i].stats.rows_scanned, disk_knn[i].stats.rows_scanned)
          << family << " query " << i;
    }
  }
}

TEST(IndexStore, WriteRejectsDescriptorUniverseMismatch) {
  CurveDescriptor descriptor;
  descriptor.family = "z";
  descriptor.dim = 2;
  descriptor.side = 16;
  const CurvePtr curve = make_curve(descriptor);
  const std::vector<Point> points{Point{1, 2}};
  const PointIndex index = PointIndex::build(*curve, points);
  CurveDescriptor wrong = descriptor;
  wrong.side = 32;
  EXPECT_THROW(
      write_index_file(temp_path("mismatch.sfcidx"), index, wrong),
      StoreError);
}

TEST(IndexStore, RejectsMissingFile) {
  EXPECT_THROW(MappedIndex::open(temp_path("never_written.sfcidx")),
               StoreError);
}

TEST(IndexStore, RejectsTruncatedFile) {
  const WrittenIndex w = write_sample("truncated.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  // Cut inside the last column: the header survives, the column table does
  // not fit the file any more.
  const auto truncated_to = [&](std::size_t size) {
    return std::vector<char>(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(size));
  };
  write_bytes(w.path, truncated_to(bytes.size() - bytes.size() / 4));
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);

  // Shorter than the header itself.
  write_bytes(w.path, truncated_to(kHeaderBytes / 2));
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);
}

TEST(IndexStore, RejectsFlippedColumnByte) {
  const WrittenIndex w = write_sample("bitflip.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  // Flip one byte in the middle of the column region (past the header).
  const std::size_t victim = kHeaderBytes + (bytes.size() - kHeaderBytes) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  write_bytes(w.path, bytes);
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);

  // Header and bounds are still intact, so an explicit verify=false open is
  // allowed to skip the (expensive) content checks and succeed.
  MappedIndexOptions no_verify;
  no_verify.verify = false;
  EXPECT_NO_THROW(MappedIndex::open(w.path, no_verify));
}

TEST(IndexStore, RejectsWrongVersion) {
  const WrittenIndex w = write_sample("version.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  const std::uint32_t bad_version = 99;
  std::memcpy(bytes.data() + kVersionOffset, &bad_version, sizeof(bad_version));
  fix_header_checksum(bytes);
  write_bytes(w.path, bytes);
  try {
    MappedIndex::open(w.path);
    FAIL() << "expected StoreError";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos)
        << error.what();
  }
}

TEST(IndexStore, RejectsWrongUniverseHeader) {
  const WrittenIndex w = write_sample("universe.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  // side 64 -> 63: hilbert requires a power-of-two side, so the persisted
  // descriptor must be rejected (recoverably — no abort) at reconstruction.
  const std::uint32_t bad_side = 63;
  std::memcpy(bytes.data() + kCurveSideOffset, &bad_side, sizeof(bad_side));
  fix_header_checksum(bytes);
  write_bytes(w.path, bytes);
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);
}

TEST(IndexStore, RejectsTamperedHeaderWithoutFixedChecksum) {
  const WrittenIndex w = write_sample("header_tamper.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  const std::uint32_t bad_side = 128;
  std::memcpy(bytes.data() + kCurveSideOffset, &bad_side, sizeof(bad_side));
  write_bytes(w.path, bytes);  // checksum now stale
  try {
    MappedIndex::open(w.path);
    FAIL() << "expected StoreError";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("header checksum"),
              std::string::npos)
        << error.what();
  }
}

TEST(IndexStore, RejectsBadMagic) {
  const WrittenIndex w = write_sample("magic.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  bytes[0] = 'X';
  write_bytes(w.path, bytes);
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);
}

TEST(IndexStore, RejectsOutOfUniverseKeyUnderVerify) {
  const WrittenIndex w = write_sample("badkey.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  // Column 0 (keys) starts at the first 64-byte boundary after the header.
  const std::size_t keys_offset = 192;  // align_up(144, 64)
  const index_t huge = ~index_t{0} >> 1;
  std::memcpy(bytes.data() + keys_offset +
                  (w.index.row_count() - 1) * sizeof(index_t),
              &huge, sizeof(huge));
  // Also fix that column's checksum so the key-range check is what fires.
  const std::uint32_t digest =
      crc32c(bytes.data() + keys_offset,
             w.index.row_count() * sizeof(index_t));
  std::memcpy(bytes.data() + kColumnChecksumOffset, &digest, sizeof(digest));
  fix_header_checksum(bytes);
  write_bytes(w.path, bytes);
  try {
    MappedIndex::open(w.path);
    FAIL() << "expected StoreError";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("universe"), std::string::npos)
        << error.what();
  }
}

TEST(IndexStore, MoveTransfersTheMapping) {
  const WrittenIndex w = write_sample("move.sfcidx");
  MappedIndex a = MappedIndex::open(w.path);
  const std::uint64_t rows = a.row_count();
  MappedIndex b = std::move(a);
  EXPECT_EQ(b.row_count(), rows);
  KnnEngine engine(b.view());
  EXPECT_EQ(engine.query(Point{3, 3}, 3).size(), 3u);
}

// --- crash safety of the write path ---------------------------------------

TEST(IndexStore, RejectsZeroLengthFile) {
  const std::string path = temp_path("zero.sfcidx");
  write_bytes(path, {});
  EXPECT_THROW(MappedIndex::open(path), StoreError);
}

TEST(IndexStore, RejectsFileShorterThanHeader) {
  const WrittenIndex w = write_sample("shortheader.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  bytes.resize(kHeaderBytes / 2);
  write_bytes(w.path, bytes);
  EXPECT_THROW(MappedIndex::open(w.path), StoreError);
}

TEST(IndexStore, RejectsTornTmpLeftover) {
  // A crash mid-write leaves `path.tmp` holding a prefix of the file.  The
  // durable `path` is untouched, and the torn temp itself must be rejected
  // at every truncation point if someone opens it anyway.
  const WrittenIndex w = write_sample("torn.sfcidx");
  const std::vector<char> bytes = read_bytes(w.path);
  const std::string tmp = w.path + ".tmp";
  for (const double fraction : {0.0, 0.3, 0.7, 0.999}) {
    std::vector<char> torn(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(
                            fraction * static_cast<double>(bytes.size())));
    write_bytes(tmp, torn);
    EXPECT_THROW(MappedIndex::open(tmp), StoreError) << "fraction " << fraction;
  }
  // The real file still opens: the crash never touched it.
  EXPECT_EQ(MappedIndex::open(w.path).row_count(), 500u);
}

TEST(IndexStore, WriteFailureIsTypedAndLeavesNoTemp) {
  const WrittenIndex w = write_sample("typedio.sfcidx");
  const std::string bad = temp_path("no-such-dir") + "/nested/out.sfcidx";
  try {
    write_index_file(bad, w.index, w.descriptor);
    FAIL() << "expected StoreIoError";
  } catch (const StoreIoError& error) {
    EXPECT_EQ(error.sys_call(), "open");
    EXPECT_EQ(error.errno_value(), ENOENT);
    EXPECT_NE(std::string(error.what()).find("open"), std::string::npos);
  }
  // No stray temp file anywhere near the target.
  std::ifstream tmp(bad + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(IndexStore, OverwriteIsAtomic) {
  // Writing over an existing index replaces it wholesale (rename), so the
  // new content fully supersedes the old even when sizes differ.
  const WrittenIndex w = write_sample("overwrite.sfcidx");
  CurveDescriptor descriptor;
  descriptor.family = "z";
  descriptor.dim = 2;
  descriptor.side = 32;
  const CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(5);
  std::vector<Point> points;
  for (int i = 0; i < 77; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  const PointIndex small = PointIndex::build(*curve, points);
  write_index_file(w.path, small, descriptor);

  const MappedIndex mapped = MappedIndex::open(w.path);
  EXPECT_EQ(mapped.row_count(), 77u);
  EXPECT_EQ(mapped.descriptor(), descriptor);
  // No temp residue after a successful write either.
  std::ifstream tmp(w.path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(IndexStore, RejectsSwappedCurveFamilyWithFixedChecksum) {
  // The silent-wrong-answer attack: rewrite the persisted family
  // ("hilbert" -> "z"), dutifully recompute the header checksum, leave all
  // data intact.  Every structural check passes; the curve fingerprint —
  // the keys of a fixed probe set under the reconstructed curve — differs,
  // because z and hilbert order the same cells differently.
  const WrittenIndex w = write_sample("famswap.sfcidx");
  std::vector<char> bytes = read_bytes(w.path);
  std::memset(bytes.data() + kFamilyOffset, 0, kFamilyBytes);
  std::memcpy(bytes.data() + kFamilyOffset, "z", 1);
  fix_header_checksum(bytes);
  write_bytes(w.path, bytes);
  for (const bool verify : {true, false}) {
    try {
      MappedIndex::open(w.path, {.verify = verify});
      FAIL() << "expected StoreError (verify=" << verify << ")";
    } catch (const StoreError& error) {
      EXPECT_NE(std::string(error.what()).find("fingerprint"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(IndexStore, RejectsTamperedSeedWithFixedChecksum) {
  // The seeded family reconstructs a different permutation from seed 6 than
  // the keys were made with under seed 5; the fingerprint must object even
  // though the header checksum was recomputed after the edit.
  CurveDescriptor descriptor;
  descriptor.family = "random";
  descriptor.dim = 2;
  descriptor.side = 32;
  descriptor.seed = 5;
  const CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(3);
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  const PointIndex index = PointIndex::build(*curve, points);
  const std::string path = temp_path("seedswap.sfcidx");
  write_index_file(path, index, descriptor);
  std::vector<char> bytes = read_bytes(path);
  const std::uint64_t other_seed = 6;
  std::memcpy(bytes.data() + kCurveSeedOffset, &other_seed,
              sizeof(other_seed));
  fix_header_checksum(bytes);
  write_bytes(path, bytes);
  try {
    MappedIndex::open(path);
    FAIL() << "expected StoreError";
  } catch (const StoreError& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos)
        << error.what();
  }
}

TEST(IndexStore, WriteRejectsDescriptorNamingAnotherCurve) {
  // Same universe, different family: the descriptor would reconstruct a
  // curve the keys were not made with, so the write itself refuses.
  const WrittenIndex w = write_sample("othercurve.sfcidx");
  CurveDescriptor wrong = w.descriptor;
  wrong.family = "z";
  EXPECT_THROW(
      write_index_file(temp_path("othercurve2.sfcidx"), w.index, wrong),
      StoreError);
}

TEST(IndexStore, FileHoldsNoPointsColumn) {
  // v2 stores keys (8 B), ids (4 B) and the directory (8 B per block):
  // the file is the header plus 12 bytes per row, up to alignment padding.
  const WrittenIndex w = write_sample("size.sfcidx");
  const MappedIndex mapped = MappedIndex::open(w.path);
  const std::uint64_t rows = w.index.row_count();
  const std::uint64_t payload =
      rows * 12 + w.index.block_count() * sizeof(index_t);
  EXPECT_GE(mapped.file_bytes(), kHeaderBytes + payload);
  EXPECT_LE(mapped.file_bytes(), kHeaderBytes + payload + 3 * 64);
}

}  // namespace
}  // namespace sfc
