// Generation lifecycle: hot reloads swap at batch boundaries while in-flight
// clients keep bit-identical answers from the generation they were admitted
// under; old generations unmap exactly at refcount zero; a corrupt reload is
// rejected with the old generation untouched; and shard-isolated degraded
// mode routes queries around dead shards with typed partial results — for
// every curve family — until a repaired reload resurrects them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/generation.h"
#include "sfc/serve/serve_error.h"
#include "sfc/serve/server.h"
#include "sfc/serve/sharded_index.h"
#include "sfc/store/index_store.h"

namespace sfc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/sfc_generation_" + name;
}

struct Dataset {
  CurveDescriptor descriptor;
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
};

Dataset make_dataset(const std::string& family, std::uint64_t seed,
                     int count = 800) {
  CurveDescriptor descriptor;
  descriptor.family = family;
  descriptor.dim = 2;
  descriptor.side = 64;
  descriptor.seed = 7;
  CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < count; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  PointIndex index = PointIndex::build(*curve, points);
  return Dataset{descriptor, std::move(curve), std::move(points),
                 std::move(index)};
}

std::vector<std::uint32_t> scan_ids(const IndexColumnsView& view,
                                    const Box& box) {
  RangeScanEngine engine(view);
  std::vector<std::uint32_t> ids;
  engine.scan(box, &ids);
  return ids;
}

Box probe_box(int i) {
  const coord_t lo = static_cast<coord_t>((i * 5) % 48);
  return Box(Point{lo, lo}, Point{lo + 15, lo + 15});
}

/// Swaps the keys of global rows `row` and `row + 1` in the key column of
/// the file at `path`, so the column is no longer sorted there.  When both
/// rows lie inside one shard, both keys stay inside its key range and the
/// shard boundaries are unchanged — the corruption is localizable to that
/// shard.
void corrupt_key_order(const std::string& path, std::uint64_t row) {
  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    offset = mapped.column_offset(0) + row * sizeof(index_t);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  index_t pair[2] = {0, 0};
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(reinterpret_cast<char*>(pair), sizeof(pair));
  ASSERT_LT(pair[0], pair[1]);
  std::swap(pair[0], pair[1]);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  ASSERT_TRUE(file.good());
}

TEST(Generation, ReloadStormKeepsEveryAnswerGenerationConsistent) {
  // Clients hammer a distinguishing probe while the main thread reloads
  // between two datasets; every answer must equal one dataset's reference
  // bit-exactly — a torn or mixed answer fails.  Run at 1, 8, and 64
  // clients: the swap must be invisible at every concurrency level.
  const Dataset a = make_dataset("hilbert", 41);
  const Dataset b = make_dataset("hilbert", 42);
  const std::string path = temp_path("reload_storm");
  const Box probe = probe_box(2);
  const auto ref_a = scan_ids(a.index.view(), probe);
  const auto ref_b = scan_ids(b.index.view(), probe);
  ASSERT_NE(ref_a, ref_b);

  for (const int clients : {1, 8, 64}) {
    write_index_file(path, a.index, a.descriptor);
    ServerOptions options;
    options.shard_bits = 2;
    IndexServer server(path, options);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answers{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          const ServedRange served = server.range_query_served(probe);
          ++answers;
          if (served.result.ids != ref_a && served.result.ids != ref_b) ++bad;
        }
      });
    }
    for (int r = 0; r < 20; ++r) {
      write_index_file(path, (r % 2 == 0) ? b.index : a.index,
                       (r % 2 == 0) ? b.descriptor : a.descriptor);
      EXPECT_EQ(server.reload(path), static_cast<std::uint64_t>(r + 1));
    }
    stop = true;
    for (std::thread& t : threads) t.join();
    server.stop();

    EXPECT_EQ(bad.load(), 0u) << clients << " clients";
    EXPECT_GT(answers.load(), 0u);
    const ServerHealth health = server.health();
    EXPECT_EQ(health.reloads, 20u);
    EXPECT_EQ(health.failed_reloads, 0u);
    EXPECT_EQ(health.epoch, 20u);
  }
}

TEST(Generation, OldGenerationUnmapsAtRefcountZero) {
  const Dataset a = make_dataset("hilbert", 43);
  const Dataset b = make_dataset("hilbert", 44);
  const std::string path = temp_path("refcount");
  write_index_file(path, a.index, a.descriptor);

  GenerationManager manager(IndexGeneration::open(path, 2, 0, false));
  std::shared_ptr<const IndexGeneration> pinned = manager.active();
  std::weak_ptr<const IndexGeneration> watch = pinned;
  EXPECT_EQ(pinned->epoch(), 0u);

  write_index_file(path, b.index, b.descriptor);
  const auto fresh = manager.reload(path, 2, false);
  EXPECT_EQ(fresh->epoch(), 1u);
  EXPECT_EQ(manager.active().get(), fresh.get());

  // The manager dropped the old generation, but the pin (an in-flight batch
  // in real serving) keeps it alive — and still answering from the *old*
  // bytes, which the rename-based write left untouched on the old inode.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(scan_ids(pinned->sharded().base(), probe_box(1)),
            scan_ids(a.index.view(), probe_box(1)));

  pinned.reset();  // the last pin releases: the mapping unmaps now
  EXPECT_TRUE(watch.expired());
}

TEST(Generation, CorruptReloadLeavesOldGenerationServing) {
  const Dataset a = make_dataset("hilbert", 45);
  const std::string path = temp_path("corrupt_reload");
  write_index_file(path, a.index, a.descriptor);

  ServerOptions options;
  options.shard_bits = 2;
  IndexServer server(path, options);
  const Box probe = probe_box(4);
  const auto ref_a = scan_ids(a.index.view(), probe);
  EXPECT_EQ(server.range_query(probe).ids, ref_a);

  // Rename a torn stub over the path (never truncating in place — the old
  // generation's mapping and read lock pin the old inode, and in-place
  // mutation of a mapped file is exactly what the locking contract forbids).
  {
    const std::string stub = path + ".stub";
    std::ofstream file(stub, std::ios::binary | std::ios::trunc);
    file << "torn";
    file.close();
    ASSERT_EQ(std::rename(stub.c_str(), path.c_str()), 0);
  }
  try {
    server.reload(path);
    FAIL() << "expected ReloadError";
  } catch (const ReloadError& error) {
    EXPECT_EQ(error.path(), path);
    EXPECT_NE(std::string(error.what()).find("previous generation keeps"),
              std::string::npos);
  }
  // The old generation is untouched: same epoch, same answers, and the
  // failed attempt is accounted.
  const ServerHealth health = server.health();
  EXPECT_EQ(health.failed_reloads, 1u);
  EXPECT_EQ(health.reloads, 0u);
  EXPECT_EQ(health.epoch, 0u);
  EXPECT_EQ(server.range_query(probe).ids, ref_a);

  // Epochs burn monotonically across failures: the next success skips the
  // epoch the failed attempt consumed.
  write_index_file(path, a.index, a.descriptor);
  EXPECT_EQ(server.reload(path), 2u);
}

TEST(Generation, DegradedModeRoutesAroundDeadShardsForEveryFamily) {
  for (const std::string family : {"hilbert", "z", "snake", "gray", "simple",
                                   "random"}) {
    const Dataset a = make_dataset(family, 46);
    const std::string path = temp_path("degraded_" + family);
    write_index_file(path, a.index, a.descriptor);

    // Kill the shard owning the middle row by putting two of its keys out
    // of order, away from the shard's boundaries.
    constexpr int kShardBits = 2;
    const ShardedIndex reference(a.index.view(), kShardBits);
    const std::uint64_t middle_row = a.index.row_count() / 2;
    std::size_t dead = 0;
    while (dead + 1 < reference.shard_count() &&
           reference.shard_row_begin(dead + 1) <= middle_row) {
      ++dead;
    }
    const std::uint64_t shard_rows =
        reference.shard_row_end(dead) - reference.shard_row_begin(dead);
    std::uint64_t victim_row = reference.shard_row_begin(dead) + shard_rows / 2;
    const auto keys = a.index.keys();
    while (keys[victim_row] == keys[victim_row + 1]) ++victim_row;
    ASSERT_LT(victim_row + 1,
              reference.shard_row_begin(dead) + shard_rows) << family;
    corrupt_key_order(path, victim_row);

    // Strict open refuses; degraded open marks exactly that shard dead.
    EXPECT_THROW((void)IndexGeneration::open(path, kShardBits, 0, false),
                 StoreError)
        << family;
    ServerOptions options;
    options.shard_bits = kShardBits;
    options.allow_degraded = true;
    IndexServer server(path, options);
    const ServerHealth health = server.health();
    EXPECT_EQ(health.dead_shards, 1u) << family;
    ASSERT_EQ(health.shard_alive.size(), reference.shard_count()) << family;
    EXPECT_EQ(health.shard_alive[dead], 0u) << family;

    // Row -> shard for filtering reference answers down to live shards.
    const auto shard_of_row = [&](std::uint64_t row) {
      std::size_t s = 0;
      while (s + 1 < reference.shard_count() &&
             reference.shard_row_begin(s + 1) <= row) {
        ++s;
      }
      return s;
    };
    std::vector<std::size_t> id_shard(a.index.row_count());
    for (std::uint64_t row = 0; row < a.index.row_count(); ++row) {
      id_shard[a.index.ids()[row]] = shard_of_row(row);
    }

    int partial = 0;
    int full = 0;
    for (int i = 0; i < 10; ++i) {
      const Box probe = probe_box(i);
      const auto ref = scan_ids(a.index.view(), probe);
      std::vector<std::uint32_t> live_ref;
      for (const std::uint32_t id : ref) {
        if (id_shard[id] != dead) live_ref.push_back(id);
      }
      try {
        const RangeQueryResult result = server.range_query(probe);
        ++full;
        EXPECT_EQ(result.ids, ref) << family << " probe " << i;
      } catch (const PartialResultError& error) {
        ++partial;
        ASSERT_EQ(error.dead_shards().size(), 1u) << family;
        EXPECT_EQ(error.dead_shards()[0], dead) << family;
        EXPECT_EQ(error.partial_ids(), live_ref) << family << " probe " << i;
      }
    }
    EXPECT_GT(partial, 0) << family;  // the dead shard was actually routed

    // kNN is conservative: every query reports the dead shard, with the
    // live-shard best-k attached.
    try {
      (void)server.knn_query(Point{31, 31}, 4);
      FAIL() << family << ": expected PartialResultError";
    } catch (const PartialResultError& error) {
      EXPECT_EQ(error.dead_shards(), std::vector<std::uint32_t>{
                                         static_cast<std::uint32_t>(dead)});
      EXPECT_EQ(error.partial_neighbors().size(), 4u) << family;
    }

    // A repaired reload resurrects the shard: full answers everywhere.
    write_index_file(path, a.index, a.descriptor);
    (void)server.reload(path);
    EXPECT_EQ(server.health().dead_shards, 0u) << family;
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(server.range_query(probe_box(i)).ids,
                scan_ids(a.index.view(), probe_box(i)))
          << family << " probe " << i;
    }
  }
}

/// Writes `values` over elements `first`, `first + 1`, ... of column
/// `column` (0 keys, 2 directory) of the file at `path`.
void overwrite_column(const std::string& path, int column,
                      std::uint64_t first, const std::vector<index_t>& values) {
  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    offset = mapped.column_offset(column) + first * sizeof(index_t);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(index_t)));
  ASSERT_TRUE(file.good());
}

/// Overwrites `rows` keys from global row `first_row`, and directory entry
/// `block`, of the file at `path` with `key`.
void stomp_keys_and_directory(const std::string& path, std::uint64_t first_row,
                              std::uint64_t rows, std::uint64_t block,
                              index_t key) {
  overwrite_column(path, 0, first_row, std::vector<index_t>(rows, key));
  overwrite_column(path, 2, block, {key});
}

/// Opens the corrupted file at `path` strictly (must throw) and degraded
/// (must kill exactly the shards in `dead`), then checks that range probes
/// in live shards answer exactly, that probes reaching dead shards carry the
/// live rows' answer, and that kNN carries the live rows' best k.  `a` is
/// the uncorrupted dataset the file was written from.
void expect_degraded_answers(const Dataset& a, const std::string& path,
                             int shard_bits,
                             const std::vector<std::uint32_t>& dead,
                             const std::string& family) {
  EXPECT_THROW((void)IndexGeneration::open(path, shard_bits, 0, false),
               StoreError)
      << family;
  ServerOptions options;
  options.shard_bits = shard_bits;
  options.allow_degraded = true;
  IndexServer server(path, options);
  const ShardedIndex reference(a.index.view(), shard_bits);
  const ServerHealth health = server.health();
  ASSERT_EQ(health.shard_alive.size(), reference.shard_count()) << family;
  std::vector<std::uint8_t> alive(reference.shard_count(), 1);
  for (const std::uint32_t d : dead) alive[d] = 0;
  EXPECT_EQ(health.shard_alive, alive) << family;

  // Live ids by the uncorrupted file's shard boundaries.
  std::vector<std::uint8_t> id_alive(a.index.row_count());
  for (std::size_t s = 0; s < reference.shard_count(); ++s) {
    for (std::uint64_t row = reference.shard_row_begin(s);
         row < reference.shard_row_end(s); ++row) {
      id_alive[a.index.ids()[row]] = alive[s];
    }
  }

  // Boxes along the diagonal, and single cells (which every family's
  // shards separate, the random curve's included).
  std::vector<Box> probes;
  for (int i = 0; i < 10; ++i) {
    probes.push_back(probe_box(i));
    const Point cell{static_cast<coord_t>(i * 7 % 64),
                     static_cast<coord_t>(i * 13 % 64)};
    probes.push_back(Box(cell, cell));
  }
  int partial = 0;
  int full = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto ref = scan_ids(a.index.view(), probes[i]);
    std::vector<std::uint32_t> live_ref;
    for (const std::uint32_t id : ref) {
      if (id_alive[id] != 0) live_ref.push_back(id);
    }
    try {
      const RangeQueryResult result = server.range_query(probes[i]);
      ++full;
      EXPECT_EQ(result.ids, ref) << family << " probe " << i;
    } catch (const PartialResultError& error) {
      ++partial;
      EXPECT_FALSE(error.dead_shards().empty()) << family;
      for (const std::uint32_t d : error.dead_shards()) {
        EXPECT_EQ(alive[d], 0u) << family << " probe " << i;
      }
      EXPECT_EQ(error.partial_ids(), live_ref) << family << " probe " << i;
    }
  }
  EXPECT_GT(partial, 0) << family;
  EXPECT_GT(full, 0) << family;

  // kNN: the best 4 over the live shards' rows, by brute force.
  const Point query{31, 31};
  std::vector<KnnNeighbor> live_best;
  for (std::uint32_t id = 0; id < a.points.size(); ++id) {
    if (id_alive[id] == 0) continue;
    std::uint64_t sq = 0;
    for (int d = 0; d < 2; ++d) {
      const std::int64_t diff = static_cast<std::int64_t>(a.points[id][d]) -
                                static_cast<std::int64_t>(query[d]);
      sq += static_cast<std::uint64_t>(diff * diff);
    }
    live_best.push_back(KnnNeighbor{id, a.curve->index_of(a.points[id]), sq});
  }
  std::sort(live_best.begin(), live_best.end(),
            [](const KnnNeighbor& x, const KnnNeighbor& y) {
              if (x.sq_dist != y.sq_dist) return x.sq_dist < y.sq_dist;
              if (x.key != y.key) return x.key < y.key;
              return x.id < y.id;
            });
  live_best.resize(4);
  try {
    (void)server.knn_query(query, 4);
    FAIL() << family << ": expected PartialResultError";
  } catch (const PartialResultError& error) {
    EXPECT_EQ(error.dead_shards(), dead) << family;
    EXPECT_EQ(error.partial_neighbors(), live_best) << family;
  }
}

TEST(Generation, DegradedModeSurvivesAStompedBlockAndDirectoryEntry) {
  // The middle block of the file — which lies inside shard 0, because 70%
  // of the keys are drawn from shard 0's key range — has its keys and its
  // directory entry stomped to the last cell.  The block agrees with its
  // own directory entry, and every binary search of the directory for a
  // later shard's first key probes the middle entry first and is misrouted
  // into shard 0.  The degraded generation must still kill only shard 0 and
  // answer every probe of the live shards exactly.
  for (const std::string family : {"hilbert", "z", "snake", "gray", "simple",
                                   "random"}) {
    Dataset a = make_dataset(family, 48, 0);
    const index_t cells = a.curve->universe().cell_count();
    Xoshiro256 rng(48);
    for (int i = 0; i < 8000; ++i) {
      const index_t key = rng.next_below(10) < 7 ? rng.next_below(cells / 4)
                                                  : rng.next_below(cells);
      a.points.push_back(a.curve->point_at(key));
    }
    a.index = PointIndex::build(*a.curve, a.points);
    const std::string path = temp_path("stomped_" + family);
    write_index_file(path, a.index, a.descriptor);

    constexpr int kShardBits = 2;
    const ShardedIndex reference(a.index.view(), kShardBits);
    const std::uint64_t block_rows = a.index.view().block_rows();
    const std::uint64_t block = a.index.view().block_count() / 2;
    // A whole block of shard 0 on each side of the stomped one.
    ASSERT_GE(block * block_rows, block_rows) << family;
    ASSERT_LE((block + 2) * block_rows, reference.shard_row_end(0)) << family;
    stomp_keys_and_directory(path, block * block_rows, block_rows, block,
                             cells - 1);

    expect_degraded_answers(a, path, kShardBits, {0}, family);
  }
}

TEST(Generation, DegradedModeKillsALiveShardWithAnUnattributableEdge) {
  // The last whole block of shard 0 is stomped to the last cell, within a
  // block of shard 0's end.  Fewer rows sit on the wrong side of a boundary
  // at the block's start than at shard 0's true end, so shard 1 starts at
  // the stomped block and dies.  Shard 0 then verifies clean, but the row
  // past its edge is a garbage key in a dead shard: it may be one of shard
  // 0's own rows, so shard 0 must die too rather than silently lose it.
  for (const std::string family : {"hilbert", "z", "snake", "gray", "simple",
                                   "random"}) {
    const Dataset a = make_dataset(family, 49, 8000);
    const std::string path = temp_path("edge_" + family);
    write_index_file(path, a.index, a.descriptor);

    constexpr int kShardBits = 2;
    const ShardedIndex reference(a.index.view(), kShardBits);
    const std::uint64_t block_rows = a.index.view().block_rows();
    const std::uint64_t block = reference.shard_row_end(0) / block_rows - 1;
    ASSERT_GE(block, 1u) << family;
    stomp_keys_and_directory(path, block * block_rows, block_rows, block,
                             a.curve->universe().cell_count() - 1);

    expect_degraded_answers(a, path, kShardBits, {0, 1}, family);
  }
}

TEST(Generation, DegradedModeKillsBothShardsAroundAMovedEdgeKey) {
  // One key at the boundary of shards 0 and 1 is moved across it, so the
  // key map hands the row to the other shard, which dies.  The shard that
  // lost the row verifies clean, so it must die too: its probes would
  // otherwise return full answers without the row's id.  Three ways to
  // move it: shard 1's first key flipped down a shard bit (out of order in
  // shard 0), shard 0's last key flipped up (out of order in shard 1), and
  // shard 1's first key, which ends a block, moved down in order (caught
  // only by its directory entry).
  constexpr int kShardBits = 2;
  for (const std::string family : {"hilbert", "z", "snake", "gray", "simple",
                                   "random"}) {
    for (const int mode : {0, 1, 2}) {
      Dataset a = make_dataset(family, 50, 8000);
      const index_t shard_width =
          ShardedIndex(a.index.view(), kShardBits).shard_key_range(1).lo;
      const std::uint64_t block_rows = a.index.view().block_rows();
      if (mode == 2) {
        // Drop shard-0 points until shard 1's first row ends a block.
        std::uint64_t drop =
            (ShardedIndex(a.index.view(), kShardBits).shard_row_end(0) + 1) %
            block_rows;
        std::vector<Point> kept;
        for (const Point& p : a.points) {
          if (drop > 0 && a.curve->index_of(p) < shard_width) {
            --drop;
          } else {
            kept.push_back(p);
          }
        }
        a.points = std::move(kept);
        a.index = PointIndex::build(*a.curve, a.points);
      }
      const std::uint64_t b =
          ShardedIndex(a.index.view(), kShardBits).shard_row_begin(1);
      const auto keys = a.index.keys();
      const std::string path =
          temp_path("moved_edge_" + family + std::to_string(mode));
      write_index_file(path, a.index, a.descriptor);

      std::uint64_t row = b;
      index_t key = 0;
      if (mode == 0) {
        key = keys[b] - shard_width;
        ASSERT_LT(key, keys[b - 1]) << family;
      } else if (mode == 1) {
        row = b - 1;
        key = keys[b - 1] + shard_width;
        ASSERT_GT(key, keys[b]) << family;
      } else {
        ASSERT_EQ((b + 1) % block_rows, 0u) << family;
        key = shard_width - 1;
      }
      overwrite_column(path, 0, row, {key});
      expect_degraded_answers(a, path, kShardBits, {0, 1},
                              family + " mode " + std::to_string(mode));
    }
  }
}

TEST(Generation, UnlocalizableCorruptionRefusesDegradedOpen) {
  // The ids column carries no semantic invariant to localize by, so an ids
  // checksum mismatch must refuse even a degraded open — serving plausible
  // but unattributable ids would be a silent wrong answer.
  const Dataset a = make_dataset("hilbert", 47);
  const std::string path = temp_path("ids_corrupt");
  write_index_file(path, a.index, a.descriptor);

  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t ids_offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    ids_offset = mapped.column_offset(1);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(ids_offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x55);
  file.seekp(static_cast<std::streamoff>(ids_offset));
  file.write(&byte, 1);
  file.close();

  EXPECT_THROW((void)IndexGeneration::open(path, 2, 0, true), StoreError);
}

}  // namespace
}  // namespace sfc
