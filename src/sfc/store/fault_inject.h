// Corruption fault injection for the on-disk index format.
//
// The robustness contract of sfc/store is: *no sequence of file bytes* makes
// MappedIndex::open crash, corrupt memory, or hand back an index that serves
// wrong answers — corruption is either rejected with a typed StoreError at
// open, or provably harmless (padding bytes).  This harness enforces that
// contract by construction: it draws seeded mutations (single-bit flips, byte
// stomps, truncations, and header-field stomps with the header checksum
// dutifully recomputed so the mutation reaches the deeper validators),
// applies each to a scratch copy of a valid `.sfcidx`, opens it with full
// verification, and classifies the outcome.  A mutated file that still opens
// is probed with reference queries: answers must be bit-identical to the
// pristine index's, or the campaign flags kWrongAnswer — the one failure mode
// checksums alone cannot rule out (a tampered curve descriptor with a fixed
// checksum used to be exactly such a hole).
//
// Mutations are applied in place and restored from the pristine image, so a
// 2000-iteration campaign over a 48 MB index costs megabytes of writes, not
// ~100 GB of file copies.  Every iteration's mutation derives from
// (seed, iteration) alone, so campaigns are deterministic and reproducible
// across thread counts, and a failing iteration can be replayed by index.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sfc/grid/box.h"
#include "sfc/grid/point.h"
#include "sfc/index/executor.h"
#include "sfc/rng/xoshiro256.h"
#include "sfc/store/index_store.h"

namespace sfc {

enum class FaultKind : std::uint8_t {
  kBitFlip = 0,     ///< flip one bit anywhere in the file
  kByteStomp,       ///< overwrite one byte with a random value
  kTruncate,        ///< cut the file to a shorter length
  kTruncateWhileMapped,  ///< truncate, then regrow to full size (zero tail):
                         ///< the byte image a live mapping observes when the
                         ///< file under it is truncated and re-extended —
                         ///< exercises the SIGBUS-hardened open path
  kHeaderField,     ///< stomp a header byte, then recompute the header
                    ///< checksum so validation reaches the semantic checks
  kFaultKinds       ///< count sentinel
};

const char* fault_kind_name(FaultKind kind);

/// One concrete mutation, fully determined by draw_fault_mutation(rng, size).
struct FaultMutation {
  FaultKind kind = FaultKind::kBitFlip;
  std::uint64_t offset = 0;       ///< byte offset (flip / stomp / header)
  std::uint8_t bit = 0;           ///< bit index for kBitFlip
  std::uint8_t value = 0;         ///< replacement byte for stomps
  std::uint64_t truncate_to = 0;  ///< new length for kTruncate

  std::string describe() const;
};

/// Draws one mutation over a `file_bytes`-long index file.  Kind weights are
/// roughly 40% bit flips, 15% byte stomps, 15% truncations, 15%
/// truncate-while-mapped, 15% header-field stomps; offsets are uniform over
/// the applicable region.
FaultMutation draw_fault_mutation(Xoshiro256& rng, std::uint64_t file_bytes);

enum class FaultOutcome : std::uint8_t {
  kRejected = 0,  ///< open threw a typed StoreError — the contract
  kBenign,        ///< opened AND every probe answer is bit-identical
  kWrongAnswer,   ///< opened but a probe answer differs — the forbidden case
  kWrongError,    ///< a non-StoreError escaped open, or a probe threw
  kFaultOutcomes  ///< count sentinel
};

const char* fault_outcome_name(FaultOutcome outcome);

/// Applies mutations to a scratch copy of one pristine index file and
/// classifies each outcome.  Not thread-safe; run_fault_campaign gives each
/// worker thread its own harness over its own scratch file.
class FaultHarness {
 public:
  /// `pristine` is the byte image of a valid index file (shared, read-only
  /// across harnesses); it is copied to `scratch_path` (created/overwritten).
  /// `probes` range + `probes` kNN reference queries are drawn from
  /// `probe_seed` inside the pristine index's universe and answered once
  /// against the pristine index; throws StoreError if the pristine image
  /// itself does not validate.
  FaultHarness(std::shared_ptr<const std::vector<std::uint8_t>> pristine,
               std::string scratch_path, std::uint32_t probes,
               std::uint64_t probe_seed);
  ~FaultHarness();

  FaultHarness(const FaultHarness&) = delete;
  FaultHarness& operator=(const FaultHarness&) = delete;

  /// Applies `mutation` to the scratch file, opens + probes it, restores the
  /// scratch file to pristine bytes, and returns the classification.  A
  /// header-field mutation must address a byte before the header checksum
  /// (draw_fault_mutation only draws those); others throw StoreError.
  FaultOutcome check(const FaultMutation& mutation);

  std::uint64_t file_bytes() const { return pristine_->size(); }

 private:
  void apply(const FaultMutation& mutation);
  void restore(const FaultMutation& mutation);
  FaultOutcome classify();
  void write_at(std::uint64_t offset, const void* data, std::uint64_t bytes);

  std::shared_ptr<const std::vector<std::uint8_t>> pristine_;
  std::string scratch_path_;
  int fd_ = -1;

  std::vector<Box> probe_boxes_;
  std::vector<Point> probe_points_;
  std::uint32_t probe_k_ = 4;
  std::vector<RangeQueryResult> reference_ranges_;
  std::vector<KnnQueryResult> reference_knn_;
};

struct FaultCampaignOptions {
  std::uint64_t iterations = 2000;
  std::uint64_t seed = 1;
  /// Worker threads (0 = hardware concurrency); each gets its own scratch
  /// file.  Outcome totals are independent of the thread count.
  std::uint32_t threads = 0;
  /// Reference queries of each kind per harness.
  std::uint32_t probes = 8;
  /// Directory for scratch copies; empty = alongside the input file.
  std::string scratch_dir;
};

struct FaultCampaignReport {
  std::uint64_t iterations = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(FaultKind::kFaultKinds)>
      by_kind{};
  std::uint64_t rejected = 0;
  std::uint64_t benign = 0;
  std::uint64_t wrong_answer = 0;
  std::uint64_t wrong_error = 0;
  /// Iteration indices (into the campaign) of every non-clean outcome, for
  /// replay; capped at 32 entries.
  std::vector<std::uint64_t> failing_iterations;

  /// The robustness contract held: nothing opened wrong and nothing escaped
  /// with an untyped error.
  bool clean() const { return wrong_answer == 0 && wrong_error == 0; }
};

/// Runs a seeded corruption campaign against the index file at `path`.
/// Deterministic in (path contents, iterations, seed, probes) — thread count
/// only changes wall clock.  Throws StoreError if `path` itself fails to
/// open/validate, and StoreIoError if scratch files cannot be created.
FaultCampaignReport run_fault_campaign(const std::string& path,
                                       const FaultCampaignOptions& options);

}  // namespace sfc
