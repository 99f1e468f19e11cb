// The corruption contract, enforced exhaustively at small scale: every
// single-bit flip and every truncation point of a valid index file is either
// rejected with a typed StoreError or provably benign (opens AND answers the
// probe set bit-identically) — never a crash, never a silently wrong answer.
// The seeded campaign then samples the same space the CI fuzz job samples at
// 1M-point scale, and its determinism across thread counts is pinned down.
#include "sfc/store/fault_inject.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/rng/sampling.h"

namespace sfc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/sfc_fuzz_" + name;
}

std::string write_sample(const std::string& name, const std::string& family,
                         int rows) {
  CurveDescriptor descriptor;
  descriptor.family = family;
  descriptor.dim = 2;
  descriptor.side = 64;
  const CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(23);
  std::vector<Point> points;
  for (int i = 0; i < rows; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  const PointIndex index = PointIndex::build(*curve, points);
  const std::string path = temp_path(name);
  write_index_file(path, index, descriptor);
  return path;
}

std::shared_ptr<const std::vector<std::uint8_t>> load_bytes(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

TEST(FaultInject, EveryBitFlipRejectedOrBenign) {
  // Exhaustive: flip every bit of a small but real index file (header,
  // all four columns, padding) and demand the contract for each.
  const std::string path = write_sample("bits.sfcidx", "hilbert", 60);
  const auto pristine = load_bytes(path);
  FaultHarness harness(pristine, temp_path("bits.scratch"), 4, 99);
  std::uint64_t rejected = 0, benign = 0;
  for (std::uint64_t offset = 0; offset < pristine->size(); ++offset) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      FaultMutation m;
      m.kind = FaultKind::kBitFlip;
      m.offset = offset;
      m.bit = bit;
      const FaultOutcome outcome = harness.check(m);
      ASSERT_TRUE(outcome == FaultOutcome::kRejected ||
                  outcome == FaultOutcome::kBenign)
          << m.describe() << " -> " << fault_outcome_name(outcome);
      (outcome == FaultOutcome::kRejected ? rejected : benign) += 1;
    }
  }
  // The vast majority of bits are load-bearing; padding accounts for the
  // benign remainder.
  EXPECT_GT(rejected, benign);
  EXPECT_GT(rejected, 8 * 144u);  // at least every header bit rejects
}

TEST(FaultInject, EveryTruncationRejected) {
  const std::string path = write_sample("trunc.sfcidx", "z", 50);
  const auto pristine = load_bytes(path);
  FaultHarness harness(pristine, temp_path("trunc.scratch"), 4, 99);
  for (std::uint64_t to = 0; to < pristine->size(); ++to) {
    FaultMutation m;
    m.kind = FaultKind::kTruncate;
    m.truncate_to = to;
    ASSERT_EQ(harness.check(m), FaultOutcome::kRejected)
        << "truncation to " << to << " of " << pristine->size()
        << " bytes was not rejected";
  }
}

TEST(FaultInject, EveryTruncateWhileMappedRejectedOrBenign) {
  // The zero-extended-tail image a live mapping sees when the file under it
  // is truncated and regrown: every cut point must reject or be provably
  // benign (a cut inside trailing padding regrows to identical bytes).
  const std::string path = write_sample("zerotail.sfcidx", "hilbert", 50);
  const auto pristine = load_bytes(path);
  FaultHarness harness(pristine, temp_path("zerotail.scratch"), 4, 99);
  std::uint64_t rejected = 0;
  for (std::uint64_t to = 0; to < pristine->size(); ++to) {
    FaultMutation m;
    m.kind = FaultKind::kTruncateWhileMapped;
    m.truncate_to = to;
    const FaultOutcome outcome = harness.check(m);
    ASSERT_TRUE(outcome == FaultOutcome::kRejected ||
                outcome == FaultOutcome::kBenign)
        << m.describe() << " -> " << fault_outcome_name(outcome);
    rejected += outcome == FaultOutcome::kRejected;
  }
  // Any cut before the end of the last column's payload zeroes real data.
  EXPECT_GT(rejected, 0u);
}

TEST(FaultInject, HeaderFieldStompsWithFixedChecksumNeverServeWrongAnswers) {
  // Stomp every pre-checksum header byte with several adversarial values,
  // recomputing the checksum each time — this reaches the semantic
  // validators (curve reconstruction, bounds, curve fingerprint), the layer
  // where a wrong answer could otherwise slip through.  The v2 header
  // checksum sits at byte 140.
  const std::string path = write_sample("hdr.sfcidx", "hilbert", 60);
  const auto pristine = load_bytes(path);
  FaultHarness harness(pristine, temp_path("hdr.scratch"), 4, 99);
  for (std::uint64_t offset = 0; offset < 140; ++offset) {
    for (const std::uint8_t value :
         {std::uint8_t{0x00}, std::uint8_t{0x01}, std::uint8_t{0x7f},
          std::uint8_t{0xff}}) {
      if ((*pristine)[offset] == value) continue;  // not a mutation
      FaultMutation m;
      m.kind = FaultKind::kHeaderField;
      m.offset = offset;
      m.value = value;
      const FaultOutcome outcome = harness.check(m);
      ASSERT_TRUE(outcome == FaultOutcome::kRejected ||
                  outcome == FaultOutcome::kBenign)
          << m.describe() << " -> " << fault_outcome_name(outcome);
    }
  }
}

TEST(FaultInject, CampaignIsCleanAndDeterministicAcrossThreadCounts) {
  const std::string path = write_sample("campaign.sfcidx", "gray", 200);
  FaultCampaignOptions options;
  options.iterations = 300;
  options.seed = 42;
  options.probes = 4;
  options.threads = 1;
  const FaultCampaignReport one = run_fault_campaign(path, options);
  options.threads = 4;
  const FaultCampaignReport four = run_fault_campaign(path, options);

  EXPECT_TRUE(one.clean());
  EXPECT_TRUE(four.clean());
  EXPECT_EQ(one.iterations, 300u);
  EXPECT_EQ(one.rejected + one.benign, 300u);
  EXPECT_EQ(one.rejected, four.rejected);
  EXPECT_EQ(one.benign, four.benign);
  EXPECT_EQ(one.by_kind, four.by_kind);
  // Every kind was actually drawn in 300 iterations.
  for (const std::uint64_t drawn : one.by_kind) EXPECT_GT(drawn, 0u);
}

TEST(FaultInject, DrawCoversEveryKindAndStaysInBounds) {
  Xoshiro256 rng(7);
  std::array<std::uint64_t, 5> seen{};
  for (int i = 0; i < 2000; ++i) {
    const FaultMutation m = draw_fault_mutation(rng, 1000);
    ++seen[static_cast<std::size_t>(m.kind)];
    switch (m.kind) {
      case FaultKind::kBitFlip:
        EXPECT_LT(m.offset, 1000u);
        EXPECT_LT(m.bit, 8);
        break;
      case FaultKind::kByteStomp:
        EXPECT_LT(m.offset, 1000u);
        break;
      case FaultKind::kTruncate:
      case FaultKind::kTruncateWhileMapped:
        EXPECT_LT(m.truncate_to, 1000u);
        break;
      case FaultKind::kHeaderField:
        EXPECT_LT(m.offset, 140u);
        break;
      default:
        FAIL();
    }
  }
  for (const std::uint64_t count : seen) EXPECT_GT(count, 0u);
}

TEST(FaultInject, CampaignRejectsInvalidInputFile) {
  const std::string path = temp_path("garbage.sfcidx");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "not an index";
  out.close();
  FaultCampaignOptions options;
  options.iterations = 10;
  EXPECT_THROW(run_fault_campaign(path, options), StoreError);
}

}  // namespace
}  // namespace sfc
