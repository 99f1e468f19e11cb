// CRC32C known-answer vectors, and agreement between the SSE4.2 path and the
// portable table path.  ctest runs this suite a second time with
// SFC_NO_SSE42=1, so crc32c() itself is covered on both paths.
#include "sfc/store/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sfc/rng/xoshiro256.h"

namespace sfc {
namespace {

std::uint32_t crc_of(const std::string& text) {
  return crc32c(text.data(), text.size());
}

TEST(Crc32c, KnownAnswerVectors) {
  // The CRC-32C check value and vectors from RFC 3720 (iSCSI), B.4.
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32c, PortableMatchesDispatchedAtEveryLengthAndAlignment) {
  Xoshiro256 rng(9);
  std::vector<std::uint8_t> bytes(4096 + 8);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t length :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u, 1000u, 4096u}) {
      EXPECT_EQ(crc32c(bytes.data() + offset, length),
                crc32c_portable(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32c, ChainingEqualsOneShot) {
  const std::string text = "the keys are the points";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const std::uint32_t head = crc32c(text.data(), split);
    EXPECT_EQ(crc32c(text.data() + split, text.size() - split, head),
              crc_of(text))
        << "split " << split;
  }
}

}  // namespace
}  // namespace sfc
