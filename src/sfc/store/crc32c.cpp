#include "sfc/store/crc32c.h"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SFC_HAS_SSE42_CRC 1
#include <immintrin.h>
#endif

namespace sfc {

namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;  // reflected Castagnoli

/// Slice-by-8 tables: kTables[k][b] is the CRC of byte b followed by k zero
/// bytes, so eight table lookups fold one 64-bit word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
    }
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t update_portable(std::uint32_t crc, const unsigned char* p,
                              std::size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // little-endian hosts only
    word ^= crc;
    crc = kTables[7][word & 0xffu] ^ kTables[6][(word >> 8) & 0xffu] ^
          kTables[5][(word >> 16) & 0xffu] ^ kTables[4][(word >> 24) & 0xffu] ^
          kTables[3][(word >> 32) & 0xffu] ^ kTables[2][(word >> 40) & 0xffu] ^
          kTables[1][(word >> 48) & 0xffu] ^ kTables[0][word >> 56];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xffu];
  return crc;
}

#ifdef SFC_HAS_SSE42_CRC
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  std::uint64_t wide = crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

bool use_sse42() {
  static const bool hardware = __builtin_cpu_supports("sse4.2") != 0 &&
                               std::getenv("SFC_NO_SSE42") == nullptr;
  return hardware;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(const void* data, std::size_t bytes,
                              std::uint32_t seed) {
  return ~update_portable(~seed, static_cast<const unsigned char*>(data),
                          bytes);
}

std::uint32_t crc32c(const void* data, std::size_t bytes, std::uint32_t seed) {
#ifdef SFC_HAS_SSE42_CRC
  if (use_sse42()) {
    return ~update_sse42(~seed, static_cast<const unsigned char*>(data),
                         bytes);
  }
#endif
  return crc32c_portable(data, bytes, seed);
}

}  // namespace sfc
