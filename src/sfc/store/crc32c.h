// CRC32C (Castagnoli), the index format's checksum.
//
// One checksum for the header and every column, computed eight bytes at a
// time: with the SSE4.2 crc32 instruction where the CPU has it (checked once
// at runtime), else a portable slice-by-8 table loop.  Both paths produce
// identical values; setting SFC_NO_SSE42 in the environment forces the
// portable path so tests can compare the two on one machine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sfc {

/// CRC32C of `bytes` bytes at `data` (reflected polynomial 0x82F63B78,
/// initial and final XOR 0xFFFFFFFF; crc32c("123456789", 9) == 0xE3069283).
/// Chainable: crc32c(b, nb, crc32c(a, na)) is the CRC of a followed by b.
std::uint32_t crc32c(const void* data, std::size_t bytes,
                     std::uint32_t seed = 0);

/// The portable table path alone, whatever the CPU supports.
std::uint32_t crc32c_portable(const void* data, std::size_t bytes,
                              std::uint32_t seed = 0);

}  // namespace sfc
