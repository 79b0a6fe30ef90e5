// CRC32C (Castagnoli) — the content checksum every verification site uses
// to catch bytes corrupted between the writer and the reader: downloads
// against the store's upload checksum, block-cache fills, shuffle spills,
// and queue message bodies. It models the CRC32C checksum S3 returns next
// to the ETag (x-amz-checksum-crc32c).
//
// A CRC detects every single-bit error and every burst of up to 32 bits,
// which a byte-serial hash does not guarantee, and x86-64 computes it in
// hardware (SSE4.2 `crc32`, three streams at once) at over 10 GB/s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ppc {

/// CRC32C of `data` (reflected polynomial 0x82F63B78, initial value and
/// final xor 0xFFFFFFFF — the iSCSI / RFC 3720 variant). Uses the SSE4.2
/// instruction when the CPU has it, chosen once per process, and a portable
/// table otherwise; both return the same value.
std::uint32_t crc32c(std::string_view data);

namespace detail {

/// The hardware path interleaves three streams over consecutive blocks of
/// this many bytes; buffers of 3 * kCrc32cBlock bytes and up take it.
inline constexpr std::size_t kCrc32cBlock = 4096;

/// The portable slice-by-8 path, exposed so tests can check the hardware
/// path against it.
std::uint32_t crc32c_portable(std::string_view data);

}  // namespace detail

}  // namespace ppc
