#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PPC_CRC32C_HAVE_SSE42 1
#endif

namespace ppc {
namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;  // Castagnoli, bit-reflected

/// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) != 0 ? kPolynomial : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Eight bytes as a little-endian word (the order both paths consume them).
inline std::uint64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

#ifdef PPC_CRC32C_HAVE_SSE42
/// a * b modulo the CRC polynomial, both in the bit-reflected form (bit 31
/// is the coefficient of x^0), as zlib's multmodp.
constexpr std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

/// x^(8 * bytes) modulo the polynomial: appending `bytes` zero bytes to a
/// message multiplies its CRC register by this.
constexpr std::uint32_t x_pow_8n(std::size_t bytes) {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t square = 1u << 30;  // x^1, then x^2, x^4, ...
  for (std::size_t e = 8 * bytes; e != 0; e >>= 1) {
    if ((e & 1u) != 0) result = multiply_mod_p(square, result);
    square = multiply_mod_p(square, square);
  }
  return result;
}

/// kShiftBlock[j][b] is byte b in byte lane j of a CRC register, shifted
/// over detail::kCrc32cBlock zero bytes. The shift is linear, so a whole
/// register shifts with one lookup per byte lane.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift_table() {
  constexpr std::uint32_t op = x_pow_8n(detail::kCrc32cBlock);
  ShiftTable t{};
  for (std::uint32_t j = 0; j < 4; ++j) {
    for (std::uint32_t b = 0; b < 256; ++b) t[j][b] = multiply_mod_p(op, b << (8 * j));
  }
  return t;
}

constexpr ShiftTable kShiftBlock = make_shift_table();

inline std::uint32_t shift_block(std::uint32_t crc) {
  return kShiftBlock[0][crc & 0xFFu] ^ kShiftBlock[1][(crc >> 8) & 0xFFu] ^
         kShiftBlock[2][(crc >> 16) & 0xFFu] ^ kShiftBlock[3][crc >> 24];
}

/// `crc32` has a latency of three cycles and a throughput of one a cycle,
/// so one stream runs at a third of the unit's rate. Each 3-block stride
/// runs three streams over consecutive blocks, the second and third from a
/// zero register, and joins them: the register after A then B is the
/// register after A shifted over |B| zero bytes, xor the register of B
/// from zero. The tail under one stride runs as a single stream.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::string_view data) {
  constexpr std::size_t kBlock = detail::kCrc32cBlock;
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      crc = _mm_crc32_u64(crc, load_le64(p + i));
      crc1 = _mm_crc32_u64(crc1, load_le64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, load_le64(p + 2 * kBlock + i));
    }
    crc = shift_block(static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = shift_block(static_cast<std::uint32_t>(crc)) ^ crc2;
  }
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, load_le64(p));
  auto c = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, static_cast<unsigned char>(*p));
  return ~c;
}
#endif

using Crc32cFn = std::uint32_t (*)(std::string_view);

Crc32cFn pick_implementation() {
#ifdef PPC_CRC32C_HAVE_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::string_view data) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ crc;
    crc = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^ kTables[5][(w >> 16) & 0xFF] ^
          kTables[4][(w >> 24) & 0xFF] ^ kTables[3][(w >> 32) & 0xFF] ^
          kTables[2][(w >> 40) & 0xFF] ^ kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu];
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c(std::string_view data) {
  static const Crc32cFn impl = pick_implementation();
  return impl(data);
}

}  // namespace ppc
