// CRC32C: RFC 3720 known answers, and the dispatched (hardware, where the
// CPU has SSE4.2, three interleaved streams) path against the portable
// slice-by-8 table path.
#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace ppc {
namespace {

std::string random_bytes(std::size_t n, Rng& rng) {
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.next_u64() & 0xFF);
  return out;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 Appendix B.4 and the common "123456789" check value.
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[static_cast<std::size_t>(i)] = static_cast<char>(i);
    descending[static_cast<std::size_t>(i)] = static_cast<char>(31 - i);
  }
  for (const auto fn : {&crc32c, &detail::crc32c_portable}) {
    EXPECT_EQ(fn("123456789"), 0xE3069283u);
    EXPECT_EQ(fn(std::string(32, '\0')), 0x8A9136AAu);
    EXPECT_EQ(fn(std::string(32, '\xFF')), 0x62A8AB43u);
    EXPECT_EQ(fn(ascending), 0x46DD794Eu);
    EXPECT_EQ(fn(descending), 0x113FDB5Cu);
    EXPECT_EQ(fn(""), 0u);
  }
}

TEST(Crc32c, DispatchedPathMatchesPortableAtEveryShortLengthAndOffset) {
  Rng rng(0xC3C32C);
  const std::string buf = random_bytes(256 + 8, rng);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(crc32c(view), detail::crc32c_portable(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, DispatchedPathMatchesPortableOnRandomLongBuffers) {
  Rng rng(0x1CEB00DA);
  const std::string buf = random_bytes((1u << 20) + 8, rng);
  for (int trial = 0; trial < 24; ++trial) {
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
    const std::string_view view(buf.data() + offset, len);
    ASSERT_EQ(crc32c(view), detail::crc32c_portable(view))
        << "offset " << offset << " length " << len;
  }
}

TEST(Crc32c, DispatchedPathMatchesPortableAtTheStreamSeams) {
  // Lengths at every multiple of the three-block stride up to four strides,
  // +-0..8 bytes, at offsets 0..7: the joins, the stride loop's exit and
  // the single-stream tail.
  constexpr std::size_t kStride = 3 * detail::kCrc32cBlock;
  Rng rng(0x5EA115);
  const std::string buf = random_bytes(4 * kStride + 16, rng);
  for (std::size_t stride = 1; stride <= 4; ++stride) {
    for (std::size_t len = stride * kStride - 8; len <= stride * kStride + 8; ++len) {
      for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::string_view view(buf.data() + offset, len);
        ASSERT_EQ(crc32c(view), detail::crc32c_portable(view))
            << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32c, DispatchedPathMatchesPortableOnA4MiBBuffer) {
  Rng rng(0x4B1B);
  const std::string buf = random_bytes(4u << 20, rng);
  EXPECT_EQ(crc32c(buf), detail::crc32c_portable(buf));
}

TEST(Crc32c, DetectsEverySingleBitFlipInABlock) {
  Rng rng(77);
  std::string data = random_bytes(512, rng);
  const std::uint32_t clean = crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_NE(crc32c(data), clean) << "bit " << bit;
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
  }
}

}  // namespace
}  // namespace ppc
