// Hostile-input property for the two length-prefixed frame codecs
// (mapreduce/shuffle.h): the shuffle spill records, and the key/value pairs
// of reduce outputs and azuremr's intermediate blobs.
//
// Over 1000 seeds, a valid encoding is mutated by a bit flip, a truncation,
// an edited length digit or an inserted digit. Each mutated payload must
// either throw the codec's error type or decode to records that re-encode
// to exactly the mutated bytes: a decoder may never accept a form the
// encoder does not emit (a leading zero, a wrapped length, a 33-bit map id)
// and silently read it as some other record.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mapreduce/shuffle.h"

namespace ppc {
namespace {

std::string random_bytes(Rng& rng, int max_len) {
  const int len = static_cast<int>(rng.uniform_int(0, max_len));
  std::string s;
  for (int i = 0; i < len; ++i) {
    // Mostly digits, spaces and newlines: the bytes a header is made of.
    const auto pick = rng.uniform_int(0, 3);
    s += pick == 0   ? static_cast<char>('0' + rng.uniform_int(0, 9))
         : pick == 1 ? (rng.uniform_int(0, 1) == 0 ? ' ' : '\n')
                     : static_cast<char>(rng.uniform_int(0, 255));
  }
  return s;
}

std::uint32_t random_u32(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 0;
    case 1: return static_cast<std::uint32_t>(rng.uniform_int(1, 9));
    case 2: return 4294967295u - static_cast<std::uint32_t>(rng.uniform_int(0, 9));
    default: return static_cast<std::uint32_t>(rng.uniform_int(0, 1000000));
  }
}

enum class Mutation { kBitFlip, kTruncate, kEditDigit, kInsertDigit };
constexpr Mutation kMutations[] = {Mutation::kBitFlip, Mutation::kTruncate,
                                   Mutation::kEditDigit, Mutation::kInsertDigit};

std::string mutate(std::string bytes, Mutation m, Rng& rng) {
  switch (m) {
    case Mutation::kBitFlip:
      if (!bytes.empty()) {
        bytes[rng.index(bytes.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      break;
    case Mutation::kTruncate:
      bytes.resize(rng.index(bytes.size() + 1));
      break;
    case Mutation::kEditDigit: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] >= '0' && bytes[i] <= '9') digits.push_back(i);
      }
      if (!digits.empty()) {
        bytes[digits[rng.index(digits.size())]] = static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      break;
    }
    case Mutation::kInsertDigit:
      // Often a '0', often at offset 0 (a leading zero on the first length).
      bytes.insert(rng.uniform_int(0, 1) == 0 ? 0 : rng.index(bytes.size() + 1), 1,
                   rng.uniform_int(0, 1) == 0 ? '0'
                                              : static_cast<char>('0' + rng.uniform_int(1, 9)));
      break;
  }
  return bytes;
}

struct Outcomes {
  int rejected = 0;
  int accepted = 0;
};

/// Checks the property on one mutated payload. `roundtrip` decodes and
/// re-encodes, throwing `Err` on a malformed payload.
template <typename Err>
void check(const std::string& mutated,
           const std::function<std::string(const std::string&)>& roundtrip, std::uint64_t seed,
           Mutation m, Outcomes& out) {
  std::string again;
  try {
    again = roundtrip(mutated);
  } catch (const Err&) {
    ++out.rejected;
    return;
  }
  ++out.accepted;
  ASSERT_EQ(again, mutated) << "seed " << seed << " mutation " << static_cast<int>(m)
                            << ": accepted a payload it does not re-encode to";
}

template <typename Err>
void run_property(const std::function<std::string(Rng&)>& valid_encoding,
                  const std::function<std::string(const std::string&)>& roundtrip) {
  Outcomes out;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::string valid = valid_encoding(rng);
    ASSERT_EQ(roundtrip(valid), valid) << "seed " << seed;
    for (const Mutation m : kMutations) {
      check<Err>(mutate(valid, m, rng), roundtrip, seed, m, out);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Both outcomes must occur, or the property says nothing.
  EXPECT_GT(out.rejected, 500);
  EXPECT_GT(out.accepted, 200);
}

TEST(FrameCodecHostile, ShuffleRecords) {
  run_property<Error>(
      [](Rng& rng) {
        std::vector<mapreduce::ShuffleRecord> records;
        const int n = static_cast<int>(rng.uniform_int(1, 6));
        for (int i = 0; i < n; ++i) {
          records.push_back(
              {random_bytes(rng, 12), random_bytes(rng, 12), random_u32(rng), random_u32(rng)});
        }
        return mapreduce::encode_records(records);
      },
      [](const std::string& bytes) {
        return mapreduce::encode_records(mapreduce::decode_records(bytes));
      });
}

TEST(FrameCodecHostile, ShufflePairs) {
  run_property<Error>(
      [](Rng& rng) {
        std::vector<std::pair<std::string, std::string>> pairs;
        const int n = static_cast<int>(rng.uniform_int(1, 6));
        for (int i = 0; i < n; ++i) {
          pairs.emplace_back(random_bytes(rng, 12), random_bytes(rng, 12));
        }
        return mapreduce::encode_pairs(pairs);
      },
      [](const std::string& bytes) {
        return mapreduce::encode_pairs(mapreduce::decode_pairs(bytes));
      });
}

}  // namespace
}  // namespace ppc
