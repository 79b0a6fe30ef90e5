// Hostile-input property for the text parsers: the Classic Cloud task and
// monitor messages (classiccloud/task.h) and the alarm rule grammar
// (runtime/monitor.h).
//
// Over 1000 seeds, a valid encoding is mutated by a bit flip, a truncation,
// an edited digit, an inserted delimiter, or a number swapped for a
// hostile token ("nan", "inf", "1e999", "1.5junk", ...). Each mutated text
// must either throw ppc::InvalidArgument or parse to a value whose numbers
// are finite and that the matching encoder accepts and reproduces: a
// decoder may never hand out something its encoder would refuse. Any other
// exception type escapes the property and fails the test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "classiccloud/task.h"
#include "common/error.h"
#include "common/rng.h"
#include "runtime/monitor.h"

namespace ppc {
namespace {

std::string random_name(Rng& rng, int min_len, int max_len) {
  static constexpr char kAlphabet[] = "abcxyz019/._-";
  const int len = static_cast<int>(rng.uniform_int(min_len, max_len));
  std::string s;
  for (int i = 0; i < len; ++i) s += kAlphabet[rng.index(sizeof(kAlphabet) - 1)];
  return s;
}

std::string random_number(Rng& rng) {
  char buf[64];
  switch (rng.uniform_int(0, 2)) {
    case 0: std::snprintf(buf, sizeof(buf), "%d", static_cast<int>(rng.uniform_int(0, 500)));
      break;
    case 1: std::snprintf(buf, sizeof(buf), "%.3f", rng.uniform(-10.0, 1000.0)); break;
    default: std::snprintf(buf, sizeof(buf), "%g", rng.uniform(0.0, 1e6)); break;
  }
  return buf;
}

enum class Mutation { kBitFlip, kTruncate, kEditDigit, kInsertDelimiter, kHostileNumber };
constexpr Mutation kMutations[] = {Mutation::kBitFlip, Mutation::kTruncate, Mutation::kEditDigit,
                                   Mutation::kInsertDelimiter, Mutation::kHostileNumber};

std::string mutate(std::string text, Mutation m, Rng& rng) {
  static const std::vector<std::string> kHostile = {
      "nan", "inf", "-inf", "1e999", "-1e999", "1.5junk", "", "-", "+1", "0x10", "1e-400", "."};
  static constexpr char kDelimiters[] = "=;,:<> ";
  switch (m) {
    case Mutation::kBitFlip:
      if (!text.empty()) {
        text[rng.index(text.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      break;
    case Mutation::kTruncate:
      text.resize(rng.index(text.size() + 1));
      break;
    case Mutation::kEditDigit: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      }
      if (!digits.empty()) {
        text[digits[rng.index(digits.size())]] = "0123456789e.-"[rng.index(13)];
      }
      break;
    }
    case Mutation::kInsertDelimiter:
      text.insert(rng.index(text.size() + 1), 1, kDelimiters[rng.index(sizeof(kDelimiters) - 1)]);
      break;
    case Mutation::kHostileNumber: {
      // Replace the first maximal run of number characters after a random
      // offset: a secs value, a threshold or a duration.
      const std::size_t from = rng.index(text.size() + 1);
      const std::size_t begin = text.find_first_of("0123456789", from);
      if (begin == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789.e-", begin);
      text.replace(begin, (end == std::string::npos ? text.size() : end) - begin,
                   kHostile[rng.index(kHostile.size())]);
      break;
    }
  }
  return text;
}

/// Runs `check` on 1000 valid texts and five mutations of each. `check`
/// parses, throws InvalidArgument on rejection, and asserts the accepted
/// value's contract otherwise.
void run_property(const std::function<std::string(Rng&)>& valid_text,
                  const std::function<void(const std::string&)>& check) {
  int rejected = 0;
  int accepted = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::string valid = valid_text(rng);
    ASSERT_NO_THROW(check(valid)) << "seed " << seed << ": " << valid;
    for (const Mutation m : kMutations) {
      const std::string mutated = mutate(valid, m, rng);
      try {
        check(mutated);
        ++accepted;
      } catch (const InvalidArgument&) {
        ++rejected;
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << " mutation " << static_cast<int>(m) << ": " << mutated;
    }
  }
  // Both outcomes must occur, or the property says nothing.
  EXPECT_GT(rejected, 500);
  EXPECT_GT(accepted, 200);
}

TEST(TextCodecHostile, TaskMessages) {
  run_property(
      [](Rng& rng) {
        classiccloud::TaskSpec task{random_name(rng, 1, 12), random_name(rng, 1, 12),
                                    random_name(rng, 1, 12), {}};
        const auto shared = rng.uniform_int(0, 3);
        for (int i = 0; i < shared; ++i) task.shared_keys.push_back(random_name(rng, 1, 8));
        return classiccloud::encode_task(task);
      },
      [](const std::string& text) {
        const classiccloud::TaskSpec task = classiccloud::decode_task(text);
        std::string encoded;
        ASSERT_NO_THROW(encoded = classiccloud::encode_task(task));
        const classiccloud::TaskSpec again = classiccloud::decode_task(encoded);
        EXPECT_EQ(again.task_id, task.task_id);
        EXPECT_EQ(again.input_key, task.input_key);
        EXPECT_EQ(again.output_key, task.output_key);
        EXPECT_EQ(again.shared_keys, task.shared_keys);
      });
}

TEST(TextCodecHostile, MonitorMessages) {
  run_property(
      [](Rng& rng) {
        const char* status = rng.uniform_int(0, 1) == 0 ? "done" : "failed";
        return classiccloud::encode_monitor(classiccloud::MonitorRecord{
            random_name(rng, 0, 12), random_name(rng, 0, 12), status, rng.uniform(0.0, 5000.0)});
      },
      [](const std::string& text) {
        const classiccloud::MonitorRecord record = classiccloud::decode_monitor(text);
        ASSERT_TRUE(std::isfinite(record.duration)) << record.duration;
        std::string encoded;
        ASSERT_NO_THROW(encoded = classiccloud::encode_monitor(record));
        const classiccloud::MonitorRecord again = classiccloud::decode_monitor(encoded);
        EXPECT_EQ(again.task_id, record.task_id);
        EXPECT_EQ(again.worker_id, record.worker_id);
        EXPECT_EQ(again.status, record.status);
        EXPECT_NEAR(again.duration, record.duration, 1e-6 + 1e-12 * std::abs(record.duration));
      });
}

TEST(TextCodecHostile, AlarmRules) {
  run_property(
      [](Rng& rng) {
        std::string text = rng.uniform_int(0, 1) == 0 ? "" : random_name(rng, 1, 6) + ": ";
        text += "queue." + random_name(rng, 1, 8);
        text += rng.uniform_int(0, 1) == 0 ? " > " : " < ";
        text += random_number(rng) + " for ";
        static const char* const kUnits[] = {"s", "m", "h", ""};
        return text + std::to_string(rng.uniform_int(0, 600)) + kUnits[rng.index(4)];
      },
      [](const std::string& text) {
        const runtime::AlarmRule rule = runtime::parse_alarm(text);
        ASSERT_FALSE(rule.series.empty());
        ASSERT_TRUE(std::isfinite(rule.threshold)) << rule.threshold;
        ASSERT_TRUE(std::isfinite(rule.sustain)) << rule.sustain;
        ASSERT_GE(rule.sustain, 0.0);
        // to_text() is the rule's encoder; its output parses to the same rule.
        runtime::AlarmRule again;
        ASSERT_NO_THROW(again = runtime::parse_alarm(rule.to_text())) << rule.to_text();
        EXPECT_EQ(again.series, rule.series);
        EXPECT_EQ(again.op, rule.op);
        EXPECT_NEAR(again.threshold, rule.threshold, 1e-8 * (1.0 + std::abs(rule.threshold)));
        EXPECT_NEAR(again.sustain, rule.sustain, 1e-8 * (1.0 + rule.sustain));
      });
}

}  // namespace
}  // namespace ppc
