#include "common/key_index.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ppc {
namespace {

/// Every entry of the index, sorted by key, as a std::map to compare with.
std::map<std::string, int> contents(const KeyIndex<int>& index) {
  std::map<std::string, int> out;
  for (const auto& e : index) {
    EXPECT_TRUE(out.emplace(e.key, e.value).second) << "duplicate entry " << e.key;
  }
  return out;
}

/// The index and the model agree on size, on every key of `universe`
/// (present or absent) and on what iteration visits.
void expect_matches(const KeyIndex<int>& index, const std::map<std::string, int>& model,
                    const std::vector<std::string>& universe) {
  ASSERT_EQ(index.size(), model.size());
  for (const std::string& key : universe) {
    const int* got = index.find(key);
    const auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_EQ(got, nullptr) << key;
    } else {
      ASSERT_NE(got, nullptr) << key;
      ASSERT_EQ(*got, it->second) << key;
    }
  }
  ASSERT_EQ(contents(index), model);
}

std::vector<std::string> key_universe(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back((i % 2 == 0 ? "input/t" : "output/t") + std::to_string(i));
  }
  return keys;
}

TEST(KeyIndex, EmptyIndexFindsNothing) {
  KeyIndex<int> index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find("k"), nullptr);
  EXPECT_FALSE(index.erase("k"));
  EXPECT_EQ(index.begin(), index.end());
}

TEST(KeyIndex, TryEmplaceInsertsOnceAndValueInitializes) {
  KeyIndex<int> index;
  auto [v, inserted] = index.try_emplace("a");
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*v, 0);
  *v = 7;
  auto [again, inserted_again] = index.try_emplace("a");
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 7);
  EXPECT_EQ(index.size(), 1u);
}

TEST(KeyIndex, IteratesInInsertionOrderWithoutErases) {
  KeyIndex<int> index;
  const std::vector<std::string> keys = {"zeta", "alpha", "mid", "beta", "omega"};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    *index.try_emplace(keys[i]).first = static_cast<int>(i);
  }
  std::vector<std::string> seen;
  for (const auto& e : index) seen.push_back(e.key);
  EXPECT_EQ(seen, keys);
}

TEST(KeyIndex, ErasingTheLastEntryKeepsTheRest) {
  KeyIndex<int> index;
  *index.try_emplace("a").first = 1;
  *index.try_emplace("b").first = 2;
  *index.try_emplace("c").first = 3;
  ASSERT_TRUE(index.erase("c"));
  EXPECT_EQ(index.find("c"), nullptr);
  EXPECT_EQ(*index.find("a"), 1);
  EXPECT_EQ(*index.find("b"), 2);
  ASSERT_TRUE(index.erase("a"));  // the last entry moves into its place
  EXPECT_EQ(*index.find("b"), 2);
  ASSERT_TRUE(index.erase("b"));
  EXPECT_EQ(index.size(), 0u);
  *index.try_emplace("a").first = 4;
  EXPECT_EQ(*index.find("a"), 4);
}

TEST(KeyIndex, ErasesAndReinsertsAcrossEveryGrowthBoundary) {
  // Fill past several doublings one key at a time; at each size erase and
  // re-insert the newest and the oldest key, then drain to empty.
  const auto universe = key_universe(600);
  KeyIndex<int> index;
  std::map<std::string, int> model;
  for (int i = 0; i < 600; ++i) {
    const std::string& key = universe[static_cast<std::size_t>(i)];
    *index.try_emplace(key).first = i;
    model[key] = i;
    for (const std::string* k : {&key, &universe[0]}) {
      ASSERT_TRUE(index.erase(*k));
      EXPECT_EQ(index.find(*k), nullptr);
      *index.try_emplace(*k).first = model[*k];
    }
    if (i % 37 == 0) expect_matches(index, model, universe);
  }
  expect_matches(index, model, universe);
  for (int i = 599; i >= 0; --i) {
    ASSERT_TRUE(index.erase(universe[static_cast<std::size_t>(i * 7 % 600)]));
    model.erase(universe[static_cast<std::size_t>(i * 7 % 600)]);
    if (i % 41 == 0) expect_matches(index, model, universe);
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(KeyIndex, MatchesStdMapOnSeededSequences) {
  // Mixed put / overwrite / find / erase / re-insert / iterate sequences
  // against std::map. Small key spaces keep the table at 16-64 slots, where
  // probe runs wrap around the slot array; growth and drain phases move the
  // size back and forth across the doubling thresholds.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const int span = static_cast<int>(rng.uniform_int(4, seed % 5 == 0 ? 2000 : 60));
    const auto universe = key_universe(span);
    KeyIndex<int> index;
    std::map<std::string, int> model;
    std::string last_inserted;
    const int ops = 1500;
    for (int op = 0; op < ops; ++op) {
      // The first half of every 200-op cycle leans to inserts, the second
      // half to erases.
      const bool filling = (op / 100) % 2 == 0;
      const double r = rng.uniform();
      const std::string& key =
          universe[static_cast<std::size_t>(rng.uniform_int(0, span - 1))];
      if (r < (filling ? 0.55 : 0.2)) {  // put or overwrite
        const int value = static_cast<int>(rng.uniform_int(0, 1 << 20));
        auto [v, inserted] = index.try_emplace(key);
        ASSERT_EQ(inserted, !model.contains(key)) << "seed " << seed << " op " << op;
        *v = value;
        model[key] = value;
        if (inserted) last_inserted = key;
      } else if (r < 0.8) {  // erase, often the most recent insert
        const std::string victim =
            !last_inserted.empty() && rng.uniform() < 0.25 ? last_inserted : key;
        ASSERT_EQ(index.erase(victim), model.erase(victim) > 0)
            << "seed " << seed << " op " << op;
        if (victim == last_inserted) last_inserted.clear();
      } else {  // find
        const int* got = index.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(got != nullptr, it != model.end()) << "seed " << seed << " op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
      }
      if (op % 97 == 0 || op == ops - 1) {
        ASSERT_NO_FATAL_FAILURE(expect_matches(index, model, universe))
            << "seed " << seed << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace ppc
