#include "apps/blast/aligner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace ppc::apps::blast {
namespace {

class AlignerTest : public ::testing::Test {
 protected:
  ppc::Rng rng_{0xB1A57};

  SequenceDb make_db(std::size_t n = 50) {
    DbGenConfig config;
    config.num_sequences = n;
    return SequenceDb::generate(config, rng_);
  }
};

TEST_F(AlignerTest, FindsExactCopyAsTopHit) {
  const auto db = make_db();
  BlastIndex index(db);
  const std::string q = plant_query(db, 7, 120, 0.0, rng_);
  const auto hits = index.search({"q", q});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().subject_id, db.record(7).id);
  EXPECT_NEAR(hits.front().identity, 1.0, 1e-9);
  EXPECT_GE(hits.front().align_length, 100u);
}

TEST_F(AlignerTest, FindsMutatedHomolog) {
  const auto db = make_db();
  BlastIndex index(db);
  const std::string q = plant_query(db, 3, 150, 0.05, rng_);
  const auto hits = index.search({"q", q});
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().subject_id, db.record(3).id);
  EXPECT_GT(hits.front().identity, 0.8);
}

TEST_F(AlignerTest, RandomQueryRarelyScoresHigh) {
  const auto db = make_db();
  BlastIndex index(db);
  int strong_hits = 0;
  for (int i = 0; i < 10; ++i) {
    const auto hits = index.search({"rnd", random_protein(100, rng_)});
    for (const auto& h : hits) {
      if (h.score > 60) ++strong_hits;
    }
  }
  EXPECT_EQ(strong_hits, 0) << "unrelated sequences should not align strongly";
}

TEST_F(AlignerTest, HitsSortedByScoreDescending) {
  const auto db = make_db();
  BlastIndex index(db);
  const std::string q = plant_query(db, 0, 200, 0.02, rng_);
  const auto hits = index.search({"q", q});
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST_F(AlignerTest, MaxHitsRespected) {
  AlignerConfig config;
  config.max_hits = 3;
  config.score_cutoff = 1;  // admit everything
  const auto db = make_db(100);
  BlastIndex index(db, config);
  const std::string q = plant_query(db, 0, 150, 0.0, rng_);
  EXPECT_LE(index.search({"q", q}).size(), 3u);
}

TEST_F(AlignerTest, ShortQueryYieldsNothing) {
  const auto db = make_db(5);
  BlastIndex index(db);
  EXPECT_TRUE(index.search({"q", "AC"}).empty());
}

TEST_F(AlignerTest, SearchFileProcessesEveryQuery) {
  const auto db = make_db();
  BlastIndex index(db);
  const std::string file = make_query_file(db, 20, 1.0, rng_);
  const std::string report = index.search_file(file);
  // Every planted query should produce at least one hit line.
  const auto lines = std::count(report.begin(), report.end(), '\n');
  EXPECT_GE(lines, 20);
  EXPECT_NE(report.find("query-0-"), std::string::npos);
}

TEST_F(AlignerTest, TabularReportFormat) {
  const Hit h{.query_id = "q1", .subject_id = "s1", .score = 55, .align_length = 40,
              .identity = 0.925};
  const std::string line = render_hits({h});
  EXPECT_EQ(line, "q1\ts1\t92.5\t40\t55\t0\t0\n");
}

TEST_F(AlignerTest, IndexCountsKmers) {
  SequenceDb db(std::vector<FastaRecord>{{"s", "ACDEFGHIKL"}});  // 8 overlapping 3-mers
  BlastIndex index(db);
  EXPECT_EQ(index.indexed_kmers(), 8u);
}

TEST_F(AlignerTest, RejectsBadConfig) {
  // k is bounded by the dense offsets table: 20^k + 1 entries, 12.8 MB at
  // k = 5 and 256 MB at k = 6.
  const auto db = make_db(3);
  AlignerConfig config;
  for (const std::size_t k : {0u, 1u, 6u, 7u}) {
    config.k = k;
    EXPECT_THROW(BlastIndex(db, config), ppc::InvalidArgument) << "k=" << k;
  }
  for (const std::size_t k : {2u, 5u}) {
    config.k = k;
    EXPECT_NO_THROW(BlastIndex(db, config)) << "k=" << k;
  }
}

TEST_F(AlignerTest, XDropLimitsExtensionThroughJunk) {
  // A query sharing only a short island with a subject must not extend the
  // alignment across the dissimilar flanks.
  SequenceDb db(std::vector<FastaRecord>{
      {"subject", random_protein(60, rng_) + "WWWWCCCCWWWW" + random_protein(60, rng_)}});
  BlastIndex index(db);
  const std::string q = random_protein(30, rng_) + "WWWWCCCCWWWW" + random_protein(30, rng_);
  const auto hits = index.search({"q", q});
  if (!hits.empty()) {
    EXPECT_LE(hits.front().align_length, 40u);
  }
}

}  // namespace
}  // namespace ppc::apps::blast
