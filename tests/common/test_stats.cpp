#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ppc {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(RunningStats, CoefficientOfVariation) {
  RunningStats s;
  s.add(9.0);
  s.add(11.0);
  EXPECT_NEAR(s.coefficient_of_variation(), s.stddev() / 10.0, 1e-12);
}

TEST(SampleSet, MeanMinMax) {
  SampleSet s;
  s.add_all({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  s.add_all({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(SampleSet, PercentileAfterMoreAdds) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);  // invalidates the sort; must re-sort internally
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.mean(), InvalidArgument);
  EXPECT_THROW(s.percentile(50), InvalidArgument);
}

}  // namespace
}  // namespace ppc
