#include "apps/gtm/gtm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "apps/gtm/data_gen.h"
#include "common/error.h"
#include "common/string_util.h"

namespace ppc::apps::gtm {
namespace {

GtmConfig small_config() {
  GtmConfig config;
  config.latent_grid = 6;
  config.rbf_grid = 3;
  config.em_iterations = 15;
  return config;
}

ClusterDataConfig small_data(std::size_t points, std::size_t dims = 8, std::size_t clusters = 3) {
  ClusterDataConfig config;
  config.num_points = points;
  config.dims = dims;
  config.clusters = clusters;
  config.cluster_stddev = 0.05;
  return config;
}

TEST(DataGen, ShapeAndLabels) {
  ppc::Rng rng(1);
  std::vector<int> labels;
  const Matrix data = generate_clustered(small_data(100), rng, &labels);
  EXPECT_EQ(data.rows(), 100u);
  EXPECT_EQ(data.cols(), 8u);
  EXPECT_EQ(labels.size(), 100u);
  for (int l : labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
}

TEST(DataGen, CsvRoundTrip) {
  ppc::Rng rng(2);
  const Matrix data = generate_clustered(small_data(20, 5), rng);
  const Matrix restored = matrix_from_csv(matrix_to_csv(data));
  ASSERT_EQ(restored.rows(), data.rows());
  ASSERT_EQ(restored.cols(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      EXPECT_NEAR(restored(r, c), data(r, c), 1e-8);
    }
  }
}

TEST(DataGen, RejectsEmptyCsv) {
  EXPECT_THROW(matrix_from_csv(""), ppc::InvalidArgument);
  EXPECT_THROW(matrix_from_csv("1,2\n3\n"), ppc::InvalidArgument);
}

TEST(DataGen, CsvRejectsWhatItCannotReadWhole) {
  // Each cell must parse whole as a decimal number (or one of the four
  // non-finite spellings matrix_to_csv writes): no trailing garbage, hex,
  // '+' sign, other NaN/infinity spellings, empty cells or overflow.
  for (const char* cell : {"2x", "abc", "", "1 5", "0x1p3", "0x10", "+1", "1e999", "-1e999",
                           "NaN", "NAN", "Inf", "INF", "infinity", "-infinity", "nan(1)", "--1",
                           "1,", ".", "-", "e5", "1e", "\x80"}) {
    SCOPED_TRACE(std::string("cell '") + cell + "'");
    EXPECT_THROW(matrix_from_csv(std::string("1,2\n3,") + cell + "\n"), ppc::InvalidArgument);
  }
}

TEST(DataGen, CsvErrorsNameTheLine) {
  const auto message = [](const std::string& csv) {
    try {
      matrix_from_csv(csv);
    } catch (const ppc::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // Blank lines count: the bad cell is on physical line 4.
  EXPECT_NE(message("1,2\n\n3,4\n5,2x\n").find("line 4"), std::string::npos);
  EXPECT_NE(message("1,2\n3,4\n5\n").find("line 3"), std::string::npos);
  EXPECT_NE(message("1,2\n3,4,5\n").find("line 2"), std::string::npos);
}

TEST(DataGen, CsvAcceptsTrimmedCellsAndNonFiniteSpellings) {
  const Matrix m = matrix_from_csv(" 1.5 ,\t-2\r\n\n  \r\n.25,1e-3\r\nnan,-nan\ninf,-inf");
  ASSERT_EQ(m.rows(), 4u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 0), 1.5);
  EXPECT_EQ(m(0, 1), -2.0);
  EXPECT_EQ(m(1, 0), 0.25);
  EXPECT_EQ(m(1, 1), 1e-3);
  EXPECT_TRUE(std::isnan(m(2, 0)));
  EXPECT_FALSE(std::signbit(m(2, 0)));
  EXPECT_TRUE(std::isnan(m(2, 1)));
  EXPECT_TRUE(std::signbit(m(2, 1)));
  EXPECT_EQ(m(3, 0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(m(3, 1), -std::numeric_limits<double>::infinity());
}

TEST(DataGen, CsvReadsWhatItWritesBitForBit) {
  // Every value matrix_to_csv writes, over many magnitudes and the four
  // non-finite values, reads back as strtod reads the written cell.
  ppc::Rng rng(5);
  Matrix m(400, 7);
  for (auto& v : m.data()) v = rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform_int(-300, 300));
  m(0, 0) = std::numeric_limits<double>::quiet_NaN();
  m(0, 1) = -std::numeric_limits<double>::quiet_NaN();
  m(0, 2) = std::numeric_limits<double>::infinity();
  m(0, 3) = -std::numeric_limits<double>::infinity();
  m(0, 4) = 0.0;
  m(0, 5) = -0.0;
  const std::string csv = matrix_to_csv(m);
  const Matrix back = matrix_from_csv(csv);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  std::size_t i = 0;
  for (const auto& line : ppc::split(csv, '\n')) {
    if (line.empty()) continue;
    for (const auto& cell : ppc::split(line, ',')) {
      const double want = std::strtod(cell.c_str(), nullptr);
      ASSERT_EQ(std::memcmp(&back.data()[i], &want, sizeof want), 0) << "cell " << cell;
      ++i;
    }
  }
  EXPECT_EQ(i, back.data().size());
}

TEST(GtmTrain, LogLikelihoodIsNonDecreasing) {
  ppc::Rng rng(3);
  const Matrix data = generate_clustered(small_data(150), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const auto& history = model.log_likelihood_history();
  ASSERT_GE(history.size(), 10u);
  // EM guarantees monotone non-decreasing likelihood (tiny numerical slack).
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i], history[i - 1] - 1e-6)
        << "log-likelihood decreased at iteration " << i;
  }
}

TEST(GtmTrain, ModelDimensionsMatchConfig) {
  ppc::Rng rng(4);
  const Matrix data = generate_clustered(small_data(80), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  EXPECT_EQ(model.latent_points(), 36u);  // 6x6 grid
  EXPECT_EQ(model.data_dims(), 8u);
  EXPECT_GT(model.beta(), 0.0);
}

TEST(GtmInterpolate, OutputIs2D) {
  ppc::Rng rng(5);
  const Matrix data = generate_clustered(small_data(100), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const Matrix mapped = model.interpolate(data);
  EXPECT_EQ(mapped.rows(), 100u);
  EXPECT_EQ(mapped.cols(), 2u);
  for (std::size_t r = 0; r < mapped.rows(); ++r) {
    EXPECT_GE(mapped(r, 0), -1.0 - 1e-9);
    EXPECT_LE(mapped(r, 0), 1.0 + 1e-9);
    EXPECT_GE(mapped(r, 1), -1.0 - 1e-9);
    EXPECT_LE(mapped(r, 1), 1.0 + 1e-9);
  }
}

TEST(GtmInterpolate, KeepsClustersTogetherAndApart) {
  // The dimension-reduction property the paper visualizes: points of the
  // same chemical family should land near each other in latent space, and
  // distinct families should separate.
  ppc::Rng rng(6);
  std::vector<int> labels;
  const Matrix data = generate_clustered(small_data(240, 12, 3), rng, &labels);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const Matrix mapped = model.interpolate(data);

  // Mean position per cluster.
  std::map<int, std::pair<double, double>> centroid;
  std::map<int, int> count;
  for (std::size_t i = 0; i < mapped.rows(); ++i) {
    centroid[labels[i]].first += mapped(i, 0);
    centroid[labels[i]].second += mapped(i, 1);
    ++count[labels[i]];
  }
  for (auto& [l, c] : centroid) {
    c.first /= count[l];
    c.second /= count[l];
  }
  // Within-cluster spread must be smaller than between-centroid spread.
  double within = 0.0;
  for (std::size_t i = 0; i < mapped.rows(); ++i) {
    const auto& c = centroid[labels[i]];
    within += squared_distance({mapped(i, 0), mapped(i, 1)}, {c.first, c.second});
  }
  within /= static_cast<double>(mapped.rows());
  double between = 0.0;
  int pairs = 0;
  for (const auto& [la, ca] : centroid) {
    for (const auto& [lb, cb] : centroid) {
      if (la < lb) {
        between += squared_distance({ca.first, ca.second}, {cb.first, cb.second});
        ++pairs;
      }
    }
  }
  between /= pairs;
  EXPECT_LT(within * 4.0, between)
      << "within=" << within << " between=" << between;
}

TEST(GtmInterpolate, OutOfSamplePointsLandNearTheirCluster) {
  // Train on samples, interpolate held-out points — the paper's split.
  ppc::Rng rng(7);
  std::vector<int> labels;
  const Matrix all = generate_clustered(small_data(300, 10, 2), rng, &labels);
  // First 150 = training samples, rest = out-of-samples.
  Matrix train(150, 10), test(150, 10);
  std::vector<int> test_labels(150);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t c = 0; c < 10; ++c) {
      train(i, c) = all(i, c);
      test(i, c) = all(i + 150, c);
    }
    test_labels[i] = labels[i + 150];
  }
  const GtmModel model = GtmModel::train(train, small_config(), rng);
  const Matrix mapped = model.interpolate(test);
  // The two clusters should separate along at least one latent dimension.
  double mean0_x = 0, mean1_x = 0, mean0_y = 0, mean1_y = 0;
  int n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    if (test_labels[i] == 0) {
      mean0_x += mapped(i, 0);
      mean0_y += mapped(i, 1);
      ++n0;
    } else {
      mean1_x += mapped(i, 0);
      mean1_y += mapped(i, 1);
      ++n1;
    }
  }
  ASSERT_GT(n0, 0);
  ASSERT_GT(n1, 0);
  const double dx = mean0_x / n0 - mean1_x / n1;
  const double dy = mean0_y / n0 - mean1_y / n1;
  EXPECT_GT(dx * dx + dy * dy, 0.05);
}

TEST(GtmTrain, PcaInitializationBeatsRandomInit) {
  // Same data, same EM budget: PCA init should start (and typically stay)
  // at a higher log-likelihood than random init.
  ppc::Rng rng(40);
  const Matrix data = generate_clustered(small_data(200, 16, 4), rng);
  GtmConfig pca_config = small_config();
  pca_config.pca_initialization = true;
  GtmConfig random_config = small_config();
  random_config.pca_initialization = false;
  ppc::Rng rng_a(41), rng_b(41);
  const GtmModel with_pca = GtmModel::train(data, pca_config, rng_a);
  const GtmModel with_random = GtmModel::train(data, random_config, rng_b);
  EXPECT_GT(with_pca.log_likelihood_history().front(),
            with_random.log_likelihood_history().front())
      << "PCA init must start closer to the data";
  EXPECT_GE(with_pca.log_likelihood_history().back(),
            with_random.log_likelihood_history().back() - 50.0);
}

TEST(GtmTrain, PcaInitSpreadsInitialCentersAlongTheData) {
  // With PCA init the initial mixture centers span the data's principal
  // extent instead of collapsing at the mean.
  ppc::Rng rng(42);
  const Matrix data = generate_clustered(small_data(150, 10, 2), rng);
  GtmConfig config = small_config();
  config.em_iterations = 1;  // look at (nearly) the initial state
  const GtmModel model = GtmModel::train(data, config, rng);
  const Matrix& centers = model.projected_centers();
  double spread = 0.0;
  const auto first = centers.row(0);
  for (std::size_t i = 1; i < centers.rows(); ++i) {
    spread = std::max(spread, squared_distance(first, centers.row(i)));
  }
  EXPECT_GT(spread, 0.5) << "centers should span the principal plane";
}

TEST(GtmModel, SerializationRoundTrip) {
  ppc::Rng rng(8);
  const Matrix data = generate_clustered(small_data(60), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const GtmModel restored = GtmModel::deserialize(model.serialize());
  EXPECT_EQ(restored.latent_points(), model.latent_points());
  EXPECT_EQ(restored.data_dims(), model.data_dims());
  EXPECT_NEAR(restored.beta(), model.beta(), 1e-12);
  const Matrix a = model.interpolate(data);
  const Matrix b = restored.interpolate(data);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(a(i, 0), b(i, 0), 1e-9);
    EXPECT_NEAR(a(i, 1), b(i, 1), 1e-9);
  }
}

TEST(GtmModel, DeserializeRejectsGarbage) {
  EXPECT_THROW(GtmModel::deserialize("not a model"), ppc::InvalidArgument);
  EXPECT_THROW(GtmModel::deserialize("gtm 4 2 1.0\n0 0"), ppc::InvalidArgument);
}

TEST(GtmModel, InterpolateRejectsWrongDims) {
  ppc::Rng rng(9);
  const Matrix data = generate_clustered(small_data(50, 6), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const Matrix wrong(10, 3);
  EXPECT_THROW(model.interpolate(wrong), ppc::InvalidArgument);
}

TEST(GtmFileContract, CsvInCsvOut) {
  ppc::Rng rng(10);
  const Matrix data = generate_clustered(small_data(40, 6), rng);
  const GtmModel model = GtmModel::train(data, small_config(), rng);
  const std::string out = interpolate_csv_file(model, matrix_to_csv(data));
  const Matrix mapped = matrix_from_csv(out);
  EXPECT_EQ(mapped.rows(), 40u);
  EXPECT_EQ(mapped.cols(), 2u);
}

}  // namespace
}  // namespace ppc::apps::gtm
