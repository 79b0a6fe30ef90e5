#include "apps/gtm/gtm.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "apps/gtm/data_gen.h"
#include "common/error.h"

namespace ppc::apps::gtm {

namespace {

/// Regular grid x grid layout over [-1, 1]^2, row-major.
Matrix make_grid(std::size_t grid) {
  PPC_REQUIRE(grid >= 2, "grid must be >= 2");
  Matrix m(grid * grid, 2);
  for (std::size_t i = 0; i < grid; ++i) {
    for (std::size_t j = 0; j < grid; ++j) {
      const std::size_t r = i * grid + j;
      m(r, 0) = -1.0 + 2.0 * static_cast<double>(j) / static_cast<double>(grid - 1);
      m(r, 1) = -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(grid - 1);
    }
  }
  return m;
}

/// RBF design matrix Phi (K x M+1): Gaussian bumps over the latent grid
/// plus a bias column.
Matrix make_phi(const Matrix& latent, const Matrix& rbf_centers, double width) {
  const std::size_t k = latent.rows(), m = rbf_centers.rows();
  Matrix phi(k, m + 1);
  const double denom = 2.0 * width * width;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double dx = latent(i, 0) - rbf_centers(j, 0);
      const double dy = latent(i, 1) - rbf_centers(j, 1);
      phi(i, j) = std::exp(-(dx * dx + dy * dy) / denom);
    }
    phi(i, m) = 1.0;  // bias
  }
  return phi;
}

/// Top-2 principal directions and standard deviations of `samples`, via
/// power iteration with deflation on the D x D covariance.
struct Pca2 {
  std::vector<double> v1, v2;  // unit eigenvectors
  double sd1 = 0.0, sd2 = 0.0;
};

Pca2 top2_principal_components(const Matrix& samples, const std::vector<double>& mean,
                               ppc::Rng& rng) {
  const std::size_t n = samples.rows(), d = samples.cols();
  Matrix cov(d, d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      const double xa = samples(i, a) - mean[a];
      for (std::size_t b = a; b < d; ++b) {
        cov(a, b) += xa * (samples(i, b) - mean[b]);
      }
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < a; ++b) cov(a, b) = cov(b, a);
  }
  const double denom = static_cast<double>(n > 1 ? n - 1 : 1);
  for (auto& v : cov.data()) v /= denom;

  auto power_iterate = [&](const Matrix& m) {
    std::vector<double> v(d);
    for (auto& x : v) x = rng.normal(0.0, 1.0);
    double eigenvalue = 0.0;
    for (int iter = 0; iter < 60; ++iter) {
      std::vector<double> next(d, 0.0);
      for (std::size_t a = 0; a < d; ++a) {
        for (std::size_t b = 0; b < d; ++b) next[a] += m(a, b) * v[b];
      }
      double norm = 0.0;
      for (double x : next) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-12) break;  // degenerate data
      for (std::size_t a = 0; a < d; ++a) v[a] = next[a] / norm;
      eigenvalue = norm;
    }
    return std::make_pair(v, eigenvalue);
  };

  Pca2 out;
  auto [v1, l1] = power_iterate(cov);
  out.v1 = v1;
  out.sd1 = std::sqrt(std::max(0.0, l1));
  // Deflate and repeat for the second component.
  Matrix deflated = cov;
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < d; ++b) deflated(a, b) -= l1 * v1[a] * v1[b];
  }
  auto [v2, l2] = power_iterate(deflated);
  out.v2 = v2;
  out.sd2 = std::sqrt(std::max(0.0, l2));
  return out;
}

/// Squared distances from point `x` to the K centers, given transposed
/// (D x K), into dist[0..K). Each sums over c in increasing order; the K
/// sums advance side by side.
void sq_distances(const Matrix& centers_t, const double* x, double* dist) {
  const std::size_t d = centers_t.rows(), k = centers_t.cols();
  const double* col = centers_t.data().data();
  std::fill(dist, dist + k, 0.0);
  for (std::size_t c = 0; c < d; ++c, col += k) {
    const double xc = x[c];
    for (std::size_t i = 0; i < k; ++i) {
      const double diff = col[i] - xc;
      dist[i] += diff * diff;
    }
  }
}

/// One point's E-step against the K centers, given transposed (D x K):
/// writes the point's K responsibilities to `resp` and returns its
/// log-likelihood less the constant normalization term.
double point_responsibilities(const Matrix& centers_t, const double* x, double beta,
                              double* resp) {
  const std::size_t k = centers_t.cols();
  sq_distances(centers_t, x, resp);
  // log-sum-exp over the K mixture components for numerical stability.
  double max_log = -1e300;
  for (std::size_t i = 0; i < k; ++i) max_log = std::max(max_log, -0.5 * beta * resp[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = std::exp(-0.5 * beta * resp[i] - max_log);
    resp[i] = w;
    sum += w;
  }
  for (std::size_t i = 0; i < k; ++i) resp[i] /= sum;
  return max_log + std::log(sum);
}

struct EStep {
  Matrix responsibilities;  // K x N, columns sum to 1
  double log_likelihood = 0.0;
};

EStep e_step(const Matrix& centers, const Matrix& points, double beta) {
  const std::size_t k = centers.rows(), n = points.rows(), d = centers.cols();
  const Matrix centers_t = centers.transpose();
  EStep out{Matrix(k, n), 0.0};
  const double log_norm = 0.5 * static_cast<double>(d) *
                              std::log(beta / (2.0 * std::acos(-1.0))) -
                          std::log(static_cast<double>(k));
  std::vector<double> resp(k);
  for (std::size_t j = 0; j < n; ++j) {
    out.log_likelihood +=
        point_responsibilities(centers_t, &points.data()[j * d], beta, resp.data()) + log_norm;
    for (std::size_t i = 0; i < k; ++i) out.responsibilities(i, j) = resp[i];
  }
  return out;
}

}  // namespace

GtmModel GtmModel::train(const Matrix& samples, const GtmConfig& config, ppc::Rng& rng) {
  PPC_REQUIRE(samples.rows() >= 2, "need at least two training samples");
  const std::size_t n = samples.rows(), d = samples.cols();

  GtmModel model;
  model.latent_ = make_grid(config.latent_grid);
  const Matrix rbf_centers = make_grid(config.rbf_grid);
  const double spacing = 2.0 / static_cast<double>(config.rbf_grid - 1);
  const Matrix phi = make_phi(model.latent_, rbf_centers, config.rbf_width_factor * spacing);
  const std::size_t k = model.latent_.rows();
  const std::size_t m1 = phi.cols();

  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) mean[c] += samples(i, c) / static_cast<double>(n);
  }

  Matrix w(m1, d);
  if (config.pca_initialization) {
    // Standard GTM init: lay the latent grid onto the data's top-2
    // principal plane, then solve Phi W = Y_target for W in least squares.
    const Pca2 pca = top2_principal_components(samples, mean, rng);
    Matrix y_target(k, d);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        y_target(i, c) = mean[c] + model.latent_(i, 0) * pca.sd1 * pca.v1[c] +
                         model.latent_(i, 1) * pca.sd2 * pca.v2[c];
      }
    }
    const Matrix phi_t0 = phi.transpose();
    Matrix lhs = phi_t0.multiply(phi);
    lhs.add_diagonal(config.regularization);
    w = cholesky_solve_matrix(lhs, phi_t0.multiply(y_target));
  } else {
    // Small random weights plus the data mean in the bias row, so initial
    // centers sit inside the data cloud.
    for (std::size_t r = 0; r < m1; ++r) {
      for (std::size_t c = 0; c < d; ++c) w(r, c) = rng.normal(0.0, 0.05);
    }
    for (std::size_t c = 0; c < d; ++c) w(m1 - 1, c) += mean[c];
  }

  model.centers_ = phi.multiply(w);

  // Initialize beta from the average data variance.
  double var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = samples(i, c) - mean[c];
      var += diff * diff;
    }
  }
  var /= static_cast<double>(n * d);
  model.beta_ = var > 0.0 ? 1.0 / var : 1.0;

  const Matrix phi_t = phi.transpose();
  for (std::size_t iter = 0; iter < config.em_iterations; ++iter) {
    const EStep e = e_step(model.centers_, samples, model.beta_);
    model.loglik_history_.push_back(e.log_likelihood);

    // M-step: (Phi^T G Phi + lambda I) W = Phi^T R X.
    std::vector<double> g(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) g[i] += e.responsibilities(i, j);
    }
    Matrix gphi = phi;  // G Phi (scale each row of Phi by g)
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t c = 0; c < m1; ++c) gphi(i, c) *= g[i];
    }
    Matrix lhs = phi_t.multiply(gphi);
    lhs.add_diagonal(config.regularization);
    const Matrix rhs = phi_t.multiply(e.responsibilities.multiply(samples));
    w = cholesky_solve_matrix(lhs, rhs);
    model.centers_ = phi.multiply(w);

    // Update beta: inverse of the responsibility-weighted mean squared
    // reconstruction error.
    const Matrix centers_t = model.centers_.transpose();
    Matrix dist(n, k);  // point-major
    for (std::size_t j = 0; j < n; ++j) {
      sq_distances(centers_t, &samples.data()[j * d], &dist(j, 0));
    }
    double err = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) err += e.responsibilities(i, j) * dist(j, i);
    }
    err /= static_cast<double>(n * d);
    if (err > 1e-12) model.beta_ = 1.0 / err;
  }
  return model;
}

Matrix GtmModel::interpolate(const Matrix& points) const {
  PPC_REQUIRE(points.cols() == centers_.cols(),
              "point dimensionality does not match the trained model");
  const std::size_t n = points.rows(), k = centers_.rows(), d = centers_.cols();
  const Matrix centers_t = centers_.transpose();
  std::vector<double> resp(k);
  Matrix out(n, 2);
  for (std::size_t j = 0; j < n; ++j) {
    point_responsibilities(centers_t, &points.data()[j * d], beta_, resp.data());
    double x = 0.0, y = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      x += resp[i] * latent_(i, 0);
      y += resp[i] * latent_(i, 1);
    }
    out(j, 0) = x;
    out(j, 1) = y;
  }
  return out;
}

std::string GtmModel::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "gtm " << latent_.rows() << ' ' << centers_.cols() << ' ' << beta_ << '\n';
  for (std::size_t i = 0; i < latent_.rows(); ++i) {
    os << latent_(i, 0) << ' ' << latent_(i, 1);
    for (std::size_t c = 0; c < centers_.cols(); ++c) os << ' ' << centers_(i, c);
    os << '\n';
  }
  return os.str();
}

GtmModel GtmModel::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  std::size_t k = 0, d = 0;
  double beta = 0.0;
  is >> magic >> k >> d >> beta;
  PPC_REQUIRE(magic == "gtm" && k >= 1 && d >= 1 && beta > 0.0, "malformed GTM model text");
  GtmModel model;
  model.latent_ = Matrix(k, 2);
  model.centers_ = Matrix(k, d);
  model.beta_ = beta;
  for (std::size_t i = 0; i < k; ++i) {
    is >> model.latent_(i, 0) >> model.latent_(i, 1);
    for (std::size_t c = 0; c < d; ++c) is >> model.centers_(i, c);
  }
  PPC_REQUIRE(static_cast<bool>(is), "truncated GTM model text");
  return model;
}

std::string interpolate_csv_file(const GtmModel& model, const std::string& csv_points) {
  const Matrix mapped = model.interpolate(matrix_from_csv(csv_points));
  std::ostringstream os;
  os.precision(10);
  for (std::size_t r = 0; r < mapped.rows(); ++r) {
    os << mapped(r, 0) << ',' << mapped(r, 1) << '\n';
  }
  return os.str();
}

}  // namespace ppc::apps::gtm
