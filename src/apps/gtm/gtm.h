// Generative Topographic Mapping: training (EM) and the out-of-sample
// interpolation the paper parallelizes.
//
// §6: "GTM Interpolation takes only a part of the full dataset, known as
// samples, for a compute-intensive training process and applies the trained
// result to the rest of the dataset, known as out-of-samples." The trained
// model here is the classic GTM of Bishop/Svensén/Williams: a regular grid
// of K latent points in 2D, an RBF basis mapping latent space to data
// space, a weight matrix W fitted by EM, and a noise precision beta.
// Interpolation computes each out-of-sample point's responsibilities over
// the latent grid and projects it to the posterior-mean latent position —
// the dimension-reduction output the paper visualizes for 26M PubChem
// compounds.
//
// Both run the E-step one point at a time (K squared distances, their
// log-sum-exp normalization); interpolation then accumulates the point's
// latent coordinates and builds no K x N matrix. Training still fills the
// K x N responsibilities its M-step multiplies.
//
// The model serializes to text so the frameworks can distribute it to
// workers exactly as they distribute the BLAST database.
#pragma once

#include <string>
#include <vector>

#include "apps/gtm/matrix.h"
#include "common/rng.h"

namespace ppc::apps::gtm {

struct GtmConfig {
  /// Latent points form a latent_grid x latent_grid 2D grid (K = grid^2).
  std::size_t latent_grid = 8;
  /// RBF centers form an rbf_grid x rbf_grid grid (M = grid^2 + bias).
  std::size_t rbf_grid = 4;
  /// RBF width = factor x spacing of the RBF center grid.
  double rbf_width_factor = 2.0;
  std::size_t em_iterations = 20;
  /// Ridge regularization on the weight solve.
  double regularization = 1e-3;
  /// Initialize the mapping on the data's top-2 principal-component plane
  /// (the standard GTM initialization); false falls back to a small random
  /// W around the data mean.
  bool pca_initialization = true;
};

class GtmModel {
 public:
  /// Trains on `samples` (N x D). This is the "compute-intensive training
  /// process" run once on the sample subset.
  static GtmModel train(const Matrix& samples, const GtmConfig& config, ppc::Rng& rng);

  /// Projects points (N x D) into latent 2D space (N x 2) — the pleasingly
  /// parallel per-file computation of §6.
  Matrix interpolate(const Matrix& points) const;

  std::size_t latent_points() const { return latent_.rows(); }
  std::size_t data_dims() const { return centers_.cols(); }
  double beta() const { return beta_; }
  const Matrix& latent_grid() const { return latent_; }
  /// Projected mixture centers Y = Phi W (K x D).
  const Matrix& projected_centers() const { return centers_; }
  const std::vector<double>& log_likelihood_history() const { return loglik_history_; }

  /// Text round-trip, for distributing the trained model to workers.
  std::string serialize() const;
  static GtmModel deserialize(const std::string& text);

 private:
  GtmModel() = default;

  Matrix latent_;   // K x 2
  Matrix centers_;  // K x D (Phi W, cached)
  double beta_ = 1.0;
  std::vector<double> loglik_history_;
};

/// File contract for the frameworks: CSV of out-of-sample points in, CSV of
/// 2D coordinates out.
std::string interpolate_csv_file(const GtmModel& model, const std::string& csv_points);

}  // namespace ppc::apps::gtm
