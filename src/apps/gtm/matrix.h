// Small dense row-major matrix kernel used by the GTM implementation.
//
// Deliberately self-contained (no BLAS dependency): the GTM Interpolation
// application the paper runs is a dense linear-algebra code, and its
// memory-bandwidth-bound character (§6) comes from exactly these streaming
// matrix products. multiply() runs a packed, register-tiled micro-kernel
// (SIMD via function multi-versioning where the toolchain supports it) and
// fans large products out over row bands on a shared ThreadPool; see
// DESIGN.md "Kernel performance".
#pragma once

#include <cstddef>
#include <vector>

namespace ppc::apps::gtm {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix transpose() const;

  /// this * other; dimensions must agree.
  Matrix multiply(const Matrix& other) const;

  /// this + other (element-wise).
  Matrix add(const Matrix& other) const;

  /// this * scalar.
  Matrix scale(double s) const;

  /// Adds lambda to the diagonal in place (ridge regularization).
  void add_diagonal(double lambda);

  /// Frobenius norm.
  double norm() const;

  /// Row `r` as a vector copy.
  std::vector<double> row(std::size_t r) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix, computed
/// once (O(n^3)) and reusable for any number of right-hand sides (O(n^2)
/// each). Throws ppc::InvalidArgument when A is not SPD (within tolerance).
class CholeskyFactorization {
 public:
  explicit CholeskyFactorization(const Matrix& a);

  std::size_t dim() const { return l_.rows(); }

  /// Solves A x = b via forward/backward substitution on the cached factor.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A X = B for every column of B, reusing the factor.
  Matrix solve(const Matrix& b) const;

 private:
  Matrix l_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky; returns x.
/// Throws ppc::InvalidArgument when A is not SPD (within tolerance).
/// One-shot convenience over CholeskyFactorization.
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

/// Solves A X = B column-wise for SPD A (B given as a Matrix). Factors A
/// once and back-substitutes every column of B against the cached factor.
Matrix cholesky_solve_matrix(const Matrix& a, const Matrix& b);

/// Squared Euclidean distance between two equal-length vectors.
double squared_distance(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace ppc::apps::gtm
