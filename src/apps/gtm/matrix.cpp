#include "apps/gtm/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"

namespace ppc::apps::gtm {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  PPC_REQUIRE(rows >= 1 && cols >= 1, "matrix dimensions must be >= 1");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

namespace {

// The multiply kernel: B is packed into NR-column panels so the innermost
// loop reads contiguous memory, and each MR x NR output tile accumulates in
// registers (one store per output element instead of one per k step).
// Accumulation stays in increasing-k order per element, so results match a
// textbook i-k-j triple loop to the last ulp of summation-order freedom.
constexpr std::size_t kMr = 4;   // A rows per micro-kernel call
constexpr std::size_t kNr = 12;  // packed-panel width (B columns)

// SIMD via function multi-versioning: the project is built for baseline
// x86-64, but the micro-kernel is cloned for AVX2/FMA and AVX-512 and
// dispatched at load time on ELF/GCC-compatible toolchains. Not under
// ThreadSanitizer: it instruments the clones' IFUNC resolver, which runs
// during relocation, before the TSan runtime is up, and crashes every
// binary that links this file.
#if defined(__GNUC__) && defined(__ELF__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define PPC_MM_CLONES __attribute__((target_clones("avx512f", "avx2,fma", "default")))
#else
#define PPC_MM_CLONES
#endif

/// acc[kMr][kNr] += rows a0..a3 of A times the packed panel `pb` (kk steps).
PPC_MM_CLONES
void micro_kernel(const double* a0, const double* a1, const double* a2, const double* a3,
                  const double* pb, double* acc, std::size_t kk) {
  double local[kMr][kNr] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const double* b = &pb[k * kNr];
    const double av0 = a0[k], av1 = a1[k], av2 = a2[k], av3 = a3[k];
    for (std::size_t jj = 0; jj < kNr; ++jj) {
      const double bv = b[jj];
      local[0][jj] += av0 * bv;
      local[1][jj] += av1 * bv;
      local[2][jj] += av2 * bv;
      local[3][jj] += av3 * bv;
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

/// Packs B (kk x m, row-major, leading dimension m) into kNr-wide panels:
/// panel p holds columns [p*kNr, p*kNr + kNr), k-major, zero-padded.
std::vector<double> pack_panels(const double* b, std::size_t kk, std::size_t m) {
  const std::size_t npan = (m + kNr - 1) / kNr;
  std::vector<double> pack(npan * kk * kNr, 0.0);
  for (std::size_t p = 0; p < npan; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t jw = std::min(kNr, m - j0);
    double* dst = &pack[p * kk * kNr];
    for (std::size_t k = 0; k < kk; ++k) {
      const double* src = &b[k * m + j0];
      for (std::size_t jj = 0; jj < jw; ++jj) dst[k * kNr + jj] = src[jj];
    }
  }
  return pack;
}

/// Computes rows [r0, r1) of C = A * B from the packed panels of B.
void multiply_band(const double* a, const std::vector<double>& pack, double* c, std::size_t kk,
                   std::size_t m, std::size_t r0, std::size_t r1) {
  const std::size_t npan = (m + kNr - 1) / kNr;
  double acc[kMr][kNr];
  std::size_t i = r0;
  for (; i + kMr <= r1; i += kMr) {
    for (std::size_t p = 0; p < npan; ++p) {
      const std::size_t j0 = p * kNr;
      const std::size_t jw = std::min(kNr, m - j0);
      micro_kernel(&a[(i + 0) * kk], &a[(i + 1) * kk], &a[(i + 2) * kk], &a[(i + 3) * kk],
                   &pack[p * kk * kNr], &acc[0][0], kk);
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        for (std::size_t jj = 0; jj < jw; ++jj) c[(i + ii) * m + j0 + jj] = acc[ii][jj];
      }
    }
  }
  // Remainder rows: run the micro-kernel with the last row duplicated and
  // write back only the real ones (keeps one code path hot).
  if (i < r1) {
    const double* rows[kMr];
    const std::size_t iw = r1 - i;
    for (std::size_t ii = 0; ii < kMr; ++ii) rows[ii] = &a[(i + std::min(ii, iw - 1)) * kk];
    for (std::size_t p = 0; p < npan; ++p) {
      const std::size_t j0 = p * kNr;
      const std::size_t jw = std::min(kNr, m - j0);
      micro_kernel(rows[0], rows[1], rows[2], rows[3], &pack[p * kk * kNr], &acc[0][0], kk);
      for (std::size_t ii = 0; ii < iw; ++ii) {
        for (std::size_t jj = 0; jj < jw; ++jj) c[(i + ii) * m + j0 + jj] = acc[ii][jj];
      }
    }
  }
}

/// Shared pool for banded products. Sized so the bench's "≥4 threads"
/// configuration holds even on small hosts; bands are chunky enough that
/// oversubscription on fewer cores costs nothing measurable.
ThreadPool& multiply_pool() {
  static ThreadPool pool(std::max(4u, std::thread::hardware_concurrency()));
  return pool;
}

/// Below this many multiply-adds the submit/join overhead outweighs the
/// parallelism (a 128^3 product is ~2M).
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 23;

}  // namespace

Matrix Matrix::multiply(const Matrix& other) const {
  PPC_REQUIRE(cols_ == other.rows_, "matrix dimension mismatch in multiply");
  Matrix out(rows_, other.cols_, 0.0);
  const std::size_t m = other.cols_;
  const std::size_t kk = cols_;
  const std::vector<double> pack = pack_panels(other.data_.data(), kk, m);

  ThreadPool& pool = multiply_pool();
  const std::size_t flops = rows_ * m * kk;
  std::size_t bands = 1;
  if (flops >= kParallelFlopThreshold && pool.size() > 1) {
    bands = std::min<std::size_t>(pool.size(), rows_ / kMr);
    bands = std::max<std::size_t>(bands, 1);
  }
  if (bands <= 1) {
    multiply_band(data_.data(), pack, out.data_.data(), kk, m, 0, rows_);
    return out;
  }

  // Row bands: each band owns a disjoint slice of the output, aligned to the
  // micro-kernel height so every band runs the hot path.
  const std::size_t chunk = ((rows_ + bands - 1) / bands + kMr - 1) / kMr * kMr;
  std::vector<std::future<void>> futures;
  futures.reserve(bands);
  std::size_t r0 = chunk;  // band 0 runs on the calling thread
  for (std::size_t b = 1; b < bands && r0 < rows_; ++b, r0 += chunk) {
    const std::size_t lo = r0, hi = std::min(rows_, r0 + chunk);
    auto fut = pool.try_submit([this, &pack, &out, kk, m, lo, hi] {
      multiply_band(data_.data(), pack, out.data_.data(), kk, m, lo, hi);
    });
    if (fut) {
      futures.push_back(std::move(*fut));
    } else {
      // Pool is draining (process exit): fall back inline.
      multiply_band(data_.data(), pack, out.data_.data(), kk, m, lo, hi);
    }
  }
  multiply_band(data_.data(), pack, out.data_.data(), kk, m, 0, std::min(rows_, chunk));
  for (auto& f : futures) f.get();
  return out;
}

Matrix Matrix::add(const Matrix& other) const {
  PPC_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "matrix dimension mismatch in add");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

void Matrix::add_diagonal(double lambda) {
  PPC_REQUIRE(rows_ == cols_, "add_diagonal requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += lambda;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::vector<double> Matrix::row(std::size_t r) const {
  PPC_REQUIRE(r < rows_, "row out of range");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

CholeskyFactorization::CholeskyFactorization(const Matrix& a) {
  PPC_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        PPC_REQUIRE(sum > 1e-12, "matrix is not positive definite");
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  l_ = std::move(l);
}

std::vector<double> CholeskyFactorization::solve(const std::vector<double>& b) const {
  const std::size_t n = dim();
  PPC_REQUIRE(b.size() == n, "rhs size mismatch");
  const Matrix& l = l_;
  // Forward: L y = b
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Backward: L^T x = y
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

Matrix CholeskyFactorization::solve(const Matrix& b) const {
  PPC_REQUIRE(b.rows() == dim(), "rhs rows mismatch");
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const auto sol = solve(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b) {
  PPC_REQUIRE(b.size() == a.rows(), "rhs size mismatch");
  return CholeskyFactorization(a).solve(b);
}

Matrix cholesky_solve_matrix(const Matrix& a, const Matrix& b) {
  PPC_REQUIRE(b.rows() == a.rows(), "rhs rows mismatch");
  return CholeskyFactorization(a).solve(b);
}

double squared_distance(const std::vector<double>& x, const std::vector<double>& y) {
  PPC_REQUIRE(x.size() == y.size(), "vector length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

}  // namespace ppc::apps::gtm
