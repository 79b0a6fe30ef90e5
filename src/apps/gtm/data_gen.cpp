#include "apps/gtm/data_gen.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::apps::gtm {

Matrix generate_clustered(const ClusterDataConfig& config, ppc::Rng& rng,
                          std::vector<int>* labels) {
  PPC_REQUIRE(config.num_points >= 1, "need at least one point");
  PPC_REQUIRE(config.clusters >= 1, "need at least one cluster");
  PPC_REQUIRE(config.dims >= 1, "need at least one dimension");

  std::vector<std::vector<double>> centers(config.clusters, std::vector<double>(config.dims));
  for (auto& c : centers) {
    for (double& v : c) v = rng.uniform(-config.center_range, config.center_range);
  }

  Matrix points(config.num_points, config.dims);
  if (labels != nullptr) labels->resize(config.num_points);
  for (std::size_t i = 0; i < config.num_points; ++i) {
    const std::size_t cluster = rng.index(config.clusters);
    if (labels != nullptr) (*labels)[i] = static_cast<int>(cluster);
    for (std::size_t c = 0; c < config.dims; ++c) {
      points(i, c) = centers[cluster][c] + rng.normal(0.0, config.cluster_stddev);
    }
  }
  return points;
}

std::string matrix_to_csv(const Matrix& m) {
  std::ostringstream os;
  os.precision(10);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) os << ',';
      os << m(r, c);
    }
    os << '\n';
  }
  return os.str();
}

namespace {

/// One trimmed cell as matrix_to_csv writes it: a decimal number that
/// from_chars reads whole, or nan / -nan / inf / -inf. Hex, a '+' sign and
/// other NaN or infinity spellings are rejected, as is a value out of range.
bool parse_cell(std::string_view cell, double& out) {
  const bool negative = !cell.empty() && cell.front() == '-';
  const std::string_view body = cell.substr(negative ? 1 : 0);
  if (body == "nan" || body == "inf") {
    out = body == "nan" ? std::numeric_limits<double>::quiet_NaN()
                        : std::numeric_limits<double>::infinity();
    if (negative) out = -out;
    return true;
  }
  if (body.empty() || !(body.front() == '.' || (body.front() >= '0' && body.front() <= '9'))) {
    return false;
  }
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Calls fn(line_number, line) for every line that is not blank; line
/// numbers are 1-based and count blank lines.
template <typename Fn>
void for_each_row(std::string_view csv, Fn&& fn) {
  std::size_t line_no = 0;
  while (!csv.empty()) {
    const std::size_t nl = csv.find('\n');
    const std::string_view line = csv.substr(0, nl);
    csv.remove_prefix(nl == std::string_view::npos ? csv.size() : nl + 1);
    ++line_no;
    if (!ppc::trim(line).empty()) fn(line_no, line);
  }
}

std::string on_line(std::size_t line_no) { return "CSV line " + std::to_string(line_no) + ": "; }

}  // namespace

Matrix matrix_from_csv(const std::string& csv) {
  // First pass sizes the matrix (rows, and columns from the first row);
  // the second parses each cell straight into it.
  std::size_t rows = 0;
  std::size_t cols = 0;
  for_each_row(csv, [&](std::size_t, std::string_view line) {
    if (rows++ == 0) cols = static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  });
  PPC_REQUIRE(rows > 0, "empty CSV");

  Matrix m(rows, cols);
  double* out = m.data().data();
  for_each_row(csv, [&](std::size_t line_no, std::string_view line) {
    std::size_t c = 0;
    while (true) {
      const std::size_t comma = line.find(',');
      const std::string_view cell = ppc::trim(line.substr(0, comma));
      PPC_REQUIRE(c < cols, on_line(line_no) + "ragged CSV row (more than " +
                                std::to_string(cols) + " cells)");
      const bool parsed = parse_cell(cell, *out++);
      PPC_REQUIRE(parsed, on_line(line_no) + "cell '" + std::string(cell) + "' is not a number");
      ++c;
      if (comma == std::string_view::npos) break;
      line.remove_prefix(comma + 1);
    }
    PPC_REQUIRE(c == cols, on_line(line_no) + "ragged CSV row (" + std::to_string(c) +
                               " cells, expected " + std::to_string(cols) + ")");
  });
  return m;
}

}  // namespace ppc::apps::gtm
