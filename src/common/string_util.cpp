#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"

namespace ppc {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<double> parse_finite(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  if (n < static_cast<int>(sizeof buf)) return std::string(buf, static_cast<std::size_t>(n));
  // Values of 1e57 and up have more integer digits than buf holds.
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", decimals, v);
  return out;
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return format_fixed(bytes, bytes < 10 ? 2 : 1) + " " + kUnits[u];
}

std::string format_duration(double seconds) {
  const bool neg = seconds < 0;
  if (neg) seconds = -seconds;
  const auto total = static_cast<long long>(seconds);
  const long long h = total / 3600, m = (total % 3600) / 60;
  const double s = seconds - static_cast<double>(h * 3600 + m * 60);
  std::ostringstream os;
  if (neg) os << '-';
  if (h > 0) os << h << "h ";
  if (h > 0 || m > 0) os << m << "m ";
  os << format_fixed(s, 1) << "s";
  return os.str();
}

std::string encode_kv(const std::map<std::string, std::string>& kv) {
  std::size_t bytes = 0;
  for (const auto& [k, v] : kv) {
    PPC_REQUIRE(k.find_first_of("=;") == std::string::npos,
                "kv key contains reserved character");
    PPC_REQUIRE(v.find_first_of("=;") == std::string::npos,
                "kv value contains reserved character");
    bytes += k.size() + v.size() + 2;
  }
  std::string out;
  out.reserve(bytes);
  for (const auto& [k, v] : kv) {
    if (!out.empty()) out += ';';  // every field adds '=', so non-empty means "not first"
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::map<std::string, std::string> decode_kv(std::string_view s) {
  std::map<std::string, std::string> out;
  if (s.empty()) return out;
  for (const auto& field : split(s, ';')) {
    const std::size_t eq = field.find('=');
    PPC_REQUIRE(eq != std::string::npos && field.find('=', eq + 1) == std::string::npos,
                "malformed kv field: " + field);
    PPC_REQUIRE(out.emplace(field.substr(0, eq), field.substr(eq + 1)).second,
                "repeated kv key: " + field);
  }
  return out;
}

}  // namespace ppc
