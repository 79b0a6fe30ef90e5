// Small string helpers: splitting, trimming, numeric formatting, and the
// key=value record codec used for Classic Cloud task messages (the paper's
// SQS messages are short self-describing task records, §2.1.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ppc {

/// FNV-1a 64-bit hash, used where its exact values are part of the output:
/// object identity (the blob store's ETag, which is also the block cache's
/// content address, and logical-object etags), shuffle partitioning
/// (partition_of), and per-site RNG streams (seed ^ fnv1a64(site)). It is
/// byte-serial and slow, and it does not check delivered bytes; that is
/// ppc::crc32c's job (common/crc32c.h).
std::uint64_t fnv1a64(std::string_view s);

/// Splits `s` on `sep`; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// All of `text` as a finite double (std::from_chars syntax: no leading
/// whitespace or '+'), or nullopt for anything else: trailing bytes, an
/// overflow, "nan", "inf".
std::optional<double> parse_finite(std::string_view text);

/// Formats with fixed decimals, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double v, int decimals);

/// Human-friendly byte count: "1.5 MB", "8.7 GB".
std::string format_bytes(double bytes);

/// "1h 02m 03s" style duration rendering for reports.
std::string format_duration(double seconds);

/// Serializes a flat string map as "k1=v1;k2=v2". Keys/values must not
/// contain '=' or ';' (checked). Deterministic (keys sorted by std::map).
std::string encode_kv(const std::map<std::string, std::string>& kv);

/// Inverse of encode_kv. Throws ppc::InvalidArgument on malformed input,
/// including a value with a '=' and a repeated key, which encode_kv never
/// emits.
std::map<std::string, std::string> decode_kv(std::string_view s);

}  // namespace ppc
