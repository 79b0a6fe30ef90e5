#include "classiccloud/task.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::classiccloud {

namespace {

/// The one check ppc::encode_kv applies to every value.
void require_unreserved(const std::string& value) {
  PPC_REQUIRE(value.find_first_of("=;") == std::string::npos,
              "kv value contains reserved character");
}

void append_field(std::string& out, std::string_view key, std::string_view value) {
  if (!out.empty()) out += ';';
  out += key;
  out += '=';
  out += value;
}

}  // namespace

std::string encode_task(const TaskSpec& task) {
  PPC_REQUIRE(!task.task_id.empty(), "task_id must be non-empty");
  PPC_REQUIRE(!task.input_key.empty() && !task.output_key.empty(),
              "task must name input and output blobs");
  // The ";shared=" field: its keys, comma-joined.
  std::size_t shared_bytes = 0;
  for (const std::string& key : task.shared_keys) {
    PPC_REQUIRE(!key.empty() && key.find(',') == std::string::npos,
                "shared key must be non-empty and comma-free: " + key);
    shared_bytes += (shared_bytes == 0 ? 8 : 1) + key.size();
  }
  require_unreserved(task.input_key);
  require_unreserved(task.output_key);
  for (const std::string& key : task.shared_keys) require_unreserved(key);
  require_unreserved(task.task_id);

  // "in=<in>;out=<out>[;shared=<k1,k2,...>];task=<id>"
  std::string out;
  out.reserve(3 + task.input_key.size() + 5 + task.output_key.size() + shared_bytes + 6 +
              task.task_id.size());
  append_field(out, "in", task.input_key);
  append_field(out, "out", task.output_key);
  if (!task.shared_keys.empty()) {
    out += ";shared=";
    for (std::size_t i = 0; i < task.shared_keys.size(); ++i) {
      if (i > 0) out += ',';
      out += task.shared_keys[i];
    }
  }
  append_field(out, "task", task.task_id);
  return out;
}

TaskSpec decode_task(const std::string& body) {
  // The fields, scanned in place. Unknown keys are accepted as ppc::decode_kv
  // accepts them, but a repeat of any key is rejected.
  std::optional<std::string_view> fields[4];  // task, in, out, shared
  static constexpr std::string_view kNames[4] = {"task", "in", "out", "shared"};
  std::vector<std::string_view> unknown;
  const std::string_view s(body);
  for (std::size_t start = 0; !s.empty();) {
    const std::size_t end = std::min(s.find(';', start), s.size());
    const std::string_view field = s.substr(start, end - start);
    const std::size_t eq = field.find('=');
    PPC_REQUIRE(eq != std::string_view::npos && field.find('=', eq + 1) == std::string_view::npos,
                "malformed kv field: " + std::string(field));
    const std::string_view key = field.substr(0, eq);
    const auto known = std::find(std::begin(kNames), std::end(kNames), key) - std::begin(kNames);
    bool repeated = false;
    if (known < 4) {
      repeated = fields[known].has_value();
      fields[known] = field.substr(eq + 1);
    } else {
      repeated = std::find(unknown.begin(), unknown.end(), key) != unknown.end();
      unknown.push_back(key);
    }
    PPC_REQUIRE(!repeated, "repeated kv key: " + std::string(field));
    if (end == s.size()) break;
    start = end + 1;
  }
  PPC_REQUIRE(fields[0] && fields[1] && fields[2], "malformed task message: " + body);
  TaskSpec task{std::string(*fields[0]), std::string(*fields[1]), std::string(*fields[2]), {}};
  PPC_REQUIRE(!task.task_id.empty() && !task.input_key.empty() && !task.output_key.empty(),
              "task message has an empty field: " + body);
  if (fields[3]) {
    task.shared_keys = ppc::split(*fields[3], ',');
    for (const std::string& key : task.shared_keys) {
      PPC_REQUIRE(!key.empty(), "task message has an empty shared key: " + body);
    }
  }
  return task;
}

std::string encode_monitor(const MonitorRecord& record) {
  const std::string secs = ppc::format_fixed(record.duration, 6);
  require_unreserved(record.status);
  require_unreserved(record.task_id);
  require_unreserved(record.worker_id);
  // "secs=<s>;status=<status>;task=<id>;worker=<worker>"
  std::string out;
  out.reserve(5 + secs.size() + 8 + record.status.size() + 6 + record.task_id.size() + 8 +
              record.worker_id.size());
  append_field(out, "secs", secs);
  append_field(out, "status", record.status);
  append_field(out, "task", record.task_id);
  append_field(out, "worker", record.worker_id);
  return out;
}

MonitorRecord decode_monitor(const std::string& body) {
  const auto kv = ppc::decode_kv(body);
  PPC_REQUIRE(kv.contains("task") && kv.contains("worker") && kv.contains("status"),
              "malformed monitor message: " + body);
  MonitorRecord r;
  r.task_id = kv.at("task");
  r.worker_id = kv.at("worker");
  r.status = kv.at("status");
  if (kv.contains("secs")) {
    const std::optional<double> secs = ppc::parse_finite(kv.at("secs"));
    PPC_REQUIRE(secs.has_value(), "monitor message has a bad secs value: " + body);
    r.duration = *secs;
  }
  return r;
}

}  // namespace ppc::classiccloud
