#include "classiccloud/task.h"

#include <optional>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::classiccloud {

std::string encode_task(const TaskSpec& task) {
  PPC_REQUIRE(!task.task_id.empty(), "task_id must be non-empty");
  PPC_REQUIRE(!task.input_key.empty() && !task.output_key.empty(),
              "task must name input and output blobs");
  std::map<std::string, std::string> kv = {
      {"task", task.task_id}, {"in", task.input_key}, {"out", task.output_key}};
  if (!task.shared_keys.empty()) {
    std::string joined;
    for (const std::string& key : task.shared_keys) {
      PPC_REQUIRE(!key.empty() && key.find(',') == std::string::npos,
                  "shared key must be non-empty and comma-free: " + key);
      if (!joined.empty()) joined += ',';
      joined += key;
    }
    kv.emplace("shared", joined);
  }
  return ppc::encode_kv(kv);
}

TaskSpec decode_task(const std::string& body) {
  const auto kv = ppc::decode_kv(body);
  PPC_REQUIRE(kv.contains("task") && kv.contains("in") && kv.contains("out"),
              "malformed task message: " + body);
  TaskSpec task{kv.at("task"), kv.at("in"), kv.at("out"), {}};
  PPC_REQUIRE(!task.task_id.empty() && !task.input_key.empty() && !task.output_key.empty(),
              "task message has an empty field: " + body);
  if (kv.contains("shared")) {
    task.shared_keys = ppc::split(kv.at("shared"), ',');
    for (const std::string& key : task.shared_keys) {
      PPC_REQUIRE(!key.empty(), "task message has an empty shared key: " + body);
    }
  }
  return task;
}

std::string encode_monitor(const MonitorRecord& record) {
  return ppc::encode_kv({{"task", record.task_id},
                         {"worker", record.worker_id},
                         {"status", record.status},
                         {"secs", ppc::format_fixed(record.duration, 6)}});
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
