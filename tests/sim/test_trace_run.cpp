// End-to-end traced runs: the same job on each substrate must come back
// with a Perfetto-loadable Chrome trace, a per-task summary, and a load
// report — the artifacts `ppcloud trace` prints and the load-imbalance
// comparison is built from.
#include "sim/trace_run.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine_run.h"

namespace ppc::sim {
namespace {

/// `ppcloud trace --files 6 --workers 2 --skew S` on `substrate`.
RunReport traced_run(const std::string& substrate, double skew) {
  EngineRunSpec spec;
  spec.substrate = substrate;
  spec.job = "trace";
  spec.num_workers = 2;
  spec.trace = true;
  return run_engine(spec, make_app_job("cap3", 6, skew));
}

class TraceRun : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceRun, ProducesTraceSummaryAndLoadReport) {
  const RunReport report = traced_run(GetParam(), 2.0);
  const std::string text = trace_text(report, GetParam(), "cap3");
  EXPECT_TRUE(report.succeeded) << text;
  EXPECT_EQ(report.outputs.size(), 6u);
  EXPECT_GT(report.spans, 0u);

  // Chrome trace_event shape: an event array plus track-naming metadata.
  EXPECT_NE(report.chrome_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(report.chrome_json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(report.chrome_json.find("\"ph\":\"X\""), std::string::npos);

  // Every worker that ran tasks shows up in the load report.
  EXPECT_GE(report.load.workers.size(), 1u);
  EXPECT_GT(report.load.makespan, 0.0);
  EXPECT_GE(report.load.imbalance, 1.0);
  int tasks = 0;
  for (const auto& w : report.load.workers) tasks += w.tasks;
  EXPECT_GE(tasks, 1);

  EXPECT_FALSE(report.summary_table.empty());
  EXPECT_NE(text.find(GetParam()), std::string::npos);
  EXPECT_NE(text.find("OK"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Substrates, TraceRun,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce", "dryad"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(TraceRunComparison, TableCoversEveryReport) {
  const std::vector<std::string> substrates = {"mapreduce", "dryad"};
  std::vector<RunReport> reports;
  for (const std::string& substrate : substrates) {
    reports.push_back(traced_run(substrate, 3.0));
    ASSERT_TRUE(reports.back().succeeded) << trace_text(reports.back(), substrate, "cap3");
  }
  const std::string table = imbalance_comparison(substrates, reports);
  EXPECT_NE(table.find("mapreduce"), std::string::npos);
  EXPECT_NE(table.find("dryad"), std::string::npos);
  EXPECT_NE(table.find("imbalance"), std::string::npos);
  EXPECT_NE(table.find("worst-idle-tail"), std::string::npos);
}

}  // namespace
}  // namespace ppc::sim
