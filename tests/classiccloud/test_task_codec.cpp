#include "classiccloud/task.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ppc::classiccloud {
namespace {

TEST(TaskCodec, RoundTrip) {
  TaskSpec task{"job1/f.fa", "input/f.fa", "output/f.fa", {}};
  const TaskSpec decoded = decode_task(encode_task(task));
  EXPECT_EQ(decoded.task_id, task.task_id);
  EXPECT_EQ(decoded.input_key, task.input_key);
  EXPECT_EQ(decoded.output_key, task.output_key);
}

TEST(TaskCodec, RoundTripsSharedKeys) {
  TaskSpec task{"job1/f.fa", "input/f.fa", "output/f.fa", {}};
  task.shared_keys = {"shared/nr.db", "shared/params.cfg"};
  const TaskSpec decoded = decode_task(encode_task(task));
  EXPECT_EQ(decoded.shared_keys, task.shared_keys);
  // Tasks without shared references stay shared-free after a round trip.
  EXPECT_TRUE(decode_task(encode_task(TaskSpec{"t", "i", "o", {}})).shared_keys.empty());
}

TEST(TaskCodec, RejectsEmptyFields) {
  EXPECT_THROW(encode_task(TaskSpec{"", "i", "o", {}}), ppc::InvalidArgument);
  EXPECT_THROW(encode_task(TaskSpec{"t", "", "o", {}}), ppc::InvalidArgument);
  EXPECT_THROW(encode_task(TaskSpec{"t", "i", "", {}}), ppc::InvalidArgument);
}

TEST(TaskCodec, RejectsMalformedMessages) {
  EXPECT_THROW(decode_task("gibberish"), ppc::InvalidArgument);
  EXPECT_THROW(decode_task("task=t"), ppc::InvalidArgument);  // missing keys
}

TEST(MonitorCodec, RoundTrip) {
  MonitorRecord record{"t1", "worker-3", "done", 12.5};
  const MonitorRecord decoded = decode_monitor(encode_monitor(record));
  EXPECT_EQ(decoded.task_id, "t1");
  EXPECT_EQ(decoded.worker_id, "worker-3");
  EXPECT_EQ(decoded.status, "done");
  EXPECT_NEAR(decoded.duration, 12.5, 1e-6);
}

TEST(MonitorCodec, RejectsMalformed) {
  EXPECT_THROW(decode_monitor("task=t"), ppc::InvalidArgument);
}

// Queue bodies are metered and replayed byte for byte, so the wire format
// itself is pinned: keys in sorted order, ';'-separated, fixed 6-digit secs.
TEST(TaskCodec, GoldenBytes) {
  EXPECT_EQ(encode_task(TaskSpec{"job1/f.fa", "input/f.fa", "output/f.fa", {}}),
            "in=input/f.fa;out=output/f.fa;task=job1/f.fa");
  EXPECT_EQ(encode_task(TaskSpec{"job1/f.fa", "input/f.fa", "output/f.fa",
                                 {"shared/nr.db", "shared/params.cfg"}}),
            "in=input/f.fa;out=output/f.fa;shared=shared/nr.db,shared/params.cfg;"
            "task=job1/f.fa");
}

TEST(MonitorCodec, GoldenBytes) {
  EXPECT_EQ(encode_monitor(MonitorRecord{"t1", "worker-3", "done", 12.5}),
            "secs=12.500000;status=done;task=t1;worker=worker-3");
  EXPECT_EQ(encode_monitor(MonitorRecord{"cap3/f-0007.fa", "w0", "failed", 0.0000004}),
            "secs=0.000000;status=failed;task=cap3/f-0007.fa;worker=w0");
}

TEST(TaskCodec, MessageIsCompactEnoughForSqs) {
  // SQS limits message bodies (8 KB in 2010); our tasks are far below it.
  TaskSpec task{"job/file-with-long-name.fasta", "input/file-with-long-name.fasta",
                "output/file-with-long-name.fasta", {}};
  EXPECT_LT(encode_task(task).size(), 256u);
}

}  // namespace
}  // namespace ppc::classiccloud
