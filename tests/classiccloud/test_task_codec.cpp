#include "classiccloud/task.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"

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

// Every malformed secs value is a ppc::InvalidArgument, not a std::stod
// exception, and the whole value must parse to a finite number.
TEST(MonitorCodec, RejectsNonNumericSecs) {
  EXPECT_THROW(decode_monitor("task=t1;worker=w;status=done;secs=abc"), ppc::InvalidArgument);
}

TEST(MonitorCodec, RejectsOverflowingSecs) {
  EXPECT_THROW(decode_monitor("task=t1;worker=w;status=done;secs=1e999"), ppc::InvalidArgument);
}

TEST(MonitorCodec, RejectsTrailingBytesAfterSecs) {
  EXPECT_THROW(decode_monitor("task=t1;worker=w;status=done;secs=1.5junk"),
               ppc::InvalidArgument);
}

TEST(MonitorCodec, RejectsNanSecs) {
  EXPECT_THROW(decode_monitor("task=t1;worker=w;status=done;secs=nan"), ppc::InvalidArgument);
}

// The decoder rejects the empty fields encode_task refuses to write.
TEST(TaskCodec, RejectsEmptyTaskId) {
  EXPECT_THROW(decode_task("task=;in=a;out=b"), ppc::InvalidArgument);
}

TEST(TaskCodec, RejectsEmptySharedKeys) {
  EXPECT_THROW(decode_task("in=a;out=b;shared=,;task=t"), ppc::InvalidArgument);
}

// encode_kv never writes a '=' inside a value or a key twice.
TEST(TaskCodec, RejectsEqualsSignInValue) {
  EXPECT_THROW(decode_task("in=a;out=b;task=t=u"), ppc::InvalidArgument);
}

TEST(TaskCodec, RejectsRepeatedKey) {
  EXPECT_THROW(decode_task("in=a;out=b;task=t;task=u"), ppc::InvalidArgument);
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

// -- Equivalence with the ppc::encode_kv/decode_kv codec -------------------
//
// The codecs write and scan their fields directly. These references are the
// std::map-based versions they replaced; the wire bytes, the accepted set and
// the error texts must stay theirs.

std::string reference_encode_task(const TaskSpec& task) {
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

TaskSpec reference_decode_task(const std::string& body) {
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

std::string reference_encode_monitor(const MonitorRecord& record) {
  return ppc::encode_kv({{"task", record.task_id},
                         {"worker", record.worker_id},
                         {"status", record.status},
                         {"secs", ppc::format_fixed(record.duration, 6)}});
}

/// What a call did: its result, or the message of the InvalidArgument it
/// threw (without the check's expression and source line).
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;
};

template <typename Fn>
auto outcome_of(Fn&& fn) -> Outcome<decltype(fn())> {
  Outcome<decltype(fn())> out;
  try {
    out.value = fn();
  } catch (const ppc::InvalidArgument& e) {
    const std::string what = e.what();
    const std::size_t dash = what.find(" \u2014 ");
    out.error = dash == std::string::npos ? what : what.substr(dash);
  }
  return out;
}

/// A short random string over `alphabet`; sometimes empty when `may_be_empty`.
std::string random_text(Rng& rng, const std::string& alphabet, bool may_be_empty) {
  const auto n = rng.uniform_int(may_be_empty ? 0 : 1, 12);
  std::string out;
  for (std::int64_t i = 0; i < n; ++i) out += alphabet[rng.index(alphabet.size())];
  return out;
}

// Mostly valid text; one draw in 20 may also hold '=' or ';' or be empty.
std::string random_field(Rng& rng, bool allow_comma) {
  const std::string safe = allow_comma ? "abcXYZ019/._-," : "abcXYZ019/._-";
  return rng.bernoulli(0.05) ? random_text(rng, safe + "=;", true)
                             : random_text(rng, safe, false);
}

TEST(TaskCodec, EncodeMatchesTheKvCodecOnRandomSpecs) {
  Rng rng(20100621);
  int encoded = 0;
  for (int i = 0; i < 2000; ++i) {
    TaskSpec task{random_field(rng, true), random_field(rng, true), random_field(rng, true), {}};
    const auto shared = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < shared; ++k) {
      task.shared_keys.push_back(random_field(rng, rng.bernoulli(0.05)));
    }
    const auto got = outcome_of([&] { return encode_task(task); });
    const auto want = outcome_of([&] { return reference_encode_task(task); });
    ASSERT_EQ(got.value, want.value) << "spec " << i;
    ASSERT_EQ(got.error, want.error) << "spec " << i;
    if (got.value) {
      ++encoded;
      // What the encoder writes decodes back to the spec.
      const TaskSpec back = decode_task(*got.value);
      EXPECT_EQ(back.task_id, task.task_id);
      EXPECT_EQ(back.input_key, task.input_key);
      EXPECT_EQ(back.output_key, task.output_key);
      EXPECT_EQ(back.shared_keys, task.shared_keys);
    }
  }
  EXPECT_GT(encoded, 1000);  // most specs are valid
}

TEST(MonitorCodec, EncodeMatchesTheKvCodecOnRandomRecords) {
  Rng rng(20100622);
  for (int i = 0; i < 2000; ++i) {
    MonitorRecord record{random_field(rng, true), random_field(rng, true),
                         rng.bernoulli(0.5) ? "done" : random_field(rng, true),
                         rng.bernoulli(0.1) ? rng.uniform(-1e9, 1e9) : rng.exponential(100.0)};
    const auto got = outcome_of([&] { return encode_monitor(record); });
    const auto want = outcome_of([&] { return reference_encode_monitor(record); });
    ASSERT_EQ(got.value, want.value) << "record " << i;
    ASSERT_EQ(got.error, want.error) << "record " << i;
  }
}

void expect_same_decode(const std::string& body) {
  const auto got = outcome_of([&] { return decode_task(body); });
  const auto want = outcome_of([&] { return reference_decode_task(body); });
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << "body '" << body << "'";
  EXPECT_EQ(got.error, want.error) << "body '" << body << "'";
  if (got.value) {
    EXPECT_EQ(got.value->task_id, want.value->task_id) << "body '" << body << "'";
    EXPECT_EQ(got.value->input_key, want.value->input_key) << "body '" << body << "'";
    EXPECT_EQ(got.value->output_key, want.value->output_key) << "body '" << body << "'";
    EXPECT_EQ(got.value->shared_keys, want.value->shared_keys) << "body '" << body << "'";
  }
}

TEST(TaskCodec, DecodeMatchesTheKvCodecOnHostileBodies) {
  for (const std::string body : {
           "",
           "in=a;out=b;task=t",
           "task=t;out=b;in=a",                       // any field order
           "in=a;out=b;task=t;extra=1",               // an unknown key
           "in=a;out=b;task=t;extra=1;extra=2",       // a repeated unknown key
           "in=a;in=a;out=b;task=t",                  // a repeated known key
           "in=a;out=b;task=t;shared=s;shared=s",     // a repeated shared field
           "in=a;out=b;task",                         // a missing '='
           "in=a;out=b;task==t",                      // a double '='
           "in=a=;out=b;task=t",
           "=;in=a;out=b;task=t",                     // an empty key
           "=a;in=a;out=b;task=t",
           "in=;out=b;task=t",                        // empty fields
           "in=a;out=;task=t",
           "in=a;out=b;task=",
           "in=a;;out=b;task=t",                      // ';;'
           "in=a;out=b;task=t;",                      // a trailing ';'
           ";in=a;out=b;task=t",                      // a leading ';'
           ";",
           "=",
           "in=a;out=b",                              // a missing field
           "in=a;out=b;task=t;shared=",               // empty shared keys
           "in=a;out=b;task=t;shared=,",
           "in=a;out=b;task=t;shared=x,",
           "in=a;out=b;task=t;shared=,x",
           "in=a;out=b;task=t;shared=x,,y",
           "in=a;out=b;task=t;shared=x,y",
           "IN=a;out=b;task=t",                       // keys are case-sensitive
           "in =a;out=b;task=t",                      // and not trimmed
           "in=a;out=b;task=t;in=a",
       }) {
    expect_same_decode(body);
  }
}

TEST(TaskCodec, DecodeMatchesTheKvCodecOnRandomBodies) {
  // Bodies spliced from field-shaped tokens, so most are near-misses of a
  // valid message rather than noise the first check rejects.
  const std::vector<std::string> tokens = {"task", "in", "out", "shared", "x", "y,z", ",",
                                           "=",    ";",  "=",   ";",      "",  "extra"};
  Rng rng(20100623);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string body;
    const auto n = rng.uniform_int(0, 16);
    for (std::int64_t t = 0; t < n; ++t) body += tokens[rng.index(tokens.size())];
    if (rng.bernoulli(0.5)) body = "in=a;out=b;task=t;" + body;
    const auto got = outcome_of([&] { return decode_task(body); });
    if (got.value) ++accepted;
    expect_same_decode(body);
  }
  EXPECT_GT(accepted, 0);
}

TEST(TaskCodec, MessageIsCompactEnoughForSqs) {
  // SQS limits message bodies (8 KB in 2010); our tasks are far below it.
  TaskSpec task{"job/file-with-long-name.fasta", "input/file-with-long-name.fasta",
                "output/file-with-long-name.fasta", {}};
  EXPECT_LT(encode_task(task).size(), 256u);
}

}  // namespace
}  // namespace ppc::classiccloud
