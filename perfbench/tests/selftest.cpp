// The benchmark's own tests: the per-worker ledger closes (and catches what
// should keep it from closing), and counts that must repeat for a seed do.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engines.h"
#include "inputs.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

Event interval(Op op, double start, double end) {
  Event e;
  e.op = op;
  e.start = start;
  e.end = end;
  return e;
}

ThreadTrack worker(std::vector<Event> events) {
  ThreadTrack t;
  t.index = 1;
  t.events = std::move(events);
  return t;
}

TEST(Ledger, NestedIntervalsCloseWithSelfTimes) {
  // compute [0.1, 0.5] with a nested storage get [0.2, 0.3]; a queue op
  // [0.6, 0.7]; the rest of the 1 s window is engine overhead.
  const auto track = worker({interval(Op::kCap3, 0.1, 0.5), interval(Op::kGet, 0.2, 0.3),
                             interval(Op::kSend, 0.6, 0.7)});
  const JobLedger ledger = build_ledger({track}, 0.0, 1.0, 2);
  ASSERT_EQ(ledger.workers.size(), 2u);  // one idle row pads to two workers
  const WorkerLedger& w = ledger.workers[0];
  EXPECT_NEAR(w.compute, 0.3, 1e-12);
  EXPECT_NEAR(w.storage, 0.1, 1e-12);
  EXPECT_NEAR(w.queue, 0.1, 1e-12);
  EXPECT_NEAR(w.overhead(), 0.5, 1e-12);
  EXPECT_NEAR(w.compute + w.storage + w.queue + w.overhead(), w.wall, 1e-12);
  EXPECT_TRUE(ledger.closes());
  EXPECT_NEAR(ledger.idle_tail_frac(), 1.0, 1e-12);  // the idle worker
}

TEST(Ledger, CrossingIntervalsDoNotClose) {
  // A storage op that starts inside compute but ends after it would be
  // counted twice; the ledger must refuse it.
  const auto track = worker({interval(Op::kCap3, 0.1, 0.5), interval(Op::kGet, 0.4, 0.6)});
  const JobLedger ledger = build_ledger({track}, 0.0, 1.0, 1);
  EXPECT_EQ(ledger.nesting_errors, 1);
  EXPECT_FALSE(ledger.closes());
}

TEST(Ledger, OpenIntervalDoesNotClose) {
  Event open = interval(Op::kGet, 0.2, 0.0);
  open.end = -1.0;
  const JobLedger ledger = build_ledger({worker({open})}, 0.0, 1.0, 1);
  EXPECT_EQ(ledger.open_intervals, 1);
  EXPECT_FALSE(ledger.closes());
}

TEST(Ledger, CoordinatorIsNotAWorkerAndWindowClips) {
  ThreadTrack coordinator;
  coordinator.index = 0;
  coordinator.events = {interval(Op::kReceive, 0.0, 1.0)};
  const auto track = worker({interval(Op::kGtm, -0.5, 0.25), interval(Op::kPut, 0.9, 1.5)});
  const JobLedger ledger = build_ledger({coordinator, track}, 0.0, 1.0, 1);
  ASSERT_EQ(ledger.workers.size(), 1u);
  EXPECT_NEAR(ledger.workers[0].compute, 0.25, 1e-12);
  EXPECT_NEAR(ledger.workers[0].storage, 0.1, 1e-12);
  EXPECT_TRUE(ledger.closes());
}

TEST(Probe, RecordsEachThreadOnItsOwnTrack) {
  Probe probe;
  probe.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&probe] {
      for (int i = 0; i < 50; ++i) {
        Timed compute(&probe, Op::kBlast);
        probe.op_end(probe.op_begin("blobstore.job.get", "input/x"), false);
        probe.op_cancel(probe.op_begin("cloudq.q-tasks.receive", ""));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto tracks = probe.tracks();
  ASSERT_EQ(tracks.size(), 4u);  // the coordinator plus three workers
  EXPECT_TRUE(tracks[0].events.empty());
  for (std::size_t i = 1; i < tracks.size(); ++i) EXPECT_EQ(tracks[i].events.size(), 150u);
  EXPECT_EQ(count_ops(tracks, Op::kReceive, 0.0, 1e12, true), 150u);
  EXPECT_TRUE(build_ledger(tracks, 0.0, now_s() + 1.0, 3).closes());
}

TEST(Probe, DisabledProbeRecordsNothing) {
  Probe probe;
  EXPECT_EQ(probe.op_begin("blobstore.job.put", "k"), 0u);
  EXPECT_EQ(probe.begin(Op::kCap3), 0u);
  EXPECT_TRUE(probe.tracks()[0].events.empty());
}

TEST(SiteNames, ClassifyIntoLayers) {
  EXPECT_EQ(op_of_site("blobstore.job.get"), Op::kGet);
  EXPECT_EQ(op_of_site("blobstore.shuffle.put"), Op::kPut);
  EXPECT_EQ(op_of_site("cloudq.bench-cc-tasks.delete"), Op::kDelete);
  EXPECT_EQ(op_of_site("cache.job.miss"), Op::kCacheMiss);
  EXPECT_EQ(layer_of(Op::kCacheHit), Layer::kStorage);
  EXPECT_EQ(layer_of(Op::kReceive), Layer::kQueue);
  EXPECT_EQ(layer_of(Op::kReduceFn), Layer::kCompute);
}

TEST(Engines, TracedJobsCloseTheirLedgerOnEveryEngine) {
  const FileJob job = make_mixed_job(11, 9);
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < job.files.size(); ++i) {
    reference.push_back(job.fn(i, job.files[i].second));
  }
  for (Engine engine : {Engine::kClassic, Engine::kAzure, Engine::kMapReduce, Engine::kDryad}) {
    Probe probe;
    probe.set_enabled(true);
    EngineOptions opt;
    opt.block_cache = engine == Engine::kClassic;
    opt.probe = &probe;
    const JobRun run = run_file_job(engine, job, opt);
    ASSERT_TRUE(run.succeeded) << engine_name(engine);
    EXPECT_EQ(count_mismatches(job, run, reference), 0) << engine_name(engine);
    const JobLedger ledger = build_ledger(probe.tracks(), run.t0, run.t1, kWorkers);
    EXPECT_TRUE(ledger.closes()) << engine_name(engine) << " excess " << ledger.worst_excess();
    EXPECT_GT(ledger.share(Layer::kCompute), 0.0) << engine_name(engine);
  }
}

TEST(Repeatability, StorageRequestsRepeatForOneSeed) {
  const FileJob job = make_blast_refetch_job(5, 12, 400);
  for (Engine engine : {Engine::kClassic, Engine::kAzure}) {
    const JobRun a = run_file_job(engine, job, EngineOptions{});
    const JobRun b = run_file_job(engine, job, EngineOptions{});
    ASSERT_TRUE(a.succeeded && b.succeeded);
    EXPECT_EQ(a.meter.gets, b.meter.gets) << engine_name(engine);
    EXPECT_EQ(a.meter.puts, b.meter.puts) << engine_name(engine);
    EXPECT_GE(a.meter.gets, 2u * job.files.size()) << "every task fetches input and DB";
  }
}

TEST(Repeatability, ShuffleAndCampaignCountsRepeatWithinARun) {
  // Both workloads compare spill, sort-run, request and bill counts across
  // their rounds and report any drift as a problem.
  RunArgs args;
  args.seed = 3;
  args.seconds = 0.01;  // just the minimum rounds
  for (auto* run : {run_shuffle_dedup, run_des_campaign}) {
    const Outcome out = run(args);
    EXPECT_TRUE(out.problems.empty()) << (out.problems.empty() ? "" : out.problems.front());
    EXPECT_GT(out.attempted, 0);
    EXPECT_EQ(out.failed, 0);
  }
}

}  // namespace
}  // namespace perfbench
