// shuffle_dedup: a dedup-shaped ShuffleJobRunner job with tight spill and
// sort budgets, checked against a std::sort + group-by reference.
#include <algorithm>
#include <memory>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "engines.h"
#include "inputs.h"
#include "mapreduce/shuffle_job.h"
#include "minihdfs/mini_hdfs.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSlots = 3;
constexpr int kReducers = 3;
constexpr int kFiles = 48;
constexpr int kReadsPerFile = 6000;
constexpr int kPool = 60000;

struct ShuffleRecord {
  bool traced = false;
  double wall = 0.0;
  double map_s = 0.0;
  double reduce_s = 0.0;
  double stage_s = 0.0;
  double cost = 0.0;
  ppc::storage::TransferMeter meter;
  ppc::mapreduce::ShuffleStats stats;
  // traced only
  JobLedger map_ledger;
  JobLedger reduce_ledger;
  double map_fn_s = 0.0;
  double reduce_fn_s = 0.0;
  double sort_self_s = 0.0;
};

double sum_of(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

/// Reduce-side time outside fetch, sort-run I/O and reduce_fn: for each
/// reduce thread, its first-to-last interval span minus the self time of
/// every interval inside it (decode, in-memory sort, merge, HDFS commit).
double sort_self_seconds(const std::vector<ThreadTrack>& tracks, double t0, double t1,
                         const JobLedger& ledger) {
  double envelope = 0.0;
  for (const ThreadTrack& track : tracks) {
    if (track.index == 0) continue;
    double first = t1, last = t0;
    for (const Event& e : track.events) {
      if (!e.closed() || e.start < t0 || e.end > t1) continue;
      first = std::min(first, e.start);
      last = std::max(last, e.end);
    }
    if (last > first) envelope += last - first;
  }
  double attributed = 0.0;
  for (const WorkerLedger& w : ledger.workers) attributed += w.attributed();
  return std::max(0.0, envelope - attributed);
}

}  // namespace

Outcome run_shuffle_dedup(const RunArgs& args) {
  Outcome out;
  std::vector<double> gen, t1_ref;
  std::string first_reference;
  std::size_t groups = 0;

  std::vector<ShuffleRecord> records;
  std::vector<double> spill_put, fetch_get, get_all, put_all;
  const double deadline = now_s() + args.seconds;
  const int min_rounds = args.trace ? 4 : 3;
  for (int round = 0; round < min_rounds || (now_s() < deadline && round < 1000); ++round) {
    const bool traced = args.trace && round % 2 == 1;

    // Set-up and the single-threaded reference pass, once per round.
    const double g0 = now_s();
    const DedupJob job = make_dedup_job(args.seed, kFiles, kReadsPerFile, kPool);
    gen.push_back(now_s() - g0);
    const double r0 = now_s();
    const std::string reference = dedup_reference(job, &groups);
    t1_ref.push_back(now_s() - r0);
    if (round == 0) {
      first_reference = reference;
    } else if (reference != first_reference) {
      out.fail("round " + std::to_string(round) + ": reference output differs from round 0");
    }

    Probe probe;
    probe.set_enabled(traced);
    Probe* p = traced ? &probe : nullptr;

    ShuffleRecord rec;
    rec.traced = traced;
    const double s0 = now_s();
    ppc::minihdfs::MiniHdfs hdfs(kSlots);
    std::vector<std::string> paths;
    for (const auto& [name, data] : job.files) {
      paths.push_back("/in/" + name);
      hdfs.write(paths.back(), data);
    }
    ppc::blobstore::BlobStore store(std::make_shared<ppc::SystemClock>());
    if (p != nullptr) store.set_tracer(p);

    ppc::mapreduce::ShuffleJobConfig jc;
    jc.num_nodes = kSlots;
    jc.slots_per_node = 1;
    jc.num_reducers = kReducers;
    jc.job_name = "dedup";
    jc.map_spill_budget = 64.0 * 1024;
    jc.sort_memory_budget = 1024.0 * 1024;
    // No speculative twins: spill and sort-run counts must repeat exactly.
    jc.scheduler.speculative_execution = false;
    jc.reduce_scheduler.speculative_execution = false;
    jc.spill_store = &store;
    double barrier = 0.0;
    jc.between_phases = [&barrier](ppc::mapreduce::ShuffleJobControl&) { barrier = now_s(); };
    const auto map_fn = [&job, p](const ppc::mapreduce::FileRecord& record,
                                  const std::string& contents,
                                  const ppc::mapreduce::EmitFn& emit) {
      Timed timed(p, Op::kMapFn);
      job.map(record, contents, emit);
    };
    const auto reduce_fn = [&job, p](const std::string& key,
                                     const std::vector<std::string>& values) {
      Timed timed(p, Op::kReduceFn);
      return job.reduce(key, values);
    };

    ppc::mapreduce::ShuffleJobRunner runner(hdfs);
    const ppc::storage::TransferMeter m0 = store.meter();
    const double t0 = now_s();
    rec.stage_s = t0 - s0;
    const auto result = runner.run(paths, map_fn, reduce_fn, jc);
    const double t1 = now_s();
    rec.wall = t1 - t0;
    rec.map_s = barrier - t0;
    rec.reduce_s = t1 - barrier;
    const auto m1 = store.meter();
    rec.meter.gets = m1.gets - m0.gets;
    rec.meter.puts = m1.puts - m0.puts;
    rec.meter.bytes_in = m1.bytes_in - m0.bytes_in;
    rec.meter.bytes_out = m1.bytes_out - m0.bytes_out;
    rec.stats = result.shuffle;
    rec.cost = core_seconds_cost(kSlots, rec.wall) + store.transfer_and_request_cost();

    const long long tasks = kFiles + kReducers;
    out.attempted += tasks;
    std::string canonical;
    if (result.succeeded) {
      canonical = ppc::mapreduce::encode_canonical(
          ppc::mapreduce::canonical_reduced_output(result, hdfs));
    }
    if (canonical != reference) {
      out.failed += tasks;
      out.fail("round " + std::to_string(round) +
               ": canonical shuffle output differs from the sort + group-by reference");
    }
    if (!records.empty() && (rec.stats.map_spills != records.front().stats.map_spills ||
                             rec.stats.sort_runs_spilled != records.front().stats.sort_runs_spilled ||
                             rec.meter.gets != records.front().meter.gets ||
                             rec.meter.puts != records.front().meter.puts)) {
      out.fail("round " + std::to_string(round) +
               ": spill / sort-run / storage request counts differ across reruns of the seed");
    }

    if (traced) {
      const auto tracks = probe.tracks();
      rec.map_ledger = build_ledger(tracks, t0, barrier, kSlots);
      rec.reduce_ledger = build_ledger(tracks, barrier, t1, kSlots);
      for (const JobLedger* l : {&rec.map_ledger, &rec.reduce_ledger}) {
        if (!l->closes()) {
          out.fail("shuffle ledger did not close: excess " + json_number(l->worst_excess()) +
                   ", nesting errors " + std::to_string(l->nesting_errors));
        }
      }
      // Self time: the spills a map's emit triggers are nested storage.
      rec.map_fn_s = rec.map_ledger.share(Layer::kCompute) * rec.map_ledger.total_wall();
      rec.reduce_fn_s = sum_of(durations(tracks, Op::kReduceFn, barrier, t1));
      rec.sort_self_s = sort_self_seconds(tracks, barrier, t1, rec.reduce_ledger);
      for (const ThreadTrack& track : tracks) {
        for (const Event& e : track.events) {
          if (!e.closed() || e.start < t0 || e.end > t1) continue;
          if (e.op == Op::kPut) {
            put_all.push_back(e.duration() * 1e3);
            if (!e.sort_run) spill_put.push_back(e.duration() * 1e3);
          } else if (e.op == Op::kGet) {
            get_all.push_back(e.duration() * 1e3);
            if (!e.sort_run) fetch_get.push_back(e.duration() * 1e3);
          }
        }
      }
    }
    records.push_back(std::move(rec));
  }

  auto pick = [&](bool traced, double ShuffleRecord::*field) {
    std::vector<double> v;
    for (const ShuffleRecord& r : records) {
      if (r.traced == traced) v.push_back(r.*field);
    }
    return v;
  };
  const auto untraced_walls = pick(false, &ShuffleRecord::wall);
  out.detail.summary("job_s", summarize(untraced_walls))
      .summary("t1_s", summarize(t1_ref))
      .integer("groups", static_cast<long long>(groups))
      .integer("rounds", static_cast<long long>(records.size()))
      .integer("map_spills", records.front().stats.map_spills)
      .integer("sort_runs", records.front().stats.sort_runs_spilled);

  if (!args.trace) {
    std::vector<double> byte_rate;
    for (const ShuffleRecord& r : records) {
      byte_rate.push_back((r.meter.bytes_in + r.meter.bytes_out) / 1e6 / r.wall);
    }
    out.add("tasks_per_s", (kFiles + kReducers) / median(untraced_walls), "1/s");
    out.add("job_s", median(untraced_walls), "s");
    out.add("parallel_eff", median(t1_ref) / (kSlots * median(untraced_walls)), "ratio");
    out.add("mb_per_s", median(byte_rate), "MB/s");
    out.add("sim_cost_usd", median(pick(false, &ShuffleRecord::cost)), "USD");
    out.add("setup_s", median(gen) + median(pick(false, &ShuffleRecord::stage_s)), "s");
    return out;
  }

  std::vector<const ShuffleRecord*> traced;
  for (const ShuffleRecord& r : records) {
    if (r.traced) traced.push_back(&r);
  }
  std::vector<double> imbalance, tail, overhead, amplification, sort_runs, gets, puts, mb_out;
  double wall = 0.0, compute = 0.0, storage = 0.0, bytes = 0.0;
  for (const ShuffleRecord* r : traced) {
    imbalance.push_back(r->map_ledger.imbalance());
    tail.push_back(r->map_ledger.idle_tail_frac());
    const double w = r->map_ledger.total_wall() + r->reduce_ledger.total_wall();
    overhead.push_back((r->map_ledger.overhead_share() * r->map_ledger.total_wall() +
                        r->reduce_ledger.overhead_share() * r->reduce_ledger.total_wall()) /
                       w);
    wall += w;
    for (const JobLedger* l : {&r->map_ledger, &r->reduce_ledger}) {
      compute += l->share(Layer::kCompute) * l->total_wall();
      storage += l->share(Layer::kStorage) * l->total_wall();
    }
    bytes += r->meter.bytes_in + r->meter.bytes_out;
    const auto& s = r->stats;
    amplification.push_back((s.map_spill_bytes + s.sort_run_bytes) / s.map_output_bytes);
    sort_runs.push_back(s.sort_runs_spilled);
    gets.push_back(static_cast<double>(r->meter.gets));
    puts.push_back(static_cast<double>(r->meter.puts));
    mb_out.push_back(r->meter.bytes_out / 1e6);
  }
  std::uint64_t buffer_bytes = 0, llc = 0;
  const double gbps = measure_fnv_gb_per_s(&buffer_bytes, &llc);

  out.add("apps.compute_share", compute / wall, "ratio");
  out.add("mapreduce.job_s", median(pick(true, &ShuffleRecord::wall)), "s");
  out.add("mapreduce.imbalance", median(imbalance), "ratio");
  out.add("mapreduce.idle_tail_frac", median(tail), "ratio");
  out.add("mapreduce.overhead_share", median(overhead), "ratio");
  out.add("storage.get_ms", median(get_all), "ms");
  out.add("storage.put_ms", median(put_all), "ms");
  out.add("storage.gets", median(gets), "count");
  out.add("storage.puts", median(puts), "count");
  out.add("storage.mb_out", median(mb_out), "MB");
  out.add("storage.busy_share", storage / wall, "ratio");
  out.add("common.fnv1a64.gb_per_s", gbps, "GB/s");
  out.add("storage.checksum_share", bytes / (gbps * 1e9) / wall, "ratio");
  out.add("mapreduce.shuffle.map_s", median(pick(true, &ShuffleRecord::map_s)), "s");
  out.add("mapreduce.shuffle.reduce_s", median(pick(true, &ShuffleRecord::reduce_s)), "s");
  out.add("mapreduce.shuffle.map_fn_s", median(pick(true, &ShuffleRecord::map_fn_s)), "s");
  out.add("mapreduce.shuffle.reduce_fn_s", median(pick(true, &ShuffleRecord::reduce_fn_s)),
          "s");
  out.add("mapreduce.shuffle.spill_put_ms", median(spill_put), "ms");
  out.add("mapreduce.shuffle.fetch_get_ms", median(fetch_get), "ms");
  out.add("mapreduce.shuffle.sort_self_s", median(pick(true, &ShuffleRecord::sort_self_s)),
          "s");
  out.add("mapreduce.shuffle.spill_amplification", median(amplification), "ratio");
  out.add("mapreduce.shuffle.sort_runs", median(sort_runs), "count");
  out.add("runtime.tracer.overhead_ratio",
          median(pick(true, &ShuffleRecord::wall)) / median(untraced_walls), "ratio");
  out.detail.summary("mapreduce.shuffle.spill_put_ms", summarize(spill_put))
      .summary("mapreduce.shuffle.fetch_get_ms", summarize(fetch_get))
      .str("storage.checksum_share", "computed: bytes through the spill store / fnv1a64 rate")
      .str("mapreduce.shuffle.map_fn_s",
           "self time of map_fn, including the writer's partition/encode work inside emit")
      .integer("common.fnv1a64.buffer_bytes", static_cast<long long>(buffer_bytes))
      .integer("common.fnv1a64.llc_bytes", static_cast<long long>(llc));
  return out;
}

}  // namespace perfbench
