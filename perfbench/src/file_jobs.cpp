// pp_apps_skewed and blast_db_refetch: one FileJob run round after round on
// a set of real-thread engines, checked against a single-threaded pass.
#include <algorithm>
#include <array>
#include <functional>
#include <map>

#include "engines.h"
#include "inputs.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct FileWorkloadSpec {
  std::vector<Engine> engines;
  bool block_cache = false;
};

struct JobRecord {
  Engine engine = Engine::kClassic;
  int round = 0;
  bool traced = false;
  double wall = 0.0;
  double cost = 0.0;
  double payload = 0.0;
  double stage_s = 0.0;
  long long tasks = 0;
  ppc::storage::TransferMeter meter;
  std::int64_t redeliveries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  JobLedger ledger;  // traced jobs only
};

/// Traced intervals pooled over every traced job.
struct LayerSamples {
  std::map<Op, std::vector<double>> compute;
  std::vector<double> get, put, cache_fill, queue;
  std::size_t receives = 0;
  std::size_t empty_receives = 0;

  void absorb(const std::vector<ThreadTrack>& tracks, double t0, double t1) {
    for (Op op : {Op::kCap3, Op::kBlast, Op::kGtm}) {
      auto d = durations(tracks, op, t0, t1);
      compute[op].insert(compute[op].end(), d.begin(), d.end());
    }
    auto append = [&](std::vector<double>& into, Op op) {
      const auto d = durations(tracks, op, t0, t1);
      into.insert(into.end(), d.begin(), d.end());
    };
    append(get, Op::kGet);
    append(put, Op::kPut);
    // A hit is a zero-length marker; a miss brackets the fill (HEAD, GET,
    // etag check, insert), which is the fetch a cache change would move.
    append(cache_fill, Op::kCacheMiss);
    append(queue, Op::kSend);
    append(queue, Op::kReceive);
    append(queue, Op::kDelete);
    empty_receives += count_ops(tracks, Op::kReceive, t0, t1, true);
    receives += count_ops(tracks, Op::kReceive, t0, t1, false) +
                count_ops(tracks, Op::kReceive, t0, t1, true);
  }
};

struct FileWorkloadRun {
  std::vector<JobRecord> jobs;
  LayerSamples layers;
  std::vector<double> t1;  // single-threaded reference pass per round, seconds
  double gen_s = 0.0;      // median input generation (+ index/model build)
  int rounds = 0;
};

bool uses_storage(Engine e) { return e == Engine::kClassic || e == Engine::kAzure; }

std::vector<const JobRecord*> select(const FileWorkloadRun& run, bool traced,
                                     const std::function<bool(const JobRecord&)>& keep) {
  std::vector<const JobRecord*> out;
  for (const JobRecord& j : run.jobs) {
    if (j.traced == traced && keep(j)) out.push_back(&j);
  }
  return out;
}

std::vector<double> walls_of(const std::vector<const JobRecord*>& jobs) {
  std::vector<double> w;
  for (const JobRecord* j : jobs) w.push_back(j->wall);
  return w;
}

/// Mean over engines of each engine's median job wall.
double job_s(const FileWorkloadRun& run, const FileWorkloadSpec& spec, bool traced) {
  std::vector<double> per_engine;
  for (Engine e : spec.engines) {
    per_engine.push_back(
        median(walls_of(select(run, traced, [e](const JobRecord& j) { return j.engine == e; }))));
  }
  return mean(per_engine);
}

FileWorkloadRun run_file_workload(const RunArgs& args, const FileWorkloadSpec& spec,
                                  const std::function<FileJob()>& generate, Outcome& out) {
  FileWorkloadRun run;
  std::vector<double> gen;
  std::vector<std::pair<std::string, std::string>> first_files;
  std::vector<std::string> first_reference;

  const double deadline = now_s() + args.seconds;
  const int min_rounds = args.trace ? 4 : 3;
  for (int round = 0; round < min_rounds || (now_s() < deadline && round < 1000); ++round) {
    const bool traced = args.trace && round % 2 == 1;

    // Set-up, once per round: inputs, BLAST index, GTM model. Staging into
    // each engine's store is timed per job below.
    const double g0 = now_s();
    const FileJob job = generate();
    gen.push_back(now_s() - g0);

    // Single-threaded reference pass, once per round so Eq 1's T1 is taken
    // under the same machine conditions as the round's jobs.
    std::vector<std::string> reference(job.files.size());
    const double r0 = now_s();
    for (std::size_t i = 0; i < job.files.size(); ++i) {
      reference[i] = job.fn(i, job.files[i].second);
    }
    const double t1 = now_s() - r0;

    if (round == 0) {
      first_files = job.files;
      first_reference = reference;
    } else if (job.files != first_files || reference != first_reference) {
      out.fail("round " + std::to_string(round) +
               ": inputs or reference outputs differ from round 0 for the same seed");
    }

    for (Engine engine : spec.engines) {
      Probe probe;
      probe.set_enabled(traced);
      EngineOptions opt;
      opt.block_cache = spec.block_cache && engine == Engine::kClassic;
      opt.probe = traced ? &probe : nullptr;
      const JobRun r = run_file_job(engine, job, opt);

      JobRecord rec;
      rec.engine = engine;
      rec.round = round;
      rec.traced = traced;
      rec.wall = r.wall();
      rec.cost = core_seconds_cost(kWorkers, r.wall()) + r.service_cost;
      rec.payload = r.payload_bytes;
      rec.stage_s = r.stage_s;
      rec.tasks = static_cast<long long>(job.files.size());
      rec.meter = r.meter;
      rec.redeliveries = r.redeliveries;
      rec.cache_hits = r.cache_hits;
      rec.cache_misses = r.cache_misses;

      const int bad = r.succeeded ? count_mismatches(job, r, reference)
                                  : static_cast<int>(job.files.size());
      out.attempted += rec.tasks;
      out.failed += bad;
      if (bad > 0) {
        out.fail(std::string(engine_name(engine)) + " round " + std::to_string(round) + ": " +
                 std::to_string(bad) + " outputs missing or differing from the reference");
      }
      if (traced) {
        const auto tracks = probe.tracks();
        rec.ledger = build_ledger(tracks, r.t0, r.t1, kWorkers);
        if (!rec.ledger.closes()) {
          out.fail(std::string(engine_name(engine)) + " ledger did not close: excess " +
                   json_number(rec.ledger.worst_excess()) + ", nesting errors " +
                   std::to_string(rec.ledger.nesting_errors) + ", open intervals " +
                   std::to_string(rec.ledger.open_intervals));
        }
        run.layers.absorb(tracks, r.t0, r.t1);
      }
      run.jobs.push_back(std::move(rec));
    }
    run.t1.push_back(t1);
    run.rounds = round + 1;
  }
  run.gen_s = median(gen);
  return run;
}

void emit_end_to_end(const FileWorkloadRun& run, const FileWorkloadSpec& spec, Outcome& out) {
  const auto untraced = select(run, false, [](const JobRecord&) { return true; });
  // Rates per round (its tasks and bytes over its summed job walls), then
  // the median round: one slow stretch of the machine moves one sample.
  std::map<int, std::array<double, 3>> per_round;  // wall, tasks, payload
  for (const JobRecord* j : untraced) {
    auto& r = per_round[j->round];
    r[0] += j->wall;
    r[1] += static_cast<double>(j->tasks);
    r[2] += j->payload;
  }
  std::vector<double> task_rate, byte_rate;
  for (const auto& [round, r] : per_round) {
    task_rate.push_back(r[1] / r[0]);
    byte_rate.push_back(r[2] / 1e6 / r[0]);
  }
  std::vector<double> eff, cost;
  double stage_sum = 0.0;
  JsonObject engines;
  for (Engine e : spec.engines) {
    const auto jobs = select(run, false, [e](const JobRecord& j) { return j.engine == e; });
    std::vector<double> c, s;
    for (const JobRecord* j : jobs) {
      c.push_back(j->cost);
      s.push_back(j->stage_s);
    }
    eff.push_back(median(run.t1) / (kWorkers * median(walls_of(jobs))));
    cost.push_back(median(c));
    stage_sum += median(s);
    JsonObject d;
    d.summary("job_s", summarize(walls_of(jobs))).num("parallel_eff", eff.back());
    engines.raw(engine_name(e), d.dump());
  }

  out.add("tasks_per_s", median(task_rate), "1/s");
  out.add("job_s", job_s(run, spec, false), "s");
  out.add("parallel_eff", mean(eff), "ratio");
  out.add("mb_per_s", median(byte_rate), "MB/s");
  out.add("sim_cost_usd", mean(cost), "USD");
  out.add("setup_s", run.gen_s + stage_sum, "s");
  out.detail.raw("engines", engines.dump())
      .summary("t1_s", summarize(run.t1))
      .integer("rounds", run.rounds)
      .integer("jobs_untraced", static_cast<long long>(untraced.size()));
}

void emit_per_layer(const FileWorkloadRun& run, const FileWorkloadSpec& spec, Outcome& out) {
  const auto traced = select(run, true, [](const JobRecord&) { return true; });
  const auto stored = select(run, true, [](const JobRecord& j) { return uses_storage(j.engine); });

  // apps
  const std::pair<Op, const char*> apps[] = {
      {Op::kCap3, "cap3"}, {Op::kBlast, "blast"}, {Op::kGtm, "gtm"}};
  for (const auto& [op, name] : apps) {
    const auto it = run.layers.compute.find(op);
    if (it == run.layers.compute.end() || it->second.empty()) continue;
    std::vector<double> ms;
    for (double s : it->second) ms.push_back(s * 1e3);
    out.add(std::string("apps.") + name + ".task_ms", median(ms), "ms");
    out.detail.summary(std::string("apps.") + name + ".task_ms", summarize(ms));
  }
  double wall = 0.0, compute = 0.0;
  for (const JobRecord* j : traced) {
    wall += j->ledger.total_wall();
    compute += j->ledger.share(Layer::kCompute) * j->ledger.total_wall();
  }
  out.add("apps.compute_share", compute / wall, "ratio");

  // engines
  for (Engine e : spec.engines) {
    const auto jobs = select(run, true, [e](const JobRecord& j) { return j.engine == e; });
    std::vector<double> imbalance, tail, overhead;
    for (const JobRecord* j : jobs) {
      imbalance.push_back(j->ledger.imbalance());
      tail.push_back(j->ledger.idle_tail_frac());
      overhead.push_back(j->ledger.overhead_share());
    }
    const std::string name = engine_name(e);
    out.add(name + ".job_s", median(walls_of(jobs)), "s");
    out.add(name + ".imbalance", median(imbalance), "ratio");
    out.add(name + ".idle_tail_frac", median(tail), "ratio");
    out.add(name + ".overhead_share", median(overhead), "ratio");
  }

  // storage and queue: the engines that use them
  if (!stored.empty()) {
    std::map<int, std::pair<double, double>> per_round_gets_puts;
    std::map<int, double> per_round_mb_out;
    double swall = 0.0, sstorage = 0.0, squeue = 0.0, bytes = 0.0;
    std::int64_t redeliveries = 0;
    std::uint64_t hits = 0, misses = 0;
    for (const JobRecord* j : stored) {
      per_round_gets_puts[j->round].first += static_cast<double>(j->meter.gets);
      per_round_gets_puts[j->round].second += static_cast<double>(j->meter.puts);
      per_round_mb_out[j->round] += j->meter.bytes_out / 1e6;
      const double w = j->ledger.total_wall();
      swall += w;
      sstorage += j->ledger.share(Layer::kStorage) * w;
      squeue += j->ledger.share(Layer::kQueue) * w;
      bytes += j->meter.bytes_in + j->meter.bytes_out;
      redeliveries += j->redeliveries;
      hits += j->cache_hits;
      misses += j->cache_misses;
    }
    std::vector<double> gets, puts, mb_out;
    for (const auto& [round, gp] : per_round_gets_puts) {
      gets.push_back(gp.first);
      puts.push_back(gp.second);
      mb_out.push_back(per_round_mb_out[round]);
    }
    std::vector<double> get_ms, put_ms, cache_us, queue_us;
    for (double s : run.layers.get) get_ms.push_back(s * 1e3);
    for (double s : run.layers.put) put_ms.push_back(s * 1e3);
    for (double s : run.layers.cache_fill) cache_us.push_back(s * 1e6);
    for (double s : run.layers.queue) queue_us.push_back(s * 1e6);

    std::uint64_t buffer_bytes = 0, llc = 0;
    const double gbps = measure_fnv_gb_per_s(&buffer_bytes, &llc);
    out.add("storage.get_ms", median(get_ms), "ms");
    out.add("storage.put_ms", median(put_ms), "ms");
    out.add("storage.gets", median(gets), "count");
    out.add("storage.puts", median(puts), "count");
    out.add("storage.mb_out", median(mb_out), "MB");
    out.add("storage.busy_share", sstorage / swall, "ratio");
    out.add("common.fnv1a64.gb_per_s", gbps, "GB/s");
    out.add("storage.checksum_share", bytes / (gbps * 1e9) / swall, "ratio");
    out.detail.summary("storage.get_ms", summarize(get_ms))
        .summary("storage.put_ms", summarize(put_ms))
        .str("storage.checksum_share", "computed: bytes through the store / fnv1a64 rate")
        .integer("common.fnv1a64.buffer_bytes", static_cast<long long>(buffer_bytes))
        .integer("common.fnv1a64.llc_bytes", static_cast<long long>(llc));
    if (spec.block_cache) {
      out.add("storage.block_cache.hit_ratio",
              hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses), "ratio");
      out.add("storage.block_cache.fetch_us", median(cache_us), "us");
      out.detail.summary("storage.block_cache.fetch_us", summarize(cache_us));
    }
    out.add("cloudq.op_us", median(queue_us), "us");
    out.add("cloudq.empty_receive_ratio",
            run.layers.receives == 0
                ? 0.0
                : double(run.layers.empty_receives) / double(run.layers.receives),
            "ratio");
    out.add("cloudq.busy_share", squeue / swall, "ratio");
    out.add("runtime.task_lifecycle.redeliveries", static_cast<double>(redeliveries), "count");
    out.detail.summary("cloudq.op_us", summarize(queue_us));
  }
  out.add("runtime.tracer.overhead_ratio", job_s(run, spec, true) / job_s(run, spec, false),
          "ratio");
  out.detail.integer("rounds", run.rounds)
      .integer("jobs_traced", static_cast<long long>(traced.size()));
}

void emit(const RunArgs& args, const FileWorkloadRun& run, const FileWorkloadSpec& spec,
          Outcome& out) {
  if (args.trace) {
    emit_per_layer(run, spec, out);
  } else {
    emit_end_to_end(run, spec, out);
  }
}

}  // namespace

Outcome run_pp_apps_skewed(const RunArgs& args) {
  Outcome out;
  FileWorkloadSpec spec;
  spec.engines = {Engine::kClassic, Engine::kAzure, Engine::kMapReduce, Engine::kDryad};
  spec.block_cache = true;
  const auto run = run_file_workload(args, spec, [&] { return make_mixed_job(args.seed, 48); },
                                     out);
  emit(args, run, spec, out);
  return out;
}

Outcome run_blast_db_refetch(const RunArgs& args) {
  Outcome out;
  FileWorkloadSpec spec;
  spec.engines = {Engine::kClassic, Engine::kAzure};
  spec.block_cache = false;
  const auto run = run_file_workload(
      args, spec, [&] { return make_blast_refetch_job(args.seed, 96, 10000); }, out);

  // GETs and PUTs of one job are a function of the inputs alone on these
  // cache-free paths: every rerun of the seed must repeat them exactly.
  for (Engine e : spec.engines) {
    const JobRecord* first = nullptr;
    for (const JobRecord& j : run.jobs) {
      if (j.engine != e) continue;
      if (first == nullptr) {
        first = &j;
      } else if (j.meter.gets != first->meter.gets || j.meter.puts != first->meter.puts) {
        out.fail(std::string(engine_name(e)) + ": storage gets/puts differ across reruns (" +
                 std::to_string(first->meter.gets) + "/" + std::to_string(first->meter.puts) +
                 " vs " + std::to_string(j.meter.gets) + "/" + std::to_string(j.meter.puts) +
                 ")");
      }
    }
  }
  emit(args, run, spec, out);
  return out;
}

}  // namespace perfbench
