#include "core/drivers.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "classiccloud/task.h"
#include "classiccloud/worker.h"
#include "cloud/autoscaler.h"
#include "cloud/fleet.h"
#include "common/error.h"
#include "dryad/file_share.h"
#include "dryad/partitioned_table.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "minihdfs/mini_hdfs.h"
#include "sim/simulator.h"
#include "storage/block_cache.h"
#include "storage/fs_backends.h"

namespace ppc::core {

namespace {

std::string input_key(const SimTask& t) { return "input/t" + std::to_string(t.id); }
std::string output_key(const SimTask& t) { return "output/t" + std::to_string(t.id); }

// Calibration constants of the DES drivers (DESIGN.md §6).
constexpr Seconds kQueueOpLatency = 0.03;  // one queue API round trip
// Idle-worker re-poll; empty polls double it up to the cap (reset on a
// delivery), which keeps SQS request charges down while tasks run elsewhere.
constexpr Seconds kPollInterval = 1.0, kPollIntervalMax = 16.0;
constexpr Seconds kAutoscaleInterval = 30.0;  // autoscaler decision + revocation-site period
constexpr Seconds kHeartbeatInterval = 3.0;   // TaskTracker heartbeat: idle re-poll, node site
constexpr Seconds kTaskStartupOverhead = 1.0;  // per-attempt launch (Hadoop 0.20 task JVM)
constexpr Seconds kVertexStartupOverhead = 0.3;  // per-vertex launch (Dryad)

/// Recurring Monitor tick on the simulation clock. Parasitic: it reschedules
/// only while the sim holds other pending events (events_pending() excludes
/// the tick currently executing), so the chain ends on its own when the run
/// drains — including stranded runs that never set a done flag. The final
/// tick therefore samples the drained end state (queue depth 0).
void monitor_tick(sim::Simulator& sim, runtime::Monitor& monitor) {
  monitor.sample_at(sim.now());
  if (sim.events_pending() == 0) return;
  sim.after(monitor.config().period,
            [&sim, &monitor] { monitor_tick(sim, monitor); });
}

/// What every DES driver holds and does alike: the simulator and the run's
/// inputs, the provider run factor, the execution-time draw, the monitor
/// tick, and the head and tail of the RunResult.
struct DesRun {
  sim::Simulator sim;
  const Workload& workload;
  const Deployment& d;
  const ExecutionModel& model;
  const SimRunParams& params;

  double run_factor = 1.0;
  int duplicate_executions = 0;
  Seconds makespan = 0.0;
  ppc::SampleSet exec_times;
  std::vector<TaskTraceEntry> trace;

  DesRun(const Workload& w, const Deployment& dep, const ExecutionModel& m, const SimRunParams& p)
      : workload(w), d(dep), model(m), params(p) {}
  // Scheduled events capture `this`.
  DesRun(const DesRun&) = delete;
  DesRun& operator=(const DesRun&) = delete;

  void draw_run_factor(ppc::Rng& rng) {
    run_factor = params.provider_variability ? model.sample_run_factor(d.type.provider, rng) : 1.0;
  }

  /// One execution time: the model's sample scaled by the run factor, times
  /// the straggler factor when the straggler draw hits.
  Seconds sample_exec(const SimTask& task, ppc::Rng& rng) const {
    const Seconds ex = model.sample(task, d, rng) * run_factor;
    if (params.straggler_prob > 0.0 && rng.bernoulli(params.straggler_prob)) {
      return ex * params.straggler_factor;
    }
    return ex;
  }

  /// What one firing of a fault site means in simulated time. The decision
  /// is the real engines' own (FaultInjector::decide, the same per-site
  /// rule streams); only its interpretation differs: nothing sleeps and
  /// nothing throws. With no injector attached nothing fires.
  struct SiteFault {
    bool failed = false;    // crash, error or revoke_spot: the attempt fails
    Seconds delay = 0.0;    // delay rules: simulated seconds added to the attempt
    Seconds notice = -1.0;  // a revoke_spot rule's notice window; < 0 = none
  };
  SiteFault fire_site(const std::string& site) const {
    if (params.faults == nullptr) return {};
    const runtime::FaultInjector::Outcome out = params.faults->decide(site);
    return {out.crash || out.error, out.delay, out.revoke ? out.revoke_notice : -1.0};
  }

  /// Schedules the first monitor tick; call after the start events so the
  /// first tick sees a non-empty event queue and the chain takes hold.
  void start_monitor_tick() {
    sim.at(0.0, [this] { monitor_tick(sim, *params.monitor); });
  }

  RunResult result_head(std::string framework, int completed) {
    RunResult r;
    r.framework = std::move(framework);
    r.deployment_label = d.label;
    r.makespan = makespan;
    r.tasks = static_cast<int>(workload.size());
    r.completed = completed;
    r.duplicate_executions = duplicate_executions;
    r.exec_times = exec_times;
    r.trace = std::move(trace);
    return r;
  }

  /// Eq 1 / Eq 2, and the registry when SimRunParams::metrics is set.
  RunResult finish(RunResult r) const {
    finalize_metrics(r, workload, d, model);
    if (params.metrics != nullptr) publish_run_metrics(r, *params.metrics);
    return r;
  }
};

/// The two slot drivers (MapReduce, Dryad): one RNG stream per slot, an
/// optional input-staging data plane, the slot launch and the common probes.
struct SlotSim : DesRun {
  std::vector<ppc::Rng> slot_rng;
  /// Input-staging data plane; null unless SimRunParams::stage_inputs.
  std::unique_ptr<storage::StorageBackend> stage_store;
  ppc::Rng stage_rng;

  int completed = 0;
  int busy_slots = 0;  // slots with an attempt in flight

  using DesRun::DesRun;

  /// A slot's scheduling loop, entered once its node has launched.
  virtual void request(int node, int slot) = 0;

  /// One stream per slot, then the run factor.
  void split_slot_streams(ppc::Rng& rng) {
    const int slots = d.total_workers();
    slot_rng.reserve(static_cast<std::size_t>(slots));
    for (int i = 0; i < slots; ++i) slot_rng.push_back(rng.split());
    draw_run_factor(rng);
  }

  /// Extra splits sit after every baseline draw, so runs without staging
  /// consume the identical random stream as before.
  void open_stage_store(ppc::Rng& rng) {
    if (!params.stage_inputs) return;
    stage_store = storage::make_backend(params.storage, sim.clock(), rng.split());
    stage_rng = rng.split();
  }

  /// Starts every slot of `node` after a uniform [0, jitter) delay.
  void launch_node(int node, Seconds jitter) {
    for (int s = 0; s < d.workers_per_instance; ++s) {
      const int slot = node * d.workers_per_instance + s;
      sim.after(slot_rng[static_cast<std::size_t>(slot)].uniform(0.0, jitter),
                [this, node, slot] { request(node, slot); });
    }
  }

  /// Launches every node. With staging, each node first pulls
  /// `node_bytes(node)` as object `<key_prefix><node>` from the stage store;
  /// all nodes pull concurrently, so the backend's contention model shapes
  /// the staging phase.
  void stage_and_launch(Seconds jitter, const std::string& key_prefix,
                        const std::function<Bytes(int)>& node_bytes) {
    if (stage_store == nullptr) {
      for (int node = 0; node < d.instances; ++node) launch_node(node, jitter);
      return;
    }
    stage_store->create_bucket("stage");
    for (int node = 0; node < d.instances; ++node) {
      stage_store->put_logical("stage", key_prefix + std::to_string(node), node_bytes(node));
    }
    for (int node = 0; node < d.instances; ++node) stage_store->begin_transfer();
    for (int node = 0; node < d.instances; ++node) {
      const Seconds t = stage_store->sample_get_time(node_bytes(node), stage_rng);
      sim.after(t, [this, node, jitter, key_prefix] {
        stage_store->end_transfer();
        (void)stage_store->get("stage", key_prefix + std::to_string(node));  // meters
        launch_node(node, jitter);
      });
    }
  }

  /// Attaches SimRunParams::monitor, if any: the shared probes around the
  /// driver's own backlog depth and idle-with-backlog count, then the tick.
  void attach_monitor(std::function<double()> depth, std::function<double()> idle_with_backlog) {
    if (params.monitor == nullptr) return;
    runtime::Monitor& mon = *params.monitor;
    using runtime::ProbeKind;
    mon.add_probe("queue.tasks.depth", ProbeKind::kLevel, std::move(depth));
    mon.add_probe("queue.tasks.inflight", ProbeKind::kLevel,
                  [this] { return static_cast<double>(busy_slots); });
    mon.add_probe("workers.busy", ProbeKind::kLevel,
                  [this] { return static_cast<double>(busy_slots); });
    mon.add_probe("worker.utilization", ProbeKind::kLevel, [this] {
      const int total = d.total_workers();
      return total > 0 ? static_cast<double>(busy_slots) / total : 0.0;
    });
    mon.add_probe("workers.idle_with_backlog", ProbeKind::kLevel, std::move(idle_with_backlog));
    mon.add_probe("cost.dollars_per_hour", ProbeKind::kLevel, [this] {
      return static_cast<double>(d.instances) * d.type.cost_per_hour;
    });
    if (stage_store != nullptr) {
      mon.add_probe("storage.bytes_per_sec", ProbeKind::kCumulative, [this] {
        const auto m = stage_store->meter();
        return m.bytes_in + m.bytes_out;
      });
    }
    start_monitor_tick();
  }

  RunResult result_head(std::string framework) {
    RunResult r = DesRun::result_head(std::move(framework), completed);
    if (stage_store != nullptr) {
      const auto meter = stage_store->meter();
      r.bytes_in = meter.bytes_in;
      r.bytes_out = meter.bytes_out;
      r.storage_backend = storage::to_string(stage_store->kind());
      r.storage_service_cost = stage_store->service_cost(makespan);
      r.storage_heads = meter.heads;
    }
    return r;
  }
};

}  // namespace

void finalize_metrics(RunResult& result, const Workload& workload, const Deployment& deployment,
                      const ExecutionModel& model) {
  Seconds t1 = 0.0;
  for (const SimTask& task : workload.tasks) {
    t1 += model.expected_sequential(task, deployment.type);
  }
  result.t1_seconds = t1;
  const double p = deployment.total_cores_used();
  if (result.makespan > 0.0 && p > 0.0) {
    result.parallel_efficiency = t1 / (p * result.makespan);  // Equation 1
    result.per_core_task_seconds =
        result.makespan * p / static_cast<double>(workload.size());  // Equation 2
  }
}

void publish_run_metrics(const RunResult& result, runtime::MetricsRegistry& metrics) {
  const std::string prefix = result.framework + ".";
  metrics.counter(prefix + "tasks").inc(result.tasks);
  metrics.counter(prefix + "completed").inc(result.completed);
  metrics.counter(prefix + "duplicate_executions").inc(result.duplicate_executions);
  metrics.set_gauge(prefix + "parallel_efficiency", result.parallel_efficiency);
  metrics.set_gauge(prefix + "per_core_task_seconds", result.per_core_task_seconds);
  metrics.set_gauge(prefix + "makespan_seconds", result.makespan);
  metrics.set_gauge(prefix + "t1_seconds", result.t1_seconds);
  if (result.cache_hits + result.cache_misses > 0) {
    metrics.counter(prefix + "cache_hits").inc(static_cast<std::int64_t>(result.cache_hits));
    metrics.counter(prefix + "cache_misses").inc(static_cast<std::int64_t>(result.cache_misses));
    metrics.set_gauge(prefix + "cache_bytes_saved", result.cache_bytes_saved);
  }
  auto& histogram = metrics.histogram(prefix + "task_exec_seconds");
  for (double x : result.exec_times.samples()) histogram.record(x);
  metrics.emit({"run.finished",
                {{"framework", result.framework},
                 {"deployment", result.deployment_label},
                 {"completed", std::to_string(result.completed)}}});
}

// ---------------------------------------------------------------------------
// Classic Cloud (static and elastic fleets)
// ---------------------------------------------------------------------------

namespace {

using cloud::InstanceState;

/// All state of one Classic Cloud run, static or elastic. A static fleet is
/// the fixed-size case: no control plane (`ctl`), booted at t=0, never
/// revoked or drained. The modes differ only in data: the RNG streams they
/// split, whether the run ends at the last first-completion or waits for
/// the queue to drain, and the worker count the probes divide by.
struct ClassicSim : DesRun {
  std::unique_ptr<storage::StorageBackend> store;
  cloudq::MessageQueue queue;
  cloudq::MessageQueue monitorq;
  cloud::Fleet fleet;

  /// The elastic control plane: autoscaling, spot revocations and storms.
  struct Control {
    const ElasticSimParams& ep;
    cloud::Autoscaler scaler;
    ppc::Rng rng;        // one child per booted worker, in boot order
    ppc::Rng storm_rng;  // storm draws, apart from the worker streams
    int launched = 0, spot_launched = 0;
    ElasticRunStats stats{};
  };
  std::optional<Control> ctl;  // empty for a static fleet

  /// Per-worker shared-dataset caches (static fleets); empty when disabled.
  std::vector<std::unique_ptr<storage::BlockCache>> caches;

  struct Worker {
    ppc::Rng rng;
    int inst = 0;           // index into insts and fleet.instances()
    Seconds backoff = 0.0;  // empty-poll backoff, reset on a delivery
    std::deque<cloudq::Message> prefetch{};  // batched deliveries not yet handled
    std::vector<std::string> acks{};  // receipts awaiting a DeleteMessageBatch
    bool retired = false;
    // The task in hand (one at a time), so its events capture only the
    // worker index: small enough for std::function to store inline.
    cloudq::Message msg{};
    classiccloud::TaskSpec spec{};
    const SimTask* task = nullptr;
    Seconds ex = 0.0;  // execution time
    Seconds ul = 0.0;  // upload time, plus any injected stall before it
  };
  struct Inst {
    int live_workers = 0;
    bool hard_dead = false;  // killed without notice: what its workers held died too
  };
  std::vector<Worker> workers;  // boot order; the index is the worker id
  std::vector<Inst> insts;      // parallel to fleet.instances()
  Worker& worker(int w) { return workers[static_cast<std::size_t>(w)]; }
  Inst& inst(int i) { return insts[static_cast<std::size_t>(i)]; }
  Inst& host(int w) { return inst(worker(w).inst); }
  std::vector<cloudq::Message> recv_buf;  // reused receive_batch scratch

  /// Completion flags indexed by task id, plus the count: O(1) per
  /// completion, which matters at the million-task campaign scale.
  std::vector<std::uint8_t> completed;
  std::size_t completed_count = 0;
  int busy = 0;   // workers currently in handle() (download..upload)
  int alive = 0;  // enlisted and not retired
  /// Every task has completed once; `done` follows at once for a static
  /// run, and once the queue has drained too for an elastic one.
  bool all_completed = false;
  bool done = false;
  // DesRun::makespan is the last first-completion (the deadline metric).
  Seconds end_time = 0.0;  // billing horizon
  static constexpr const char* kBucket = "job";
  static constexpr const char* kSharedKey = "shared/dataset";

  /// RNG split order, frozen by checked-in baselines: store, task queue,
  /// monitor queue, then one stream per worker (static) or the control and
  /// storm streams (elastic; workers split the control stream at boot);
  /// the provider run factor is sampled last.
  ClassicSim(const Workload& w, const Deployment& dep, const ExecutionModel& m,
             const SimRunParams& p, const ElasticSimParams* elastic, ppc::Rng& rng)
      : DesRun(w, dep, m, p),
        // Same rng.split() position the by-value BlobStore held, so the
        // object-store runs replay the checked-in baselines exactly.
        store(storage::make_backend(p.storage, sim.clock(), rng.split())),
        queue("tasks", sim.clock(), p.queue, rng.split()),
        monitorq("monitor", sim.clock(), p.queue, rng.split()),
        fleet(sim.clock()) {
    PPC_REQUIRE(p.receive_batch >= 1 &&
                    p.receive_batch <= static_cast<int>(cloudq::MessageQueue::kBatchLimit),
                "receive_batch must be in [1, kBatchLimit]");
    completed.assign(w.tasks.size(), 0);
    if (elastic != nullptr) {
      const ElasticSimParams& e = *elastic;
      PPC_REQUIRE(!p.enable_block_cache, "block cache not modelled for elastic fleets");
      PPC_REQUIRE(e.spot_fraction >= 0.0 && e.spot_fraction <= 1.0 &&
                      e.revocation_rate >= 0.0 && e.revocation_rate <= 1.0,
                  "spot_fraction and revocation_rate must be in [0, 1]");
      PPC_REQUIRE(e.boot_time >= 0.0 && e.revocation_notice >= 0.0,
                  "boot_time and revocation_notice must be non-negative");
      // Braced initializers run in order: the control stream, then storms.
      ctl.emplace(Control{e, cloud::Autoscaler(e.autoscaler), rng.split(), rng.split()});
    } else {
      const int n = d.total_workers();
      PPC_REQUIRE(p.stall_worker < n || p.stall_at < 0.0,
                  "stall_worker " + std::to_string(p.stall_worker) +
                      " out of range: the deployment has " + std::to_string(n) + " workers");
      workers.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        workers.push_back(Worker{rng.split(), i / d.workers_per_instance});
      }
    }
    draw_run_factor(rng);
    if (!ctl && params.enable_block_cache) {
      storage::BlockCacheConfig base;
      // Model a worker local disk at least big enough for the shared
      // dataset — a cache that cannot hold it would pass everything through.
      base.capacity = std::max(base.capacity, workload.shared_input_size);
      caches.reserve(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        storage::BlockCacheConfig cc = base;
        cc.name = "w" + std::to_string(i) + ".blockcache";
        caches.push_back(std::make_unique<storage::BlockCache>(cc, params.metrics));
      }
    }
  }

  void populate() {
    store->create_bucket(kBucket);
    if (workload.shared_input_size > 0.0) {
      // The job-wide reference dataset (BLAST NR database, GTM training
      // matrix) goes up once; every task message points at it.
      store->put_logical(kBucket, kSharedKey, workload.shared_input_size);
    }
    std::vector<std::string> messages;
    messages.reserve(workload.tasks.size());
    for (const SimTask& t : workload.tasks) {
      classiccloud::TaskSpec spec;
      spec.task_id = "t" + std::to_string(t.id);
      spec.input_key = input_key(t);
      spec.output_key = output_key(t);
      store->put_logical(kBucket, spec.input_key, t.input_size);
      if (workload.shared_input_size > 0.0) spec.shared_keys = {kSharedKey};
      messages.push_back(classiccloud::encode_task(spec));
    }
    queue.send_batch(messages);
  }

  const SimTask& task_of(const classiccloud::TaskSpec& spec) const {
    // populate() names every task "t<id>".
    std::size_t id = 0;
    const char* end = spec.task_id.data() + spec.task_id.size();
    const auto [ptr, ec] = std::from_chars(spec.task_id.data() + 1, end, id);
    PPC_CHECK(ec == std::errc() && ptr == end, "bad DES task id: " + spec.task_id);
    return workload.tasks.at(id);
  }

  /// Workers the utilization probes divide by: the deployment for a static
  /// fleet (dead and stalled workers count as idle), else the live ones.
  int capacity() const { return ctl ? alive : d.total_workers(); }

  void register_probes() {
    runtime::Monitor& mon = *params.monitor;
    using runtime::ProbeKind;
    mon.add_probe("queue.tasks.depth", ProbeKind::kLevel,
                  [this] { return static_cast<double>(queue.approximate_visible()); });
    mon.add_probe("queue.tasks.inflight", ProbeKind::kLevel,
                  [this] { return static_cast<double>(queue.in_flight()); });
    mon.add_probe("workers.busy", ProbeKind::kLevel,
                  [this] { return static_cast<double>(busy); });
    mon.add_probe("worker.utilization", ProbeKind::kLevel, [this] {
      const int n = capacity();
      return n > 0 ? static_cast<double>(busy) / n : 0.0;
    });
    // Dead workers count as idle — a dead worker failing to drain a visible
    // backlog IS the degraded condition this watches.
    mon.add_probe("workers.idle_with_backlog", ProbeKind::kLevel, [this] {
      return queue.approximate_visible() > 0
                 ? static_cast<double>(std::max(0, capacity() - busy))
                 : 0.0;
    });
    // Queue API request rate (both queues; SQS bills per request) and how
    // many messages each send/receive/delete request moved — a direct read
    // on how well the batch APIs are being used (1.0 = unbatched chatter).
    mon.add_probe("queue.api_calls", ProbeKind::kCumulative, [this] {
      return static_cast<double>(queue.meter().total() + monitorq.meter().total());
    });
    mon.add_probe("queue.batch_occupancy", ProbeKind::kLevel,
                  [this] { return queue.meter().batch_occupancy(); });
    mon.add_probe("storage.bytes_per_sec", ProbeKind::kCumulative, [this] {
      const auto m = store->meter();
      return m.bytes_in + m.bytes_out;
    });
    mon.add_probe(
        "cost.dollars_per_hour", ProbeKind::kCumulative,
        [this] {
          return fleet.amortized_cost(sim.now()) + queue.request_cost() +
                 monitorq.request_cost() + store->service_cost(sim.now());
        },
        3600.0);
    if (!caches.empty()) {
      mon.add_probe("cache.hit_rate", ProbeKind::kLevel, [this] {
        std::uint64_t hits = 0, misses = 0;
        for (const auto& cache : caches) {
          hits += cache->hits();
          misses += cache->misses();
        }
        const std::uint64_t lookups = hits + misses;
        return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
      });
    }
    if (!ctl) return;
    // Elasticity signals (the §14 design doc's probe set).
    mon.add_probe("fleet.size", ProbeKind::kLevel,
                  [this] { return static_cast<double>(fleet.active_count()); });
    mon.add_probe("fleet.spot_running", ProbeKind::kLevel,
                  [this] { return static_cast<double>(fleet.spot_running()); });
    mon.add_probe("spot.revocations", ProbeKind::kCumulative,
                  [this] { return static_cast<double>(fleet.revocations()); });
    mon.add_probe("fleet.drain_seconds", ProbeKind::kLevel,
                  [this] { return fleet.total_drain_seconds(); });
    // Scale-event rate, watched by the default fleet.thrash alarm. The
    // hysteresis band plus cooldown keep the steady-state rate an order of
    // magnitude under the alarm threshold.
    mon.add_probe("fleet.scale_events.rate", ProbeKind::kCumulative,
                  [this] { return static_cast<double>(fleet.scale_events()); });
  }

  void start() {
    populate();
    if (ctl) {
      launch_instances(ctl->scaler.config().min_instances, /*allow_spot=*/true);
      for (const Seconds t : ctl->ep.storm_times) sim.at(t, [this] { storm(); });
      sim.at(0.0, [this] { autoscale_tick(); });
    } else {
      for (const std::string& id : fleet.scale_out(d.type, d.instances, false)) {
        fleet.mark_running(id);
      }
      insts.resize(static_cast<std::size_t>(d.instances));
      for (int w = 0; w < static_cast<int>(workers.size()); ++w) enlist(w);
    }
    if (params.monitor != nullptr) {
      register_probes();
      start_monitor_tick();
    }
    sim.run();
    if (!done) makespan = sim.now();  // stranded: crashed workers, or no fleet left
    // A static fleet bills at makespan; an elastic one also rents the drain
    // tail (the fleet redelivering acks a hard kill destroyed).
    end_time = ctl ? sim.now() : makespan;
  }

  // -- elastic control plane (ctl set) --------------------------------------

  const cloud::Instance& instance(int i) const {
    return fleet.instances()[static_cast<std::size_t>(i)];
  }

  void launch_instances(int count, bool allow_spot) {
    // Keep the launched mix at ep.spot_fraction; deterministic, no RNG.
    const ElasticSimParams& ep = ctl->ep;
    int n_spot = 0;
    for (int i = 0; allow_spot && i < count; ++i) {
      if (ctl->spot_launched + n_spot + 1 <= ep.spot_fraction * (ctl->launched + i + 1)) ++n_spot;
    }
    const std::size_t first = insts.size();
    if (count - n_spot > 0) fleet.scale_out(d.type, count - n_spot, /*spot_market=*/false);
    if (n_spot > 0) fleet.scale_out(d.type, n_spot, /*spot_market=*/true);
    ctl->launched += count;
    ctl->spot_launched += n_spot;
    insts.resize(fleet.instances().size());
    for (std::size_t i = first; i < insts.size(); ++i) {
      sim.after(ep.boot_time, [this, i] { on_boot(static_cast<int>(i)); });
    }
    ctl->stats.peak_instances = std::max(ctl->stats.peak_instances, fleet.active_count());
  }

  void on_boot(int i) {
    if (instance(i).state != InstanceState::kBooting) return;
    fleet.mark_running(instance(i).id);
    for (int k = 0; k < d.workers_per_instance; ++k) {
      workers.push_back(Worker{ctl->rng.split(), i});
      enlist(static_cast<int>(workers.size()) - 1);
    }
  }

  void do_revoke(int i, Seconds notice) {
    const Seconds deadline = fleet.revoke(instance(i).id, notice);
    Inst& ir = inst(i);
    if (instance(i).state == InstanceState::kTerminated) {
      ir.hard_dead = true;  // no-notice kill
      return;
    }
    if (ir.live_workers == 0) {
      // Nothing to drain (workers already crashed away): gone immediately.
      fleet.finish_drain(instance(i).id);
      return;
    }
    sim.at(deadline, [this, i] {
      if (instance(i).state == InstanceState::kTerminated) return;  // drained in time
      fleet.hard_kill(instance(i).id);
      inst(i).hard_dead = true;
    });
  }

  /// The running spot instances, in launch order.
  std::vector<int> running_spot() const {
    std::vector<int> out;
    for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
      if (instance(i).type.spot && instance(i).state == InstanceState::kRunning) out.push_back(i);
    }
    return out;
  }

  void storm() {
    if (done) return;
    // Correlated revocation: the provider reclaims a slice of the spot pool
    // in one sweep. The draws run over the fleet as it was at storm time.
    const ElasticSimParams& ep = ctl->ep;
    for (const int i : running_spot()) {
      if (ctl->storm_rng.bernoulli(ep.revocation_rate)) do_revoke(i, ep.revocation_notice);
    }
  }

  void fire_revocations() {
    if (params.faults == nullptr) return;
    for (const int i : running_spot()) {
      // An earlier revocation in this sweep never changes another instance.
      const Seconds notice = fire_site(cloud::sites::kSpotRevoke).notice;
      if (notice >= 0.0) do_revoke(i, notice);
    }
  }

  void drain_one() {
    // Scale-in only at a billing-hour boundary: among running instances
    // within hour_slack of their next boundary, drain the closest. Nobody
    // eligible = hold; the drain waits for a cheaper moment.
    const Seconds now = sim.now();
    const Seconds slack = ctl->scaler.config().hour_slack;
    int victim = -1;
    Seconds best = slack;
    for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
      if (instance(i).state != InstanceState::kRunning) continue;
      const Seconds to_boundary = fleet.seconds_to_hour_boundary(instance(i).id, now);
      if (to_boundary <= slack && (victim < 0 || to_boundary < best)) {
        victim = i;
        best = to_boundary;
      }
    }
    if (victim < 0) return;
    fleet.begin_drain(instance(victim).id);
    if (inst(victim).live_workers == 0) fleet.finish_drain(instance(victim).id);
  }

  void decide() {
    cloud::AutoscaleSignals s;
    s.now = sim.now();
    s.queue_depth = static_cast<double>(queue.approximate_visible());
    s.inflight = static_cast<double>(queue.in_flight());
    s.running_instances = fleet.running_count();
    s.pending_instances = fleet.booting_count();
    s.workers_per_instance = d.workers_per_instance;
    // Ungated by backlog: near the end of the queue (and through the drain
    // tail) idle workers let scale-in hand instances back before they bill
    // another hour.
    s.idle_workers = std::max(0, alive - busy);
    s.spent = fleet.hourly_billed_cost(s.now);
    s.cost_per_instance_hour = d.type.cost_per_hour;
    const cloud::AutoscaleDecision dec = ctl->scaler.decide(s);
    if (dec.delta > 0) {
      // Min-floor refills replace revoked capacity with on-demand: refilling
      // a storm's losses from the same spot pool invites the next storm.
      const bool refill = std::string_view(dec.reason) == "below-min";
      launch_instances(dec.delta, /*allow_spot=*/!refill);
    } else if (dec.delta < 0) {
      drain_one();
    }
  }

  void autoscale_tick() {
    if (!done) {
      fire_revocations();
      decide();
    }
    ElasticRunStats& stats = ctl->stats;
    stats.fleet_size_series.push_back({sim.now(), fleet.active_count(), fleet.spot_running()});
    stats.peak_instances = std::max(stats.peak_instances, fleet.active_count());
    if (done) return;
    // Parasitic like the monitor tick. This tick's decision has already run,
    // so a below-min refill of a storm-gutted fleet is pending (its boot) and
    // keeps the chain alive. No events left means no worker will ever poll
    // again -- every one retired or crashed, nothing booting: stranded, end.
    if (sim.events_pending() > 0) sim.after(kAutoscaleInterval, [this] { autoscale_tick(); });
  }

  // -- worker lifecycle -----------------------------------------------------

  /// Puts worker `w` on its instance and schedules its first poll, staggered
  /// as real instances boot unevenly.
  void enlist(int w) {
    Worker& k = worker(w);
    k.backoff = kPollInterval;
    ++host(w).live_workers;
    ++alive;
    sim.after(k.rng.uniform(0.0, 1.0), [this, w] { poll(w); });
  }

  /// Ends the run once every task has completed; an elastic run also waits
  /// for the queue to drain (redelivering acks a hard kill destroyed, so no
  /// message is silently lost). Called wherever a delete may empty the queue.
  void maybe_finish() {
    if (done || !all_completed) return;
    if (ctl && queue.undeleted() != 0) return;
    done = true;
    fleet.terminate_all();
  }

  void flush_acks(int w) {
    auto& pending = worker(w).acks;
    if (pending.empty()) return;
    queue.delete_batch(pending);
    pending.clear();
    maybe_finish();
  }

  /// Acks a completed task: immediately (receive_batch 1) or buffered into a
  /// batch. Acks a dying worker still buffers are lost: their messages
  /// resurface, as after a crash between upload and delete.
  void ack(int w, const cloudq::Message& msg) {
    if (params.receive_batch <= 1) {
      queue.delete_message(msg.receipt_handle);
      maybe_finish();
      return;
    }
    auto& pending = worker(w).acks;
    pending.push_back(msg.receipt_handle);
    if (pending.size() >= cloudq::MessageQueue::kBatchLimit) flush_acks(w);
  }

  /// Retires one worker. A clean retirement (graceful drain, end of queue)
  /// releases unstarted prefetched deliveries for immediate redelivery and
  /// flushes buffered acks; a hard one (instance reclaimed, worker crash)
  /// loses both, absorbed by redelivery and idempotent re-execution. The
  /// last worker off a draining instance completes the drain; on a static
  /// fleet, which never drains, this only stops the worker.
  void drop_worker(int w, bool clean) {
    Worker& k = worker(w);
    if (k.retired) return;
    if (clean) {
      for (const cloudq::Message& m : k.prefetch) queue.change_visibility(m.receipt_handle, 0.0);
      flush_acks(w);
    }
    k.prefetch.clear();
    k.acks.clear();
    k.retired = true;
    --alive;
    Inst& ir = host(w);
    if (--ir.live_workers == 0 && !ir.hard_dead &&
        instance(k.inst).state == InstanceState::kDraining) {
      fleet.finish_drain(instance(k.inst).id);
    }
  }

  /// False once worker `w` is retired; retires it first when its instance
  /// was hard-killed (losing what it held) or is draining (handing it back).
  bool on_duty(int w) {
    if (worker(w).retired) return false;
    const bool dead = host(w).hard_dead;
    if (dead || instance(worker(w).inst).state == InstanceState::kDraining) {
      drop_worker(w, /*clean=*/!dead);
      return false;
    }
    return true;
  }

  /// The task in hand dies with its worker; its message resurfaces on timeout.
  void abandon(int w) {
    --busy;  // dead, not busy — shows up as idle-with-backlog
    drop_worker(w, /*clean=*/false);
  }

  void poll(int w) {
    if (done || !on_duty(w)) return;
    if (w == params.stall_worker && !ctl && params.stall_at >= 0.0 &&
        sim.now() >= params.stall_at && sim.now() < params.stall_at + params.stall_duration) {
      // Stalled (chaos injection, static fleets): the worker sleeps through
      // the window; the backlog it would have drained stays visible.
      sim.at(params.stall_at + params.stall_duration, [this, w] { poll(w); });
      return;
    }
    sim.after(kQueueOpLatency, [this, w] {
      if (!on_duty(w)) return;  // reclaimed or drained during the round trip
      Worker& k = worker(w);
      recv_buf.clear();
      if (queue.receive_batch(static_cast<std::size_t>(params.receive_batch),
                              params.visibility_timeout, recv_buf) == 0) {
        if (done || queue.undeleted() == 0) {
          drop_worker(w, /*clean=*/true);  // nothing left to do
          return;
        }
        sim.after(k.backoff, [this, w] { poll(w); });
        k.backoff = std::min(kPollIntervalMax, k.backoff * 2.0);
        return;
      }
      k.backoff = kPollInterval;
      for (cloudq::Message& m : recv_buf) k.prefetch.push_back(std::move(m));
      next_delivery(w);
    });
  }

  /// Works through the worker's prefetched deliveries; when they run out,
  /// flushes the buffered acks and polls again.
  void next_delivery(int w) {
    if (!on_duty(w)) return;
    Worker& k = worker(w);
    // Once the job is done a prefetched batch is abandoned, but a lone
    // delivery (receive_batch 1) still runs, as the one-message loop always
    // has. (An elastic run is only done with the queue drained.)
    if (k.prefetch.empty() || (done && params.receive_batch > 1)) {
      // Flush even when the job just finished: the final ack batch is what
      // drains the queue to zero undeleted messages.
      flush_acks(w);
      if (!done) poll(w);
      return;
    }
    k.msg = std::move(k.prefetch.front());
    k.prefetch.pop_front();
    handle(w);
  }

  /// Stage 1 of the task in hand: fetch the shared dataset and the input.
  void handle(int w) {
    Worker& k = worker(w);
    k.spec = classiccloud::decode_task(k.msg.body());
    k.task = &task_of(k.spec);
    ++busy;

    // Shared dataset first: a block-cache hit is served from the worker's
    // disk and never touches the backend; a miss (or no cache) downloads it
    // alongside the task's own input.
    Bytes download = k.task->input_size;
    for (const std::string& key : k.spec.shared_keys) {
      if (!caches.empty()) {
        const auto r = caches[static_cast<std::size_t>(w)]->fetch(*store, kBucket, key);
        if (!r.hit) download += workload.shared_input_size;
      } else {
        (void)store->get(kBucket, key);  // meters the repeated download
        download += workload.shared_input_size;
      }
    }
    store->begin_transfer();  // shared/parallel FS contention; object: no-op
    sim.after(store->sample_get_time(download, k.rng), [this, w] { execute(w); });
  }

  /// Stage 2: the download landed; run the task.
  void execute(int w) {
    store->end_transfer();  // pair before any abandonment check
    if (host(w).hard_dead) return abandon(w);  // reclaimed mid-download
    Worker& k = worker(w);
    (void)store->get(kBucket, k.spec.input_key);  // meters the download
    k.ex = sample_exec(*k.task, k.rng);
    sim.after(k.ex, [this, w] { upload(w); });
  }

  /// Stage 3: the execution finished; upload the output (or die first).
  void upload(int w) {
    // Reclaimed mid-execute: no upload, no delete.
    if (host(w).hard_dead) return abandon(w);
    // The real-thread worker's site. A failed attempt dies here (its
    // instance survives): no upload, no delete; a delay stalls the worker
    // before its upload lands.
    const SiteFault f = fire_site(classiccloud::sites::kAfterExecute);
    if (f.failed) return abandon(w);
    Worker& k = worker(w);
    store->begin_transfer();
    k.ul = f.delay + store->sample_put_time(k.task->output_size, k.rng);
    sim.after(k.ul, [this, w] { complete(w); });
  }

  /// Stage 4: the output landed; report, ack, and take the next delivery.
  void complete(int w) {
    store->end_transfer();
    if (host(w).hard_dead) return abandon(w);  // reclaimed before the upload landed
    Worker& k = worker(w);
    const SimTask& task = *k.task;
    store->put_logical(kBucket, k.spec.output_key, task.output_size);
    monitorq.send(classiccloud::encode_monitor(
        {k.spec.task_id, "w" + std::to_string(w), "done", k.ex}));
    ack(w, k.msg);

    auto& flag = completed[static_cast<std::size_t>(task.id)];
    const bool first = flag == 0;
    if (params.record_trace) {  // post-upload: the execution ended `ul` ago
      trace.push_back({task.id, w, sim.now() - k.ul - k.ex, sim.now() - k.ul, first});
    }
    if (first) {
      flag = 1;
      ++completed_count;
      exec_times.add(k.ex);
      if (completed_count == workload.size()) {
        all_completed = true;
        makespan = sim.now();
        maybe_finish();  // elastic: no-op while buffered acks are pending
      }
    } else {
      ++duplicate_executions;
    }
    --busy;
    next_delivery(w);
  }
};

/// Runs one Classic Cloud job; `elastic` null = a static fleet.
RunResult run_classic_sim(const Workload& workload, const Deployment& deployment,
                          const ExecutionModel& model, const SimRunParams& params,
                          const ElasticSimParams* elastic, ElasticRunStats* stats) {
  PPC_REQUIRE(!workload.tasks.empty(), "empty workload");
  ppc::Rng rng(params.seed);
  ClassicSim cs(workload, deployment, model, params, elastic, rng);
  cs.start();

  RunResult r = cs.result_head(
      std::string(elastic != nullptr ? "ElasticCloud-" : "ClassicCloud-") +
          (deployment.type.provider == cloud::Provider::kWindowsAzure ? "Azure" : "EC2"),
      static_cast<int>(cs.completed_count));
  r.compute_cost_hour_units = cs.fleet.hourly_billed_cost(cs.end_time);
  r.compute_cost_amortized = cs.fleet.amortized_cost(cs.end_time);
  r.queue_request_cost = cs.queue.request_cost() + cs.monitorq.request_cost();
  const auto qm = cs.queue.meter();
  const auto mm = cs.monitorq.meter();
  r.queue_api_requests = qm.total() + mm.total();
  r.queue_unbatched_requests = qm.unbatched_total() + mm.unbatched_total();
  r.queue_batch_occupancy = qm.batch_occupancy();
  r.queue_undeleted_end = cs.queue.undeleted();
  const auto meter = cs.store->meter();
  r.bytes_in = meter.bytes_in;
  r.bytes_out = meter.bytes_out;
  r.storage_backend = storage::to_string(cs.store->kind());
  r.storage_service_cost = cs.store->service_cost(cs.end_time);
  r.storage_heads = meter.heads;
  for (const auto& cache : cs.caches) {
    r.cache_hits += cache->hits();
    r.cache_misses += cache->misses();
    r.cache_bytes_saved += cache->bytes_saved();
  }
  r = cs.finish(std::move(r));

  if (stats != nullptr) {
    *stats = std::move(cs.ctl->stats);
    stats->scale_out_events = cs.fleet.scale_out_events();
    stats->scale_in_events = cs.fleet.scale_in_events();
    stats->revocations = cs.fleet.revocations();
    stats->hard_kills = cs.fleet.hard_kills();
    stats->drains_completed = cs.fleet.drains_completed();
    stats->total_drain_seconds = cs.fleet.total_drain_seconds();
    stats->stale_terminates = cs.fleet.stale_terminates();
    const cloud::Fleet::CostBreakdown b = cs.fleet.hourly_billed_breakdown(cs.end_time);
    stats->cost_on_demand = b.on_demand;
    stats->cost_spot = b.spot;
    stats->cost_on_demand_equivalent = b.on_demand_equivalent;
  }
  return r;
}

}  // namespace

RunResult run_classic_cloud_sim(const Workload& workload, const Deployment& deployment,
                                const ExecutionModel& model, const SimRunParams& params) {
  return run_classic_sim(workload, deployment, model, params, nullptr, nullptr);
}

RunResult run_elastic_classic_sim(const Workload& workload, const Deployment& deployment,
                                  const ExecutionModel& model, const SimRunParams& params,
                                  const ElasticSimParams& elastic, ElasticRunStats* stats) {
  return run_classic_sim(workload, deployment, model, params, &elastic, stats);
}

// ---------------------------------------------------------------------------
// MapReduce (Hadoop analog)
// ---------------------------------------------------------------------------

namespace {

struct MapReduceSim : SlotSim {
  minihdfs::MiniHdfs hdfs;
  std::unique_ptr<mapreduce::TaskScheduler> scheduler;
  bool finished = false;
  std::vector<bool> node_dead;
  int live_nodes = 0;

  /// The scheduler has no pending-count accessor; the backlog is derived
  /// driver-side. Speculative twin attempts make busy_slots overshoot the
  /// distinct-task in-flight count, hence the clamp.
  int backlog() const {
    return std::max(0, static_cast<int>(workload.size()) - completed - busy_slots);
  }

  MapReduceSim(const Workload& w, const Deployment& dep, const ExecutionModel& m,
               const SimRunParams& p, ppc::Rng& rng)
      : SlotSim(w, dep, m, p), hdfs(dep.instances, {}, rng.split()) {
    split_slot_streams(rng);  // after HDFS's stream

    std::vector<mapreduce::TaskInfo> tasks;
    tasks.reserve(w.tasks.size());
    for (const SimTask& t : w.tasks) {
      const std::string path = "/in/t" + std::to_string(t.id);
      hdfs.write_logical(path, t.input_size);
      mapreduce::TaskInfo info;
      info.task_id = t.id;
      info.path = path;
      info.name = "t" + std::to_string(t.id);
      info.size = t.input_size;
      info.preferred = hdfs.data_local_nodes(path);
      tasks.push_back(std::move(info));
    }
    scheduler = std::make_unique<mapreduce::TaskScheduler>(std::move(tasks), p.scheduler);
    open_stage_store(rng);
  }

  void start() {
    node_dead.assign(static_cast<std::size_t>(d.instances), false);
    live_nodes = d.instances;
    if (params.faults != nullptr) sim.after(kHeartbeatInterval, [this] { node_heartbeat(); });
    // The paper's data distribution step (when staging): every node pulls
    // its share of the input, plus the shared dataset, before its slots
    // take work.
    Bytes total = 0.0;
    for (const SimTask& t : workload.tasks) total += t.input_size;
    const Bytes per_node = total / std::max(1, d.instances) + workload.shared_input_size;
    stage_and_launch(0.5, "in/n", [per_node](int) { return per_node; });
    // Slots on dead nodes count as idle: lost capacity against a visible
    // backlog is exactly what the stall/degradation alarms watch.
    attach_monitor([this] { return static_cast<double>(backlog()); },
                   [this] {
                     return backlog() > 0 ? static_cast<double>(d.total_workers() - busy_slots)
                                          : 0.0;
                   });
    sim.run();
    if (!finished) makespan = sim.now();
  }

  /// Node loss as a fault site: every kHeartbeatInterval each live node, in
  /// ascending id, fires sites::kNodeHeartbeat, and a failed outcome kills
  /// it. The chain ends with the job or with the last node.
  void node_heartbeat() {
    if (finished) return;
    for (int node = 0; node < d.instances; ++node) {
      if (!node_dead[static_cast<std::size_t>(node)] && fire_site(sites::kNodeHeartbeat).failed) {
        kill_node(node);
      }
    }
    if (live_nodes > 0) sim.after(kHeartbeatInterval, [this] { node_heartbeat(); });
  }

  /// The node's running attempts are lost (each fails when it would have
  /// ended) and it takes no more work; its HDFS replicas re-replicate.
  /// MiniHdfs keeps its last datanode: with no node left the job is
  /// stranded anyway.
  void kill_node(int node) {
    node_dead[static_cast<std::size_t>(node)] = true;
    if (--live_nodes > 0) hdfs.fail_node(node);
  }

  /// A failed attempt dies after its launch overhead (plus any injected
  /// delay), before its body runs, as run_phase's does: the scheduler
  /// re-queues the task, or fails the job past max_attempts.
  void fail_at_launch(const mapreduce::Assignment& a, int node, int slot, Seconds delay) {
    sim.after(kTaskStartupOverhead + delay, [this, a, node, slot] {
      --busy_slots;
      scheduler->report_failed(a, sim.now());
      maybe_finish();
      request(node, slot);
    });
  }

  /// The run is over once the scheduler has every task done (or failed).
  void maybe_finish() {
    if (finished || !scheduler->job_done()) return;
    finished = true;
    makespan = sim.now();
  }

  void request(int node, int slot) override {
    if (node_dead[static_cast<std::size_t>(node)]) return;  // instance is gone
    if (scheduler->job_done()) return;
    const auto assignment = scheduler->next_task(node, sim.now());
    if (!assignment) {
      sim.after(kHeartbeatInterval, [this, node, slot] { request(node, slot); });
      return;
    }
    ++busy_slots;
    const SiteFault f = fire_site(mapreduce::sites::kMapAttempt);
    if (f.failed) return fail_at_launch(*assignment, node, slot, f.delay);
    auto& rng = slot_rng[static_cast<std::size_t>(slot)];
    const SimTask& task = workload.tasks.at(static_cast<std::size_t>(assignment->task_id));
    const Seconds read = hdfs.sample_read_time(task.input_size, assignment->data_local, rng);
    const Seconds ex = sample_exec(task, rng);
    // HDFS write of the (small) result, local to the node.
    const Seconds write = hdfs.sample_read_time(task.output_size, /*local=*/true, rng);
    const Seconds total = kTaskStartupOverhead + f.delay + read + ex + write;

    sim.after(total, [this, node, slot, a = *assignment, ex, write] {
      --busy_slots;
      if (node_dead[static_cast<std::size_t>(node)]) {
        // The node died while this attempt ran: the JobTracker times it out
        // and re-queues the task; this slot never asks for work again.
        scheduler->report_failed(a, sim.now());
        maybe_finish();
        return;
      }
      const bool first = scheduler->report_completed(a, sim.now());
      if (params.record_trace) {
        const Seconds end = sim.now() - write;
        trace.push_back({a.task_id, slot, end - ex, end, first});
      }
      if (first) {
        exec_times.add(ex);
        ++completed;
      } else {
        ++duplicate_executions;
      }
      maybe_finish();
      request(node, slot);
    });
  }
};

}  // namespace

RunResult run_mapreduce_sim(const Workload& workload, const Deployment& deployment,
                            const ExecutionModel& model, const SimRunParams& params) {
  PPC_REQUIRE(!workload.tasks.empty(), "empty workload");
  ppc::Rng rng(params.seed);
  MapReduceSim ms(workload, deployment, model, params, rng);
  ms.start();

  RunResult r = ms.result_head("Hadoop");
  r.scheduler_stats = ms.scheduler->stats();
  r.local_reads = static_cast<std::uint64_t>(r.scheduler_stats.local_assignments);
  r.remote_reads = static_cast<std::uint64_t>(r.scheduler_stats.remote_assignments);
  return ms.finish(std::move(r));
}

// ---------------------------------------------------------------------------
// Dryad (DryadLINQ analog)
// ---------------------------------------------------------------------------

namespace {

struct DryadSim : SlotSim {
  dryad::FileShare share;
  std::vector<std::deque<int>> node_queue;  // task ids per node (static!)
  std::vector<Bytes> node_bytes;            // partition bytes per node
  std::vector<int> node_busy;               // running vertices per node
  std::vector<int> failed_attempts;         // per task id
  bool job_failed = false;                  // a vertex ran out of attempts

  DryadSim(const Workload& w, const Deployment& dep, const ExecutionModel& m,
           const SimRunParams& p, ppc::Rng& rng)
      : SlotSim(w, dep, m, p),
        share(dep.instances),
        node_queue(static_cast<std::size_t>(dep.instances)) {
    split_slot_streams(rng);

    // Static partitioning — the "data partition and distribution programs"
    // of §2.3, executed before the job starts.
    std::vector<std::string> names;
    std::vector<Bytes> sizes;
    names.reserve(w.tasks.size());
    for (const SimTask& t : w.tasks) {
      names.push_back(std::to_string(t.id));
      sizes.push_back(t.input_size);
    }
    const auto table =
        params.dryad_partition_by_size
            ? dryad::PartitionedTable::by_size(names, sizes, dep.instances)
            : dryad::PartitionedTable::round_robin(names, dep.instances);
    node_bytes.assign(static_cast<std::size_t>(dep.instances), 0.0);
    for (const auto& part : table.partitions()) {
      for (const auto& name : part.files) {
        const int task_id = std::stoi(name);
        node_queue[static_cast<std::size_t>(part.node)].push_back(task_id);
        node_bytes[static_cast<std::size_t>(part.node)] +=
            w.tasks.at(static_cast<std::size_t>(task_id)).input_size;
        // Placeholder content: the distribution step puts every partition
        // file on its node's share so processing reads are local.
        share.write(part.node, name, std::string());
      }
    }
    open_stage_store(rng);
  }

  void start() {
    node_busy.assign(static_cast<std::size_t>(d.instances), 0);
    failed_attempts.assign(workload.size(), 0);
    // §2.3's "data partition and distribution programs" (when staging):
    // each node pulls exactly its partitions' bytes, plus the shared
    // dataset, before its vertices run.
    stage_and_launch(0.2, "part/n", [this](int node) {
      return node_bytes[static_cast<std::size_t>(node)] + workload.shared_input_size;
    });
    attach_monitor(
        [this] {
          std::size_t depth = 0;
          for (const auto& q : node_queue) depth += q.size();
          return static_cast<double>(depth);
        },
        // Static partitioning means a node that drained its own partition
        // idles while *other* nodes still hold work — that is the paper's
        // imbalance story, not a stall. A slot only counts here while its
        // OWN node still has queued vertices it is failing to run.
        [this] {
          int idle = 0;
          for (int node = 0; node < d.instances; ++node) {
            if (!node_queue[static_cast<std::size_t>(node)].empty()) {
              idle += d.workers_per_instance - node_busy[static_cast<std::size_t>(node)];
            }
          }
          return static_cast<double>(idle);
        });
    sim.run();
  }

  /// Every attempt's end, failed or not; the last one closes the run.
  void end_attempt(int node) {
    --busy_slots;
    --node_busy[static_cast<std::size_t>(node)];
    makespan = sim.now();
  }

  void request(int node, int slot) override {
    auto& queue = node_queue[static_cast<std::size_t>(node)];
    // This node is done (no stealing: static), or the job has failed.
    if (queue.empty() || job_failed) return;
    const int task_id = queue.front();
    queue.pop_front();
    ++busy_slots;
    ++node_busy[static_cast<std::size_t>(node)];
    const SiteFault f = fire_site(dryad::sites::kVertexAttempt);
    if (f.failed) {
      // As DryadRuntime: the vertex dies before its body runs and goes to
      // the back of its own node's queue, until it runs out of attempts and
      // fails the job.
      sim.after(kVertexStartupOverhead + f.delay, [this, node, slot, task_id] {
        end_attempt(node);
        if (++failed_attempts[static_cast<std::size_t>(task_id)] <
            dryad::RuntimeConfig{}.max_attempts) {
          node_queue[static_cast<std::size_t>(node)].push_back(task_id);
        } else {
          job_failed = true;
        }
        request(node, slot);
      });
      return;
    }
    auto& rng = slot_rng[static_cast<std::size_t>(slot)];
    const SimTask& task = workload.tasks.at(static_cast<std::size_t>(task_id));
    (void)share.read(node, std::to_string(task_id), node);  // locality accounting
    const Seconds read = share.sample_read_time(task.input_size, /*local=*/true, rng);
    const Seconds ex = sample_exec(task, rng);
    const Seconds write = share.sample_read_time(task.output_size, /*local=*/true, rng);
    const Seconds total = kVertexStartupOverhead + f.delay + read + ex + write;
    sim.after(total, [this, node, slot, task_id, ex, write] {
      if (params.record_trace) {
        const Seconds end = sim.now() - write;
        trace.push_back({task_id, slot, end - ex, end, true});
      }
      exec_times.add(ex);
      ++completed;
      end_attempt(node);
      request(node, slot);
    });
  }
};

}  // namespace

RunResult run_dryad_sim(const Workload& workload, const Deployment& deployment,
                        const ExecutionModel& model, const SimRunParams& params) {
  PPC_REQUIRE(!workload.tasks.empty(), "empty workload");
  ppc::Rng rng(params.seed);
  DryadSim ds(workload, deployment, model, params, rng);
  ds.start();

  RunResult r = ds.result_head("DryadLINQ");
  r.local_reads = ds.share.stats().local_reads;
  return ds.finish(std::move(r));
}

RunResult simulate(const std::string& framework, const Workload& workload,
                   const Deployment& deployment, const SimRunParams& params,
                   const ElasticSimParams* elastic, ElasticRunStats* stats) {
  if (framework != "classic" && framework != "hadoop" && framework != "dryad") {
    throw InvalidArgument("unknown framework: " + framework);
  }
  PPC_REQUIRE(elastic == nullptr || framework == "classic",
              "an elastic fleet needs the classic framework");
  const ExecutionModel model(workload.app);
  if (framework == "hadoop") return run_mapreduce_sim(workload, deployment, model, params);
  if (framework == "dryad") return run_dryad_sim(workload, deployment, model, params);
  if (elastic != nullptr) {
    return run_elastic_classic_sim(workload, deployment, model, params, *elastic, stats);
  }
  return run_classic_cloud_sim(workload, deployment, model, params);
}

}  // namespace ppc::core
