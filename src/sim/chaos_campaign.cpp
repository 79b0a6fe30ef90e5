#include "sim/chaos_campaign.h"

#include <map>
#include <utility>

#include "azuremr/worker.h"
#include "classiccloud/worker.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "mapreduce/job.h"
#include "runtime/fault_plan.h"
#include "sim/app_job.h"

namespace ppc::sim {

namespace {

using Outputs = std::map<std::string, std::string>;

/// The guaranteed floor (one rule per fault action the substrate can
/// absorb) plus seed-sampled extras. Sites that would break the *client*
/// rather than a worker — send/put errors, corruption that could land on
/// the driver's own final reads — are deliberately not armed.
runtime::FaultPlan make_plan(const std::string& substrate, const ChaosConfig& cfg) {
  using runtime::FaultAction;
  runtime::FaultPlan plan;
  plan.seed = cfg.seed;
  struct MenuItem {
    std::string site;
    FaultAction action;
  };
  std::vector<MenuItem> menu;
  if (substrate == "classiccloud" || substrate == "azuremr") {
    // The queue and bucket names the engine runner gives job "chaos".
    const bool cc = substrate == "classiccloud";
    const std::string queue = cc ? "cloudq.chaos-cc-tasks" : "cloudq.chaos-az-mr-tasks";
    const std::string qrecv = queue + ".receive";
    const std::string qdel = queue + ".delete";
    const std::string bget = cc ? "blobstore.job.get" : "blobstore.chaos-az.get";
    const std::string blist = "blobstore.chaos-az.list";
    plan.crash(cc ? classiccloud::sites::kAfterExecute : azuremr::sites::kAfterMap);
    plan.delay(qrecv, 0.005, 3);
    plan.error(qdel, "injected delete failure", 1);
    plan.error(bget, "injected get failure", 2);
    if (!cc) plan.error(blist, "injected list failure", 1);
    plan.corrupt(qrecv, 1);
    plan.corrupt(bget, 1);
    menu = {{qrecv, FaultAction::kDelay}, {qrecv, FaultAction::kError},
            {qrecv, FaultAction::kCorrupt}, {qdel, FaultAction::kError},
            {bget, FaultAction::kDelay},  {bget, FaultAction::kError}};
    if (cc) {
      menu.push_back({classiccloud::sites::kAfterReceive, FaultAction::kCrash});
      menu.push_back({classiccloud::sites::kAfterUpload, FaultAction::kCrash});
    } else {
      menu.push_back({blist, FaultAction::kError});
      menu.push_back({azuremr::sites::kAfterReduce, FaultAction::kCrash});
    }
  } else if (substrate == "mapreduce" && is_shuffle_app(cfg.app)) {
    // Full-pipeline chaos: faults land on every shuffle stage. The crash in
    // the kMapRegister window leaves durable-but-unregistered spills (the
    // map-output-loss shape), the fetch/spill errors burn attempts on both
    // sides, and the corrupt rule on the shuffle bucket's gets exercises
    // checksum detection + redrive.
    namespace site = mapreduce::sites;
    const std::string bget = "blobstore.shuffle.get";
    plan.crash(site::kMapAttempt);
    plan.crash(site::kMapRegister);
    plan.crash(site::kReduceAttempt);
    plan.delay(site::kFetch, 0.005, 3);
    plan.error(site::kSpill, "injected spill failure", 1);
    plan.error(site::kFetch, "injected fetch failure", 1);
    plan.corrupt(bget, 2);
    menu = {{site::kFetch, FaultAction::kDelay},       {site::kFetch, FaultAction::kError},
            {site::kSpill, FaultAction::kError},       {site::kMapAttempt, FaultAction::kCrash},
            {site::kReduceAttempt, FaultAction::kCrash}, {bget, FaultAction::kCorrupt}};
  } else if (substrate == "mapreduce") {
    const std::string site = mapreduce::sites::kMapAttempt;
    plan.crash(site);
    plan.delay(site, 0.005, 3);
    plan.error(site, "injected attempt failure", 2);
    menu = {{site, FaultAction::kDelay},
            {site, FaultAction::kError},
            {site, FaultAction::kCrash}};
  } else {
    throw ppc::InvalidArgument("unknown chaos substrate: " + substrate);
  }

  ppc::Rng rng(cfg.seed ^ ppc::fnv1a64(substrate));
  const int extras = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < extras; ++i) {
    const MenuItem& item = menu[rng.index(menu.size())];
    const double p = rng.uniform(0.05, 0.35);
    const int budget = static_cast<int>(rng.uniform_int(1, 3));
    switch (item.action) {
      case FaultAction::kDelay:
        plan.delay(item.site, rng.uniform(0.001, 0.008), budget, p);
        break;
      case FaultAction::kError:
        plan.error(item.site, "sampled chaos error", budget, p);
        break;
      case FaultAction::kCorrupt:
        plan.corrupt(item.site, budget, p);
        break;
      case FaultAction::kCrash:
        plan.crash(item.site, 1, p);
        break;
      case FaultAction::kRevokeSpot:  // storm rules are armed below, never sampled
        break;
    }
  }

  // Storm rules go AFTER the sampled extras so arming a storm never shifts
  // the extras' RNG stream — a seed's base plan is the same with the storm
  // on or off.
  if (cfg.revocation_storm) {
    const std::string storm_site =
        substrate == "classiccloud" ? classiccloud::sites::kAfterReceive
        : substrate == "azuremr"    ? azuremr::sites::kAfterMap
                                        : mapreduce::sites::kMapAttempt;
    // The budget (2 kills) bounds the storm; the per-firing probability only
    // spreads the kills across workers. On a 4-task job a 0.5 coin can miss
    // every firing and void the coverage check, so storms fire near-surely.
    plan.revoke_spot(storm_site, /*budget=*/2, /*probability=*/0.9);
  }
  return plan;
}

void compare_outputs(const Outputs& baseline, const Outputs& chaos,
                     std::vector<std::string>& failures) {
  for (const auto& [name, expected] : baseline) {
    const auto it = chaos.find(name);
    if (it == chaos.end()) {
      failures.push_back("chaos run lost output: " + name);
    } else if (it->second != expected) {
      failures.push_back("chaos output differs from fault-free run: " + name);
    }
  }
  for (const auto& [name, _] : chaos) {
    if (!baseline.contains(name)) failures.push_back("chaos run invented output: " + name);
  }
}

}  // namespace

EngineRunSpec chaos_spec(const std::string& substrate, const ChaosConfig& config) {
  EngineRunSpec spec;
  spec.substrate = substrate;
  spec.job = is_shuffle_app(config.app) ? "chaos-" + config.app : "chaos";
  spec.slots_per_node = 2;
  // Redrive headroom: every guaranteed fault can land on one unlucky task
  // without failing the job, and only the always-failing poison sentinel
  // exhausts its deliveries. Two storm revocations can land on that same
  // task on top of the plan's guaranteed crash, so storms get more.
  spec.max_receive_count = config.revocation_storm ? 7 : 5;
  spec.max_attempts = config.revocation_storm ? 8 : 6;
  // Tight spill/sort budgets force multi-spill map outputs and external-sort
  // runs, so the shuffle's spill/fetch fault sites sit on the hot path.
  spec.map_spill_budget = 2.0 * 1024;
  spec.sort_memory_budget = 4.0 * 1024;
  return spec;
}

RunReport run_chaos_campaign(const EngineRunSpec& spec, const ChaosConfig& config) {
  // Unknown apps throw here, unknown substrates in make_plan; a shuffle app
  // off mapreduce throws in the engine runner.
  const bool shuffle = is_shuffle_app(config.app);
  const AppJob job = shuffle ? make_shuffle_app(config.app, config.num_files)
                             : make_app_job(config.app, config.num_files);
  runtime::FaultPlan plan = make_plan(spec.substrate, config);

  EngineRunSpec baseline_spec = spec;
  baseline_spec.monitor_period = 0.0;  // only the chaos run is watched
  RunReport baseline = run_engine(baseline_spec, job);
  if (!baseline.succeeded) {
    // A broken baseline means the campaign cannot judge anything.
    for (std::string& f : baseline.failures) f = "baseline: " + f;
    return baseline;
  }

  // The chaos run is traced: its Chrome JSON is the campaign's failure
  // artifact — every injected fault, redelivery, DLQ parking, and supervisor
  // reap shows up as span data.
  EngineRunSpec faulted = spec;
  faulted.trace = true;
  faulted.plan = std::move(plan);
  RunReport report = run_engine(faulted, job);
  std::vector<std::string>& failures = report.failures;
  for (std::string& f : failures) f = "chaos: " + f;
  compare_outputs(baseline.outputs, report.outputs, failures);

  // Coverage: the plan must actually have exercised every fault action the
  // substrate can absorb, or the campaign proves nothing.
  if (report.crashes < 1) failures.push_back("plan injected no crash");
  if (report.delays < 1) failures.push_back("plan injected no delay");
  if (report.errors < 1) failures.push_back("plan injected no error");
  if (config.revocation_storm && report.spot_revocations < 1) {
    failures.push_back("revocation storm revoked nothing");
  }
  const bool queue_substrate = spec.substrate != "mapreduce";
  // Shuffle runs arm corruption on the shuffle bucket's gets (checksum
  // detection is under test); queue substrates arm it on deliveries/blobs.
  if ((queue_substrate || shuffle) && report.corruptions < 1) {
    failures.push_back("plan injected no corruption");
  }
  if (queue_substrate) {
    // The sentinel must end up dead-lettered. Normally the worker that burns
    // its last permitted delivery parks it (poison_tasks); under a
    // revocation storm a kill can steal that final delivery, in which case
    // the queue's redrive sweep dead-letters it instead — either route
    // satisfies "poison never redelivers forever", so storm runs accept a
    // bare DLQ entry.
    if (report.poison_tasks < 1 &&
        !(config.revocation_storm && report.dlq_entries >= 1)) {
      failures.push_back("no poison task was dead-lettered");
    }
    if (report.dlq_entries < 1) failures.push_back("dead-letter queue stayed empty");
  }

  report.succeeded = failures.empty();
  return report;
}

std::string chaos_text(const RunReport& r, const EngineRunSpec& spec,
                       const ChaosConfig& config) {
  std::string out = "chaos campaign: substrate=" + spec.substrate + " app=" + config.app +
                    " seed=" + std::to_string(config.seed) + " -> " +
                    (r.succeeded ? "PASS" : "FAIL") + "\n";
  out += "  plan:\n";
  for (const std::string& rule : ppc::split(make_plan(spec.substrate, config).summary(), '\n')) {
    if (!rule.empty()) out += "    " + rule + "\n";
  }
  out += "  injected: crashes=" + std::to_string(r.crashes) +
         " delays=" + std::to_string(r.delays) + " errors=" + std::to_string(r.errors) +
         " corruptions=" + std::to_string(r.corruptions) +
         " spot_revocations=" + std::to_string(r.spot_revocations) + "\n";
  out += "  absorbed: redeliveries=" + std::to_string(r.redeliveries) +
         " deletes_failed=" + std::to_string(r.deletes_failed) +
         " stale_deletes=" + std::to_string(r.stale_deletes) +
         " corrupt_deliveries=" + std::to_string(r.corrupt_deliveries) + "\n";
  out += "  recovered: dlq_entries=" + std::to_string(r.dlq_entries) +
         " poison_tasks=" + std::to_string(r.poison_tasks) +
         " restarts=" + std::to_string(r.supervisor_restarts) +
         " recovery_p50=" + ppc::format_fixed(r.recovery_p50, 3) +
         "s recovery_max=" + ppc::format_fixed(r.recovery_max, 3) + "s\n";
  for (const auto& failure : r.failures) out += "  FAIL: " + failure + "\n";
  return out;
}

std::string chaos_reproduce_line(const RunReport& report, const EngineRunSpec& spec,
                                 const ChaosConfig& config) {
  if (report.succeeded) return "";
  const EngineRunSpec defaults;
  std::string line = "reproduce with: ppcloud chaos --seed " + std::to_string(config.seed) +
                     " --substrate " + spec.substrate + " --app " + config.app;
  if (spec.storage != defaults.storage) line += " --storage " + spec.storage;
  if (spec.enable_cache) line += " --cache 1";
  if (config.num_files != ChaosConfig{}.num_files) {
    line += " --files " + std::to_string(config.num_files);
  }
  if (spec.num_workers != defaults.num_workers) {
    line += " --workers " + std::to_string(spec.num_workers);
  }
  if (config.revocation_storm) line += " --revocation-storm 1";
  return line + "\n";
}

}  // namespace ppc::sim
