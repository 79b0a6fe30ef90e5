// des_campaign: one batched, sharded Cap3 campaign through each of the four
// discrete-event drivers. Every leg must complete every task and drain its
// queue, and makespan, bill and queue requests must repeat exactly.
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "core/exec_model.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace core = ppc::core;

namespace {

enum class Leg { kClassic, kElastic, kMapReduce, kDryad };

struct LegSpec {
  Leg leg;
  const char* metric;  // per-layer metric name
  int tasks;
};

// The mapreduce leg is kept small: TaskScheduler scans are O(n^2) in tasks.
constexpr LegSpec kLegs[] = {
    {Leg::kClassic, "core.classic_sim.tasks_per_s", 60000},
    {Leg::kElastic, "core.elastic_sim.tasks_per_s", 30000},
    {Leg::kMapReduce, "core.mapreduce_sim.tasks_per_s", 8000},
    {Leg::kDryad, "core.dryad_sim.tasks_per_s", 200000},
};
constexpr int kNumLegs = 4;

core::RunResult run_leg(const LegSpec& spec, const core::Workload& workload,
                        std::uint64_t seed) {
  const core::Deployment deployment = core::make_deployment(ppc::cloud::ec2_hcxl(), 16, 8);
  const core::ExecutionModel model(core::AppKind::kCap3);
  core::SimRunParams params;
  params.seed = static_cast<unsigned>(seed);
  params.receive_batch = 10;
  params.queue.shards = 4;
  switch (spec.leg) {
    case Leg::kClassic:
      return core::run_classic_cloud_sim(workload, deployment, model, params);
    case Leg::kElastic: {
      core::ElasticSimParams elastic;
      elastic.autoscaler.min_instances = 4;
      elastic.autoscaler.max_instances = 16;
      elastic.spot_fraction = 0.5;
      elastic.storm_times = {3600.0};  // one revocation storm
      elastic.revocation_rate = 0.3;
      params.visibility_timeout = 1800.0;
      return core::run_elastic_classic_sim(workload, deployment, model, params, elastic);
    }
    case Leg::kMapReduce:
      return core::run_mapreduce_sim(workload, deployment, model, params);
    case Leg::kDryad:
      return core::run_dryad_sim(workload, deployment, model, params);
  }
  return {};
}

bool uses_queue(Leg leg) { return leg == Leg::kClassic || leg == Leg::kElastic; }

}  // namespace

Outcome run_des_campaign(const RunArgs& args) {
  Outcome out;

  std::vector<double> gen;
  struct Round {
    bool traced = false;
    double wall = 0.0;
    double leg_wall[kNumLegs] = {};
    core::RunResult results[kNumLegs];
  };
  std::vector<Round> rounds;
  const double deadline = now_s() + args.seconds;
  const int min_rounds = args.trace ? 4 : 3;
  for (int r = 0; r < min_rounds || (now_s() < deadline && r < 1000); ++r) {
    Round round;
    round.traced = args.trace && r % 2 == 1;
    // Set-up, once per round: the seeded task set of every leg.
    const double g0 = now_s();
    std::vector<core::Workload> workloads;
    for (int k = 0; k < kNumLegs; ++k) {
      workloads.push_back(make_des_workload(args.seed * kNumLegs + k, kLegs[k].tasks));
    }
    gen.push_back(now_s() - g0);

    const double t0 = now_s();
    for (int k = 0; k < kNumLegs; ++k) {
      const double l0 = now_s();
      round.results[k] = run_leg(kLegs[k], workloads[k], args.seed);
      round.leg_wall[k] = now_s() - l0;
    }
    round.wall = now_s() - t0;

    for (int k = 0; k < kNumLegs; ++k) {
      const core::RunResult& res = round.results[k];
      out.attempted += res.tasks;
      const int lost = res.tasks - res.completed;
      out.failed += lost;
      const std::string where = std::string(kLegs[k].metric) + " round " + std::to_string(r);
      if (lost != 0 || res.tasks != kLegs[k].tasks) {
        out.fail(where + ": completed " + std::to_string(res.completed) + " of " +
                 std::to_string(kLegs[k].tasks) + " tasks");
      }
      if (uses_queue(kLegs[k].leg) && res.queue_undeleted_end != 0) {
        out.fail(where + ": " + std::to_string(res.queue_undeleted_end) +
                 " task messages left undeleted");
      }
      if (!rounds.empty()) {
        const core::RunResult& first = rounds.front().results[k];
        if (res.makespan != first.makespan || res.queue_api_requests != first.queue_api_requests ||
            res.compute_cost_hour_units + res.queue_request_cost !=
                first.compute_cost_hour_units + first.queue_request_cost) {
          out.failed += res.tasks;
          out.fail(where + ": makespan, bill or queue requests differ from round 0");
        }
      }
    }
    rounds.push_back(std::move(round));
  }

  const Round& first = rounds.front();
  double cost = 0.0, bytes = 0.0, eff = 0.0, tasks = 0.0;
  std::uint64_t api_requests = 0;
  JsonObject legs;
  for (int k = 0; k < kNumLegs; ++k) {
    const core::RunResult& res = first.results[k];
    cost += res.compute_cost_hour_units + res.queue_request_cost;
    bytes += res.bytes_in + res.bytes_out;
    eff += res.parallel_efficiency / kNumLegs;
    tasks += res.tasks;
    api_requests += res.queue_api_requests;
    JsonObject leg;
    leg.integer("tasks", res.tasks)
        .num("makespan_s", res.makespan)
        .num("parallel_eff", res.parallel_efficiency)
        .num("cost_usd", res.compute_cost_hour_units + res.queue_request_cost)
        .integer("api_requests", static_cast<long long>(res.queue_api_requests));
    legs.raw(kLegs[k].metric, leg.dump());
  }
  std::vector<double> untraced_walls, traced_walls;
  for (const Round& r : rounds) (r.traced ? traced_walls : untraced_walls).push_back(r.wall);
  out.detail.raw("legs", legs.dump())
      .summary("job_s", summarize(untraced_walls))
      .integer("rounds", static_cast<long long>(rounds.size()));

  if (!args.trace) {
    out.add("tasks_per_s", tasks / median(untraced_walls), "1/s");
    out.add("job_s", median(untraced_walls), "s");
    out.add("parallel_eff", eff, "ratio");
    out.add("mb_per_s", bytes / 1e6 / median(untraced_walls), "MB/s");
    out.add("sim_cost_usd", cost, "USD");
    out.add("setup_s", median(gen), "s");
    return out;
  }
  for (int k = 0; k < kNumLegs; ++k) {
    std::vector<double> walls;
    for (const Round& r : rounds) walls.push_back(r.leg_wall[k]);
    out.add(kLegs[k].metric, kLegs[k].tasks / median(walls), "1/s");
  }
  out.add("core.api_requests", static_cast<double>(api_requests), "count");
  // The drivers take no tracer, so a traced round only adds the per-leg
  // timers; the ratio shows what that costs.
  out.add("runtime.tracer.overhead_ratio", median(traced_walls) / median(untraced_walls),
          "ratio");
  return out;
}

}  // namespace perfbench
