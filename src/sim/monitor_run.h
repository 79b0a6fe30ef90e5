// Deterministic monitored DES runs behind `ppcloud monitor`.
//
// The verb drives one skew-scaled job (make_des_workload) through run_des
// with a DesMonitor attached on the *simulation* clock: queue depth,
// in-flight count, worker utilization, idle-with-backlog, storage bytes/s
// and cost-rate are sampled every period sim-seconds, and the alarms are
// evaluated at each tick. Because the whole run — workload, event order,
// sample times — derives from the seed, the same options produce
// byte-identical monitor JSON on every invocation; CI diffs two runs to
// assert exactly that.
//
// The optional stall injection (SimRunParams::stall_*, Classic Cloud
// family) parks one worker for a window mid-run; the backlog it fails to
// drain keeps workers.idle_with_backlog positive for the window, which is
// what the default stall alarm watches. A fault-free run must fire no
// alarms.
#pragma once

#include <string>
#include <utility>

#include "cloud/instance_types.h"
#include "sim/run_report.h"

namespace ppc::sim {

/// The monitor preset: the DES framework that models real-thread
/// `substrate` and the instance type it deploys on — classiccloud: classic
/// on EC2-HCXL, azuremr: classic on Azure Large, mapreduce: hadoop on the
/// iDataplex node, dryad: dryad on the HPCS node. Throws InvalidArgument on
/// an unknown substrate.
std::pair<std::string, const cloud::InstanceType*> des_model(const std::string& substrate);

/// Header (substrate, framework, tasks, makespan, samples), the sparkline
/// dashboard and the alarm verdict of a monitored run of `substrate`.
std::string monitor_text(const RunReport& report, const std::string& substrate);

}  // namespace ppc::sim
