// Traced end-to-end runs — the timeline evidence behind the paper's figures.
//
// `ppcloud trace` is run_engine with EngineRunSpec::trace set: one small
// Cap3 / BLAST / GTM job on any of the four substrates with an enabled
// runtime::Tracer attached to every layer (queues, blob store, lifecycle,
// supervisor, engine slots). RunReport's trace section holds the three
// exports: Chrome trace_event JSON (load it in ui.perfetto.dev), the
// per-task summary table, and the per-worker LoadReport.
//
// The verb's job is deliberately inhomogeneous (see AppJob `skew`): later
// files cost more, which is exactly the regime where §4.2 shows DryadLINQ's
// static node-level partitioning stranding nodes in the tail while Hadoop /
// Classic Cloud's dynamic global queues stay balanced (Figs 12-15).
// imbalance_comparison() renders that gap — per-substrate makespan,
// busy-time imbalance, and worst idle-tail fraction — from real span data
// of four runs of the same job.
#pragma once

#include <string>
#include <vector>

#include "sim/run_report.h"

namespace ppc::sim {

/// The load report and summary table of a traced run of `app` on
/// `substrate`, headed by its verdict, output count and span count.
std::string trace_text(const RunReport& report, const std::string& substrate,
                       const std::string& app);

/// Renders the static-vs-dynamic scheduling comparison across traced runs
/// of the same job, `reports[i]` on `substrates[i]`: one row per substrate
/// with makespan, busy-imbalance (max/mean worker busy) and the worst
/// per-worker idle-tail fraction.
std::string imbalance_comparison(const std::vector<std::string>& substrates,
                                 const std::vector<RunReport>& reports);

}  // namespace ppc::sim
