// The paper's evaluation as `ppcloud` verbs: Tables 1-4, Figures 3-15, the
// §3 variability study and the ablations DESIGN.md calls out, each rendered
// once (tools/experiments.cpp).
#pragma once

#include <string>

namespace ppc::tools {

/// `ppcloud catalog`: Tables 1 and 2 plus the bare-metal baseline nodes.
void print_catalog();

/// `ppcloud experiment <id> [object|sharedfs|parallelfs|all]`; `backend` is
/// empty when none was given. A study that runs on a storage backend
/// defaults to `object`; `all` prints its rows for every backend. Throws
/// InvalidArgument for an unknown id or backend, or for a backend given to
/// a study that takes none.
void run_experiment(const std::string& id, const std::string& backend);

}  // namespace ppc::tools
