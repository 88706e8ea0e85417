#pragma once
// Register-pressure-aware list scheduling.
//
// The schedule fixes the variable lifetimes, hence the conflict graph's
// clique number, hence the register count every binder downstream must
// pay.  This scheduler biases the classic list scheduler's ready queue
// toward operations that *kill* live values (their operands see their last
// use) and away from operations that create long-lived ones, shrinking the
// peak live count — often one register below the plain list schedule on
// filter workloads (see sched_test).

#include "sched/list_sched.hpp"

namespace lbist {

/// Resource-constrained schedule minimizing (heuristically) the peak
/// number of simultaneously live values.
[[nodiscard]] Schedule min_pressure_schedule(const Dfg& dfg,
                                             const ResourceLimits& limits);

}  // namespace lbist
