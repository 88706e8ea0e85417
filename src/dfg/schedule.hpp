#pragma once
// Control-step schedule for a DFG: S : V -> {1, 2, 3, ...}.
//
// The allocation algorithms assume a register-transfer timing model: an
// operation scheduled in step s reads its operands (from registers or input
// ports) during s and writes its result into a register at the end of s.
// Hence a data dependency forces strictly increasing steps (no chaining).

#include <vector>

#include "dfg/dfg.hpp"
#include "support/ids.hpp"

namespace lbist {

/// An immutable schedule of a DFG.  Validates data dependencies at
/// construction time.
class Schedule {
 public:
  /// `step_of[op]` is the 1-based control step of each operation.
  Schedule(const Dfg& dfg, IdMap<OpId, int> step_of);

  [[nodiscard]] int step(OpId op) const { return step_of_[op]; }
  /// Number of control steps (= max step over all operations).
  [[nodiscard]] int num_steps() const { return num_steps_; }

  /// Operations scheduled in a given step, in id order.
  [[nodiscard]] std::vector<OpId> ops_in_step(const Dfg& dfg, int step) const;

  /// Every operation in step order, in id order within a step.  Its cost
  /// does not depend on the step numbers, unlike a walk over the steps.
  [[nodiscard]] std::vector<OpId> ops_by_step(const Dfg& dfg) const;

 private:
  IdMap<OpId, int> step_of_;
  int num_steps_ = 0;
};

}  // namespace lbist
