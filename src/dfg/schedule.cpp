#include "dfg/schedule.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lbist {

Schedule::Schedule(const Dfg& dfg, IdMap<OpId, int> step_of)
    : step_of_(std::move(step_of)) {
  LBIST_CHECK(step_of_.size() == dfg.num_ops(),
              "schedule must cover every operation");
  for (const auto& op : dfg.ops()) {
    const int s = step_of_[op.id];
    LBIST_CHECK(s >= 1, "control steps are 1-based");
    num_steps_ = std::max(num_steps_, s);
    for (VarId operand : {op.lhs, op.rhs}) {
      const Variable& v = dfg.var(operand);
      if (v.def.valid()) {
        LBIST_CHECK(step_of_[v.def] < s,
                    "operation " + op.name +
                        " reads a value produced in the same or a later step "
                        "(no chaining in the RT timing model)");
      }
    }
  }
}

std::vector<OpId> Schedule::ops_in_step(const Dfg& dfg, int step) const {
  std::vector<OpId> result;
  for (const auto& op : dfg.ops()) {
    if (step_of_[op.id] == step) result.push_back(op.id);
  }
  return result;
}

std::vector<OpId> Schedule::ops_by_step(const Dfg& dfg) const {
  std::vector<OpId> result;
  result.reserve(dfg.num_ops());
  for (const auto& op : dfg.ops()) result.push_back(op.id);
  std::stable_sort(result.begin(), result.end(), [&](OpId a, OpId b) {
    return step_of_[a] < step_of_[b];
  });
  return result;
}

}  // namespace lbist
