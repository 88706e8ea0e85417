#include "binding/module_binding.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lbist {

namespace {

/// Kuhn's augmenting-path matching: op index -> module index.
/// `compatible[o]` lists the modules op o may use, in preference order.
bool try_augment(std::size_t o,
                 const std::vector<std::vector<std::size_t>>& compatible,
                 std::vector<bool>& visited,
                 std::vector<std::size_t>& module_taken_by) {
  for (std::size_t m : compatible[o]) {
    if (visited[m]) continue;
    visited[m] = true;
    if (module_taken_by[m] == SIZE_MAX ||
        try_augment(module_taken_by[m], compatible, visited,
                    module_taken_by)) {
      module_taken_by[m] = o;
      return true;
    }
  }
  return false;
}

}  // namespace

ModuleBinding ModuleBinding::bind(const Dfg& dfg, const Schedule& sched,
                                  std::vector<ModuleProto> protos) {
  ModuleBinding b;
  b.protos_ = std::move(protos);
  b.module_of_.assign(dfg.num_ops(), ModuleId::invalid());
  b.instances_.resize(b.protos_.size());

  // Count of instances per (module, kind), used to prefer packing same-kind
  // operations onto the same module across steps.
  std::vector<std::vector<int>> kind_count(
      b.protos_.size(), std::vector<int>(16, 0));

  const std::vector<OpId> by_step = sched.ops_by_step(dfg);
  for (auto first = by_step.begin(); first != by_step.end();) {
    const int step = sched.step(*first);
    const auto last = std::find_if(first, by_step.end(), [&](OpId op) {
      return sched.step(op) != step;
    });
    const std::vector<OpId> ops(first, last);
    first = last;

    std::vector<std::vector<std::size_t>> compatible(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpKind kind = dfg.op(ops[i]).kind;
      for (std::size_t m = 0; m < b.protos_.size(); ++m) {
        if (b.protos_[m].supports_kind(kind)) compatible[i].push_back(m);
      }
      // Prefer specialized units over general ALUs, then balance load so
      // every provisioned module is actually used (the paper's pinned
      // assignments, e.g. "2+", intend one instance per adder), and among
      // equally-loaded ALUs prefer one already executing this kind (fewer
      // distinct functions per ALU).
      std::stable_sort(
          compatible[i].begin(), compatible[i].end(),
          [&](std::size_t x, std::size_t y) {
            if (b.protos_[x].supports.size() != b.protos_[y].supports.size()) {
              return b.protos_[x].supports.size() <
                     b.protos_[y].supports.size();
            }
            if (b.instances_[x].size() != b.instances_[y].size()) {
              return b.instances_[x].size() < b.instances_[y].size();
            }
            const int cx = kind_count[x][static_cast<std::size_t>(kind)];
            const int cy = kind_count[y][static_cast<std::size_t>(kind)];
            return cx > cy;
          });
      LBIST_CHECK(!compatible[i].empty(),
                  "no module supports operation " + dfg.op(ops[i]).name);
    }

    std::vector<std::size_t> module_taken_by(b.protos_.size(), SIZE_MAX);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::vector<bool> visited(b.protos_.size(), false);
      LBIST_CHECK(try_augment(i, compatible, visited, module_taken_by),
                  "module spec cannot execute step " + std::to_string(step) +
                      " (operation " + dfg.op(ops[i]).name + " unplaced)");
    }
    for (std::size_t m = 0; m < b.protos_.size(); ++m) {
      if (module_taken_by[m] == SIZE_MAX) continue;
      const OpId op = ops[module_taken_by[m]];
      b.module_of_[op] = ModuleId{static_cast<ModuleId::value_type>(m)};
      b.instances_[m].push_back(op);
      ++kind_count[m][static_cast<std::size_t>(dfg.op(op).kind)];
    }
  }

  b.build_derived_sets(dfg);
  return b;
}

ModuleBinding ModuleBinding::restore(const Dfg& dfg, const Schedule& sched,
                                     std::vector<ModuleProto> protos,
                                     const IdMap<OpId, ModuleId>& module_of) {
  ModuleBinding b;
  b.protos_ = std::move(protos);
  LBIST_CHECK(module_of.size() == dfg.num_ops(),
              "module assignment does not cover the design");
  b.module_of_.assign(dfg.num_ops(), ModuleId::invalid());
  b.instances_.resize(b.protos_.size());

  // Walking steps in order and ops in id order within a step reproduces
  // bind()'s per-module instance order exactly: a module executes at most
  // one operation per step, so both traversals append in step order.
  std::vector<char> taken(b.protos_.size());
  int step = 0;
  for (OpId op : sched.ops_by_step(dfg)) {
    if (sched.step(op) != step) {
      step = sched.step(op);
      std::fill(taken.begin(), taken.end(), 0);
    }
    const ModuleId m = module_of[op];
    LBIST_CHECK(m.valid() && m.index() < b.protos_.size(),
                "operation " + dfg.op(op).name +
                    " assigned to an unknown module");
    LBIST_CHECK(b.protos_[m.index()].supports_kind(dfg.op(op).kind),
                "module cannot execute operation " + dfg.op(op).name);
    LBIST_CHECK(taken[m.index()] == 0,
                "two operations on one module in step " +
                    std::to_string(step));
    taken[m.index()] = 1;
    b.module_of_[op] = m;
    b.instances_[m.index()].push_back(op);
  }
  b.build_derived_sets(dfg);
  return b;
}

void ModuleBinding::build_derived_sets(const Dfg& dfg) {
  // Derived variable sets over allocatable variables.
  auto allocatable = [&](VarId v) { return dfg.var(v).allocatable(); };
  input_vars_.assign(protos_.size(), DynBitset(dfg.num_vars()));
  output_vars_.assign(protos_.size(), DynBitset(dfg.num_vars()));
  instance_operands_.assign(protos_.size(), {});
  for (std::size_t m = 0; m < protos_.size(); ++m) {
    for (OpId opid : instances_[m]) {
      const Operation& op = dfg.op(opid);
      DynBitset operands(dfg.num_vars());
      for (VarId v : {op.lhs, op.rhs}) {
        if (allocatable(v)) {
          input_vars_[m].set(v.index());
          operands.set(v.index());
        }
      }
      if (allocatable(op.result)) {
        output_vars_[m].set(op.result.index());
      }
      instance_operands_[m].push_back(std::move(operands));
    }
  }
}

std::string ModuleBinding::module_name(ModuleId m) const {
  return "M" + std::to_string(m.value() + 1) + "(" +
         protos_[m.index()].label() + ")";
}

std::vector<ModuleId> ModuleBinding::all_modules() const {
  std::vector<ModuleId> out;
  out.reserve(protos_.size());
  for (std::size_t m = 0; m < protos_.size(); ++m) {
    out.push_back(ModuleId{static_cast<ModuleId::value_type>(m)});
  }
  return out;
}

}  // namespace lbist
