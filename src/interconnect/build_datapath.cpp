#include "interconnect/build_datapath.hpp"

#include <map>

#include "binding/sharing.hpp"
#include "interconnect/port_assign.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"

namespace lbist {

Datapath build_datapath(const Dfg& dfg, const ModuleBinding& mb,
                        const RegisterBinding& rb,
                        const InterconnectOptions& opts, std::string name,
                        AlgorithmEvents* events) {
  Datapath dp;
  dp.name = name.empty() ? dfg.name() : std::move(name);
  dp.num_allocated = rb.num_regs();

  // Allocated registers.
  for (std::size_t r = 0; r < rb.num_regs(); ++r) {
    DpRegister reg;
    reg.name = "R" + std::to_string(r + 1);
    reg.vars = rb.regs[r];
    for (VarId v : reg.vars) {
      if (dfg.var(v).is_input()) reg.external_source = true;
      if (dfg.var(v).is_output) reg.drives_output = true;
    }
    dp.registers.push_back(std::move(reg));
  }
  // Dedicated input registers for port-resident inputs.
  std::map<VarId, std::size_t> dedicated_of;
  for (const auto& v : dfg.vars()) {
    if (!v.port_resident) continue;
    DpRegister reg;
    reg.name = "IN_" + v.name;
    reg.vars = {v.id};
    reg.dedicated_input = true;
    reg.external_source = true;
    dedicated_of[v.id] = dp.registers.size();
    dp.registers.push_back(std::move(reg));
  }

  auto reg_index = [&](VarId v) -> std::size_t {
    const Variable& var = dfg.var(v);
    if (var.port_resident) return dedicated_of.at(v);
    const RegId r = rb.reg_of[v];
    LBIST_CHECK(r.valid(), "operand variable has no register: " + var.name);
    return r.index();
  };

  // Register sharing degrees (IR^LR promotion weights).
  std::vector<int> weight;
  if (opts.weight_by_sd) {
    SharingAnalysis sa(dfg, mb);
    weight.assign(dp.registers.size(), 0);
    for (std::size_t r = 0; r < dp.registers.size(); ++r) {
      DynBitset mask(2 * mb.num_modules());
      for (VarId v : dp.registers[r].vars) mask |= sa.mask(v);
      weight[r] = SharingAnalysis::sd_of(mask);
    }
  }

  dp.routes.assign(dfg.num_ops(), {});

  // Running side preference per register (+ = mostly left so far).
  std::vector<int> side_bias(dp.registers.size(), 0);

  // Per-module port assignment and connectivity.  Modules the binder left
  // without instances (over-provisioned specs) produce no hardware.
  std::uint64_t promotions = 0;
  for (ModuleId m : mb.all_modules()) {
    if (mb.instances(m).empty()) continue;
    const std::size_t dp_index = dp.modules.size();
    DpModule mod;
    mod.name = mb.module_name(m);
    mod.instances = mb.instances(m);
    // Narrow a multi-function prototype to the kinds actually executed —
    // that is the hardware the data path needs (and pays area for).
    for (OpKind k : mb.proto(m).supports) {
      for (OpId opid : mod.instances) {
        if (dfg.op(opid).kind == k) {
          mod.proto.supports.push_back(k);
          break;
        }
      }
    }

    std::vector<PortConstraint> constraints;
    bool all_commutative = true;
    for (OpId opid : mod.instances) {
      const Operation& op = dfg.op(opid);
      constraints.push_back(PortConstraint{reg_index(op.lhs),
                                           reg_index(op.rhs),
                                           is_commutative(op.kind)});
      all_commutative = all_commutative && is_commutative(op.kind);
    }
    PortAssignment pa =
        assign_ports(dp.registers.size(), constraints, weight);
    promotions += pa.promotions;

    // Section IV: the L/R split of a commutative module is symmetric, so
    // flip it for free when that aligns registers with the side they feed
    // in the modules already placed — shared (left, right) pairs across
    // modules are exactly what lets one TPG pair test several modules.
    if (all_commutative) {
      int agreement = 0;
      for (std::size_t r = 0; r < pa.side.size(); ++r) {
        if (pa.side[r] == PortSide::Left) agreement += side_bias[r];
        if (pa.side[r] == PortSide::Right) agreement -= side_bias[r];
      }
      if (agreement < 0) {
        if (events != nullptr) events->port_flip(mod.name);
        for (auto& s : pa.side) {
          if (s == PortSide::Left) {
            s = PortSide::Right;
          } else if (s == PortSide::Right) {
            s = PortSide::Left;
          }
        }
      }
    }
    for (std::size_t r = 0; r < pa.side.size(); ++r) {
      if (pa.side[r] == PortSide::Left) ++side_bias[r];
      if (pa.side[r] == PortSide::Right) --side_bias[r];
    }

    for (std::size_t i = 0; i < mod.instances.size(); ++i) {
      const Operation& op = dfg.op(mod.instances[i]);
      const std::size_t lr = constraints[i].lhs_reg;
      const std::size_t rr = constraints[i].rhs_reg;

      bool lhs_to_left;
      if (!is_commutative(op.kind)) {
        lhs_to_left = true;
      } else if (lr == rr) {
        lhs_to_left = true;  // same register feeds both ports
      } else if (pa.side[lr] == PortSide::Left ||
                 (pa.side[lr] == PortSide::Both &&
                  pa.side[rr] != PortSide::Left)) {
        lhs_to_left = true;
      } else {
        lhs_to_left = false;
      }

      const std::size_t to_left = lhs_to_left ? lr : rr;
      const std::size_t to_right = lhs_to_left ? rr : lr;
      const bool left_merged = !mod.left_sources.insert(to_left).second;
      const bool right_merged = !mod.right_sources.insert(to_right).second;
      if (events != nullptr) {
        events->mux_input(mod.name, to_left, 'L', left_merged);
        events->mux_input(mod.name, to_right, 'R', right_merged);
      }
      dp.routes[op.id] = {OperandRoute{lr, lhs_to_left},
                          OperandRoute{rr, !lhs_to_left}};

      const Variable& result = dfg.var(op.result);
      if (result.control_only) {
        mod.drives_control = true;
      } else {
        const std::size_t dest = reg_index(op.result);
        mod.dest_registers.insert(dest);
        dp.registers[dest].source_modules.insert(dp_index);
      }
    }
    dp.modules.push_back(std::move(mod));
  }
  if (events != nullptr) events->interconnect_promotions(promotions);
  return dp;
}

}  // namespace lbist
