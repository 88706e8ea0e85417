#include "rtl/controller.hpp"

#include <algorithm>
#include <tuple>

#include "rtl/verilog.hpp"
#include "support/check.hpp"

namespace lbist {

namespace {

/// dp-module index executing `op` (dp.modules may be a subsequence of the
/// binder's modules when a spec over-provisions).
std::size_t dp_module_of(const Datapath& dp, OpId op) {
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    for (OpId inst : dp.modules[m].instances) {
      if (inst == op) return m;
    }
  }
  throw Error("operation not mapped to any datapath module");
}

int index_in(const std::set<std::size_t>& sorted_set, std::size_t value) {
  int i = 0;
  for (std::size_t member : sorted_set) {
    if (member == value) return i;
    ++i;
  }
  throw Error("source register not connected to the expected port");
}

}  // namespace

std::vector<int> Controller::register_sources(const Datapath& dp,
                                              std::size_t r) {
  std::vector<int> sources;
  for (std::size_t m : dp.registers[r].source_modules) {
    sources.push_back(static_cast<int>(m));
  }
  if (dp.registers[r].external_source) sources.push_back(-1);  // external
  return sources;
}

int select_bits(std::size_t n_inputs) {
  int bits = 1;
  while ((std::size_t{1} << bits) < n_inputs) ++bits;
  return bits;
}

std::optional<int> DpPort::value(const Datapath& dp,
                                 const ControlWord& word) const {
  LBIST_CHECK(is_control(), "port " + name + " is not a control input");
  if (kind == Kind::Enable || kind == Kind::Select) {
    const RegControl& rc = word.regs[owner];
    if (!rc.enable) return std::nullopt;
    return kind == Kind::Enable ? 1 : rc.select;
  }
  const ModuleControl& mc = word.modules[owner];
  if (!mc.active) return std::nullopt;
  if (kind == Kind::Op) return kind_index(dp.modules[owner].proto, mc.op);
  return kind == Kind::LeftSelect ? mc.left_select : mc.right_select;
}

std::vector<DpPort> datapath_ports(const Datapath& dp, int width) {
  using Kind = DpPort::Kind;
  std::vector<DpPort> ports;
  auto add = [&](Kind kind, std::size_t owner, std::string name, int bits) {
    ports.push_back(DpPort{kind, owner, std::move(name), bits});
  };
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const DpRegister& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    const std::vector<int> sources = Controller::register_sources(dp, r);
    if (!sources.empty() && sources.back() < 0) {
      add(Kind::Load, r, "load_" + rn, width);
    }
    add(Kind::Enable, r, "en_" + rn, 1);
    if (sources.size() > 1) {
      add(Kind::Select, r, "sel_" + rn, select_bits(sources.size()));
    }
    if (reg.drives_output) add(Kind::Out, r, "out_" + rn, width);
  }
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    const std::string mn = verilog_ident(mod.name);
    for (const auto& [kind, side, sources] :
         {std::tuple{Kind::LeftSelect, "_l", &mod.left_sources},
          std::tuple{Kind::RightSelect, "_r", &mod.right_sources}}) {
      if (sources->size() > 1) {
        add(kind, m, "sel_" + mn + side, select_bits(sources->size()));
      }
    }
    if (mod.proto.supports.size() > 1) add(Kind::Op, m, "op_" + mn, 4);
    if (mod.drives_control) add(Kind::Ctrl, m, "ctrl_" + mn, 1);
  }
  return ports;
}

const DpPort* find_port(const std::vector<DpPort>& ports, DpPort::Kind kind,
                        std::size_t owner) {
  // datapath_ports orders register ports before module ports, then by
  // owner, then by kind.
  auto key = [](DpPort::Kind k, std::size_t o) {
    return std::tuple(k >= DpPort::Kind::LeftSelect, o, k);
  };
  const auto it = std::ranges::lower_bound(
      ports, key(kind, owner), {},
      [&](const DpPort& p) { return key(p.kind, p.owner); });
  if (it == ports.end() || it->kind != kind || it->owner != owner) {
    return nullptr;
  }
  return &*it;
}

Controller Controller::generate(const Dfg& dfg, const Schedule& sched,
                                const RegisterBinding& rb, const Datapath& dp,
                                const IdMap<VarId, LiveInterval>& lifetimes) {
  Controller ctl;
  ctl.words_.assign(static_cast<std::size_t>(sched.num_steps()) + 1,
                    ControlWord{});
  for (auto& w : ctl.words_) {
    w.regs.assign(dp.registers.size(), RegControl{});
    w.modules.assign(dp.modules.size(), ModuleControl{});
  }

  auto reg_select_of = [&](std::size_t r, int source_module) {
    auto sources = register_sources(dp, r);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i] == source_module) return static_cast<int>(i);
    }
    throw Error("register " + dp.registers[r].name +
                " has no mux input for the requested source");
  };

  auto schedule_write = [&](int step, std::size_t r, int source_module,
                            VarId var) {
    auto& rc = ctl.words_[static_cast<std::size_t>(step)].regs[r];
    LBIST_CHECK(!rc.enable, "register " + dp.registers[r].name +
                                " written twice in step " +
                                std::to_string(step));
    rc.enable = true;
    rc.select = reg_select_of(r, source_module);
    rc.var = var;
  };

  // Input loads (external source = -1) at the end of the variable's birth
  // step; dedicated input registers load everything up front.
  for (const auto& v : dfg.vars()) {
    if (!v.is_input()) continue;
    if (v.port_resident) {
      for (std::size_t r = 0; r < dp.registers.size(); ++r) {
        if (dp.registers[r].dedicated_input &&
            dp.registers[r].vars.size() == 1 &&
            dp.registers[r].vars[0] == v.id) {
          schedule_write(0, r, -1, v.id);
        }
      }
    } else {
      const RegId reg = rb.reg_of[v.id];
      LBIST_CHECK(reg.valid(), "input variable unbound: " + v.name);
      schedule_write(lifetimes[v.id].birth, reg.index(), -1, v.id);
    }
  }

  // Operation execution and result writes.
  for (const auto& op : dfg.ops()) {
    const int step = sched.step(op.id);
    const std::size_t m = dp_module_of(dp, op.id);
    const DpModule& mod = dp.modules[m];

    auto& mc = ctl.words_[static_cast<std::size_t>(step)].modules[m];
    LBIST_CHECK(!mc.active, "module " + mod.name + " used twice in step " +
                                std::to_string(step));
    mc.active = true;
    mc.op = op.kind;
    mc.instance = op.id;

    const auto& [lroute, rroute] = dp.routes[op.id];
    const OperandRoute& to_left = lroute.to_left ? lroute : rroute;
    const OperandRoute& to_right = lroute.to_left ? rroute : lroute;
    mc.left_select = index_in(mod.left_sources, to_left.reg);
    mc.right_select = index_in(mod.right_sources, to_right.reg);

    const Variable& result = dfg.var(op.result);
    if (!result.control_only) {
      const RegId dest = rb.reg_of[op.result];
      LBIST_CHECK(dest.valid(), "result variable unbound: " + result.name);
      schedule_write(step, dest.index(), static_cast<int>(m), op.result);
    }
  }
  return ctl;
}

}  // namespace lbist
