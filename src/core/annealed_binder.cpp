#include "core/annealed_binder.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <span>

#include "binding/bist_aware_binder.hpp"
#include "bist/allocator.hpp"
#include "interconnect/build_datapath.hpp"
#include "support/check.hpp"

namespace lbist {

double binding_cost(const Dfg& dfg, const ModuleBinding& mb,
                    const RegisterBinding& rb, const AreaModel& model) {
  const Datapath dp = build_datapath(dfg, mb, rb);
  BistAllocator alloc(model);
  const BistSolution sol = alloc.solve(dp);
  double mux_area = 0.0;
  for (const auto& mod : dp.modules) {
    mux_area += model.mux_area(mod.left_sources.size());
    mux_area += model.mux_area(mod.right_sources.size());
  }
  for (const auto& reg : dp.registers) {
    mux_area += model.mux_area(reg.source_modules.size() +
                               (reg.external_source ? 1u : 0u));
  }
  return sol.extra_area + mux_area;
}

RegisterBinding bind_registers_annealed(const Dfg& dfg,
                                        const VarConflictGraph& cg,
                                        const ModuleBinding& mb,
                                        const AreaModel& model,
                                        const AnnealOptions& opts) {
  RegisterBinding current = bind_registers_bist_aware(dfg, cg, mb);
  if (cg.vars.empty()) return current;
  const std::span<const LiveInterval> live = cg.live_intervals();

  double current_cost = binding_cost(dfg, mb, current, model);
  RegisterBinding best = current;
  double best_cost = current_cost;

  std::mt19937_64 rng(opts.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick_vertex(
      0, cg.vars.size() - 1);

  double temperature = opts.initial_temperature;
  for (int iter = 0; iter < opts.iterations; ++iter) {
    temperature *= opts.cooling;

    // Move: push one variable into another register it does not conflict
    // with (possibly emptying its old register, which is then dropped).
    const std::size_t vertex = pick_vertex(rng);
    const VarId var = cg.vars[vertex];
    const RegId from = current.reg_of[var];

    std::vector<std::size_t> targets;
    for (std::size_t r = 0; r < current.num_regs(); ++r) {
      if (r == from.index()) continue;
      const bool ok = std::none_of(
          current.regs[r].begin(), current.regs[r].end(), [&](VarId member) {
            return live[vertex].overlaps(live[cg.vertex(member)]);
          });
      if (ok) targets.push_back(r);
    }
    if (targets.empty()) continue;
    std::uniform_int_distribution<std::size_t> pick_target(
        0, targets.size() - 1);
    const std::size_t to = targets[pick_target(rng)];

    RegisterBinding candidate = current;
    auto& from_vars = candidate.regs[from.index()];
    from_vars.erase(std::find(from_vars.begin(), from_vars.end(), var));
    candidate.regs[to].push_back(var);
    candidate.reg_of[var] = RegId{static_cast<RegId::value_type>(to)};
    // Drop an emptied register (renumber).
    if (from_vars.empty()) {
      candidate.regs.erase(candidate.regs.begin() +
                           static_cast<std::ptrdiff_t>(from.index()));
      candidate.reg_of.assign(dfg.num_vars(), RegId::invalid());
      for (std::size_t r = 0; r < candidate.regs.size(); ++r) {
        for (VarId member : candidate.regs[r]) {
          candidate.reg_of[member] =
              RegId{static_cast<RegId::value_type>(r)};
        }
      }
    } else if (opts.keep_register_count &&
               candidate.num_regs() > best.num_regs()) {
      continue;
    }

    const double cost = binding_cost(dfg, mb, candidate, model);
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        uniform(rng) < std::exp(-delta / std::max(temperature, 1e-6))) {
      current = std::move(candidate);
      current_cost = cost;
      if (cost < best_cost) {
        best = current;
        best_cost = cost;
      }
    }
  }
  return best;
}

}  // namespace lbist
