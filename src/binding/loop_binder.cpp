#include "binding/loop_binder.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace lbist {

std::vector<AllocationUnit> allocation_units(const Dfg& dfg) {
  IdMap<VarId, char> tied(dfg.num_vars(), 0);
  std::vector<AllocationUnit> units;
  for (const auto& [carried, init] : dfg.loop_ties()) {
    LBIST_CHECK(dfg.var(carried).allocatable() &&
                    dfg.var(init).allocatable(),
                "loop-tied variables must be allocatable");
    units.push_back(AllocationUnit{{carried, init}});
    tied[carried] = 1;
    tied[init] = 1;
  }
  for (const auto& v : dfg.vars()) {
    if (v.allocatable() && tied[v.id] == 0) {
      units.push_back(AllocationUnit{{v.id}});
    }
  }
  return units;
}

RegisterBinding bind_registers_loop_aware(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes) {
  std::vector<AllocationUnit> units = allocation_units(dfg);

  // Within a unit the members must not overlap (a tie whose carried value
  // is produced before the init value dies cannot share a register even
  // across iterations).
  for (const auto& unit : units) {
    for (std::size_t a = 0; a < unit.vars.size(); ++a) {
      for (std::size_t b = a + 1; b < unit.vars.size(); ++b) {
        LBIST_CHECK(!lifetimes[unit.vars[a]].overlaps(
                        lifetimes[unit.vars[b]]),
                    "loop-tied variables overlap within one iteration: " +
                        dfg.var(unit.vars[a]).name + " and " +
                        dfg.var(unit.vars[b]).name);
      }
    }
  }

  auto span_of = [&](const AllocationUnit& u) {
    int span = 0;
    for (VarId v : u.vars) {
      span += lifetimes[v].death - lifetimes[v].birth;
    }
    return span;
  };

  // Longest units first (they are the hardest to place), then first fit.
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return span_of(units[a]) > span_of(units[b]);
                   });

  RegisterFile file(dfg.num_vars());
  for (std::size_t u : order) {
    const std::vector<VarId>& vars = units[u].vars;
    auto unit_fits = [&](std::size_t r) {
      return std::all_of(vars.begin(), vars.end(), [&](VarId v) {
        return file.fits(r, lifetimes[v]);
      });
    };
    std::size_t target = 0;
    while (target < file.size() && !unit_fits(target)) ++target;
    for (VarId v : vars) file.assign(target, v, lifetimes[v]);
  }
  return file.take();
}

}  // namespace lbist
