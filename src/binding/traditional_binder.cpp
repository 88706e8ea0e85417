#include "binding/traditional_binder.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <utility>

namespace lbist {

RegisterBinding bind_registers_traditional(
    const Dfg& dfg, const VarConflictGraph& cg,
    const IdMap<VarId, LiveInterval>& lifetimes) {
  // Left-edge: sort by birth (ties: death, then id), pack each variable
  // into the first register whose current occupant has already died.
  std::vector<std::size_t> order(cg.vars.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ia = lifetimes[cg.vars[a]];
    const auto& ib = lifetimes[cg.vars[b]];
    if (ia.birth != ib.birth) return ia.birth < ib.birth;
    if (ia.death != ib.death) return ia.death < ib.death;
    return a < b;
  });

  RegisterBinding rb;
  rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
  // Expiry heap + index-ordered free set instead of a linear register scan:
  // the lowest-indexed free register is exactly what the scan found, in
  // O(log R) per variable instead of O(R).
  std::set<std::size_t> free_regs;
  std::priority_queue<std::pair<int, std::size_t>,
                      std::vector<std::pair<int, std::size_t>>,
                      std::greater<>>
      busy;  // (last death, register)
  for (std::size_t v : order) {
    const auto& iv = lifetimes[cg.vars[v]];
    while (!busy.empty() && busy.top().first <= iv.birth) {
      free_regs.insert(busy.top().second);
      busy.pop();
    }
    std::size_t r;
    if (!free_regs.empty()) {
      r = *free_regs.begin();
      free_regs.erase(free_regs.begin());
    } else {
      r = rb.regs.size();
      rb.regs.emplace_back();
    }
    busy.emplace(iv.death, r);
    rb.regs[r].push_back(cg.vars[v]);
    rb.reg_of[cg.vars[v]] = RegId{static_cast<RegId::value_type>(r)};
  }
  return rb;
}

}  // namespace lbist
