#include "baselines/ralloc.hpp"

#include <ranges>

#include "binding/sharing.hpp"
#include "graph/interval.hpp"

namespace lbist {

RegisterBinding bind_registers_ralloc(const Dfg& dfg,
                                      const VarConflictGraph& cg,
                                      const ModuleBinding& mb) {
  const std::span<const LiveInterval> live = cg.live_intervals();
  const std::vector<std::size_t> peo = interval_elimination_order(live);
  const SharingAnalysis sa(dfg, mb);

  RegisterFile file(dfg.num_vars());
  // Per register: the union of its members' sharing masks, i.e. the
  // modules it feeds (bit j) and is fed by (bit m+j).
  std::vector<DynBitset> masks;
  for (std::size_t v : peo | std::views::reverse) {
    const DynBitset& vmask = sa.mask(cg.vars[v]);
    std::size_t chosen = file.size();  // default: fresh register
    // Prefer a feasible register where the merge does not create a *new*
    // self-adjacency.
    for (std::size_t r = 0; r < file.size(); ++r) {
      if (!file.fits(r, live[v])) continue;
      DynBitset merged = masks[r];
      merged |= vmask;
      if (!sa.self_adjacent(merged) || sa.self_adjacent(masks[r])) {
        chosen = r;
        break;
      }
    }
    // A fresh register trades area for testability — Avra's tradeoff.  If
    // the vertex conflicts with everything anyway the fresh register is
    // mandatory; otherwise it is opened only to dodge a new self-adjacency.
    if (chosen == masks.size()) masks.push_back(sa.empty_mask());
    masks[chosen] |= vmask;
    file.assign(chosen, cg.vars[v], live[v]);
  }
  return file.take();
}

BistSolution ralloc_bist_labelling(const Datapath& dp,
                                   const AreaModel& model) {
  BistSolution sol;
  sol.roles.assign(dp.registers.size(), BistRole::None);
  sol.embeddings.assign(dp.modules.size(), std::nullopt);

  std::vector<bool> self_adj(dp.registers.size(), false);
  for (std::size_t r : dp.self_adjacent_registers()) self_adj[r] = true;

  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    bool touches = false;
    for (const auto& mod : dp.modules) {
      if (mod.left_sources.count(r) > 0 || mod.right_sources.count(r) > 0 ||
          mod.dest_registers.count(r) > 0) {
        touches = true;
        break;
      }
    }
    if (!touches) continue;
    sol.roles[r] = self_adj[r] ? BistRole::Cbilbo : BistRole::TpgSa;
    sol.extra_area += model.role_extra(sol.roles[r]);
  }
  return sol;
}

}  // namespace lbist
