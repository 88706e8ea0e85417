#include "baselines/syntest.hpp"

#include <ranges>

#include "binding/sharing.hpp"
#include "graph/interval.hpp"

namespace lbist {

RegisterBinding bind_registers_syntest(const Dfg& dfg,
                                       const VarConflictGraph& cg,
                                       const ModuleBinding& mb) {
  const std::span<const LiveInterval> live = cg.live_intervals();
  const std::vector<std::size_t> peo = interval_elimination_order(live);
  const SharingAnalysis sa(dfg, mb);

  RegisterFile file(dfg.num_vars());
  // Per register: the modules it feeds (bit j) and is fed by (bit m+j).
  std::vector<DynBitset> masks;
  for (std::size_t v : peo | std::views::reverse) {
    const DynBitset& vmask = sa.mask(cg.vars[v]);
    std::size_t chosen = file.size();
    for (std::size_t r = 0; r < file.size(); ++r) {
      if (!file.fits(r, live[v])) continue;
      DynBitset merged = masks[r];
      merged |= vmask;
      // Template: (a) no self-loop (module both fed by and feeding the
      // register), (b) register stays single-role (TPG xor SA).
      if (!sa.self_adjacent(merged) &&
          (!sa.feeds_and_is_fed(merged) || sa.feeds_and_is_fed(masks[r]))) {
        chosen = r;
        break;
      }
    }
    if (chosen == masks.size()) masks.push_back(sa.empty_mask());
    masks[chosen] |= vmask;
    file.assign(chosen, cg.vars[v], live[v]);
  }
  return file.take();
}

BistSolution syntest_bist_labelling(const Datapath& dp,
                                    const AreaModel& model) {
  BistSolution sol;
  sol.roles.assign(dp.registers.size(), BistRole::None);
  sol.embeddings.assign(dp.modules.size(), std::nullopt);

  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    bool feeds = false;
    bool fed = false;
    for (const auto& mod : dp.modules) {
      if (mod.left_sources.count(r) > 0 || mod.right_sources.count(r) > 0) {
        feeds = true;
      }
      if (mod.dest_registers.count(r) > 0) fed = true;
    }
    if (feeds && fed) {
      sol.roles[r] = BistRole::TpgSa;  // template violation fallback
    } else if (feeds) {
      sol.roles[r] = BistRole::Tpg;
    } else if (fed) {
      sol.roles[r] = BistRole::Sa;
    }
    sol.extra_area += model.role_extra(sol.roles[r]);
  }
  return sol;
}

}  // namespace lbist
