#include "fuzz/reference.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <ranges>
#include <span>
#include <tuple>
#include <vector>

#include "binding/cbilbo_tracker.hpp"
#include "binding/register_binding.hpp"
#include "binding/sharing.hpp"
#include "bist/roles.hpp"
#include "graph/interval.hpp"
#include "rtl/ipath.hpp"

namespace lbist {

BistSolution full_scan_greedy(const Datapath& dp, const AreaModel& model,
                              bool transparent) {
  std::vector<RoleFlags> flags(dp.registers.size());
  auto with_duties = [](RoleFlags f, const BistEmbedding& e,
                        std::size_t reg) {
    if (reg == e.tpg_left || reg == e.tpg_right) f.tpg = true;
    if (e.sa == reg) {
      f.sa = true;
      f.cbilbo = f.cbilbo || e.needs_cbilbo();
    }
    return f;
  };
  const std::vector<TransparentIPath> paths =
      transparent ? transparent_ipaths(dp) : std::vector<TransparentIPath>{};
  BistSolution sol;
  sol.exact = false;
  sol.embeddings.assign(dp.modules.size(), std::nullopt);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    std::optional<BistEmbedding> best;
    std::tuple<double, int, int> best_cost;
    auto visit = [&](const BistEmbedding& e) {
      const std::size_t regs[] = {e.tpg_left, e.tpg_right, e.sa.value_or(0)};
      const std::size_t touched =
          e.sa.has_value() && !e.needs_cbilbo() ? 3 : 2;
      std::tuple<double, int, int> cost{0.0, 0, 0};
      for (std::size_t i = 0; i < touched; ++i) {
        const BistRole before = flags[regs[i]].role();
        const BistRole after = with_duties(flags[regs[i]], e, regs[i]).role();
        std::get<0>(cost) += model.role_extra(after) - model.role_extra(before);
        std::get<1>(cost) += static_cast<int>(after == BistRole::Cbilbo) -
                             static_cast<int>(before == BistRole::Cbilbo);
        std::get<2>(cost) += static_cast<int>(after != BistRole::None) -
                             static_cast<int>(before != BistRole::None);
      }
      if (!best.has_value() || cost < best_cost) {
        best = e;
        best_cost = cost;
      }
      return true;
    };
    visit_embeddings(embedding_options(dp, m, paths), visit);
    if (!best.has_value()) {
      sol.untestable_modules.push_back(m);
      continue;
    }
    for (std::size_t r : {best->tpg_left, best->tpg_right}) {
      flags[r] = with_duties(flags[r], *best, r);
    }
    if (best->sa.has_value()) {
      flags[*best->sa] = with_duties(flags[*best->sa], *best, *best->sa);
    }
    sol.embeddings[m] = best;
  }
  for (const RoleFlags& f : flags) {
    sol.roles.push_back(f.role());
    sol.extra_area += model.role_extra(f.role());
  }
  return sol;
}

namespace {

/// Sharing and connectivity state of one register.
struct RegState {
  DynBitset share_mask;   ///< union of member sharing masks
  DynBitset src_modules;  ///< modules (+external) writing into it
  DynBitset dst_modules;  ///< modules reading from it
  int sd = 0;             ///< SD(share_mask)
};

/// New interconnect endpoints if a variable with sources `src` and
/// destinations `dst` joins `reg`.
int interconnect_cost(const RegState& reg, const DynBitset& src,
                      const DynBitset& dst) {
  return static_cast<int>(src.count_and_not(reg.src_modules) +
                          dst.count_and_not(reg.dst_modules));
}

}  // namespace

RegisterBinding full_scan_bist_binding(const Dfg& dfg,
                                       const VarConflictGraph& cg,
                                       const ModuleBinding& mb,
                                       const BistBinderOptions& opts) {
  const std::span<const LiveInterval> live = cg.live_intervals();
  const std::size_t n = live.size();
  SharingAnalysis sa(dfg, mb);
  const std::size_t m = sa.num_modules();

  // Structured PVES: by (SD, MCS), ties by vertex index.
  std::vector<int> sd_vtx(n);
  for (std::size_t v = 0; v < n; ++v) sd_vtx[v] = sa.sd(cg.vars[v]);
  std::vector<std::size_t> rank(n);
  {
    std::vector<std::size_t> by_priority(n);
    std::iota(by_priority.begin(), by_priority.end(), std::size_t{0});
    if (opts.sd_ordered_pves) {
      const std::vector<std::size_t> mcs =
          interval_max_clique_through_vertex(live);
      std::stable_sort(by_priority.begin(), by_priority.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (sd_vtx[a] != sd_vtx[b]) {
                           return sd_vtx[a] < sd_vtx[b];
                         }
                         return mcs[a] < mcs[b];
                       });
    }
    for (std::size_t i = 0; i < n; ++i) rank[by_priority[i]] = i;
  }
  const std::vector<std::size_t> peo = interval_elimination_order(live, rank);

  // Per-variable sources (defining module, or m for an input) and
  // destinations (consuming modules).
  std::vector<DynBitset> src(n, DynBitset(m + 1));
  std::vector<DynBitset> dst(n, DynBitset(m + 1));
  for (std::size_t v = 0; v < n; ++v) {
    const Variable& var = dfg.var(cg.vars[v]);
    src[v].set(var.def.valid() ? mb.module_of(var.def).index() : m);
    for (OpId use : var.uses) dst[v].set(mb.module_of(use).index());
  }

  RegisterFile file(dfg.num_vars());
  std::vector<RegState> regs;
  std::optional<CbilboTracker> tracker;
  if (opts.avoid_cbilbo) tracker.emplace(dfg, mb);
  auto assign = [&](std::size_t v, std::size_t r) {
    if (r == regs.size()) {
      regs.push_back(
          RegState{sa.empty_mask(), DynBitset(m + 1), DynBitset(m + 1), 0});
      if (tracker.has_value()) tracker->add_register();
    }
    file.assign(r, cg.vars[v], live[v]);
    RegState& reg = regs[r];
    reg.share_mask |= sa.mask(cg.vars[v]);
    reg.sd = SharingAnalysis::sd_of(reg.share_mask);
    reg.src_modules |= src[v];
    reg.dst_modules |= dst[v];
    if (tracker.has_value()) tracker->assign(cg.vars[v], r);
  };

  std::vector<int> dsd(n);
  std::vector<int> icost(n);
  for (std::size_t v : peo | std::views::reverse) {
    const VarId var = cg.vars[v];
    const DynBitset& vmask = sa.mask(var);
    std::vector<std::size_t> feasible;
    for (std::size_t r = 0; r < file.size(); ++r) {
      if (file.fits(r, live[v])) feasible.push_back(r);
    }
    if (feasible.empty()) {
      assign(v, regs.size());
      continue;
    }
    for (std::size_t r : feasible) {
      dsd[r] = static_cast<int>(vmask.count_and_not(regs[r].share_mask));
      icost[r] = interconnect_cost(regs[r], src[v], dst[v]);
    }
    // Larger ΔSD, then larger SD(R), then cheaper interconnect, then lower
    // index.
    auto better = [&](std::size_t a, std::size_t b) {
      if (dsd[a] != dsd[b]) return dsd[a] > dsd[b];
      if (regs[a].sd != regs[b].sd) return regs[a].sd > regs[b].sd;
      if (icost[a] != icost[b]) return icost[a] < icost[b];
      return a < b;
    };

    std::size_t chosen = feasible.front();  // first fit
    if (opts.delta_sd_rule) {
      const std::size_t r_i =
          *std::min_element(feasible.begin(), feasible.end(), better);
      chosen = r_i;
      if (opts.case_overrides) {
        // Case 1: a register holding an output variable of a module v is an
        // output of; Case 2: two registers holding input variables of a
        // module v is an input of.  Either with SD(R) > SD(R_i, v).
        const int threshold = regs[r_i].sd + dsd[r_i];
        std::vector<std::size_t> candidates;
        for (std::size_t j = 0; j < 2 * m; ++j) {
          if (!vmask.test(j)) continue;
          std::vector<std::size_t> holders;
          for (std::size_t r : feasible) {
            if (r != r_i && regs[r].share_mask.test(j) &&
                regs[r].sd > threshold) {
              holders.push_back(r);
            }
          }
          if (j >= m || holders.size() >= 2) {
            candidates.insert(candidates.end(), holders.begin(),
                              holders.end());
          }
        }
        if (!candidates.empty()) {
          chosen = *std::min_element(candidates.begin(), candidates.end(),
                                     better);
        }
      }
    }

    // CBILBO avoidance: the most preferred register that forces none, if
    // the chosen one would.
    if (opts.avoid_cbilbo && tracker->delta_if_assigned(var, chosen) > 0) {
      std::sort(feasible.begin(), feasible.end(), better);
      for (std::size_t r : feasible) {
        if (r != chosen && tracker->delta_if_assigned(var, r) <= 0) {
          chosen = r;
          break;
        }
      }
    }
    assign(v, chosen);
  }
  return file.take();
}

namespace {

struct Search {
  const UndirectedGraph& g;
  std::vector<std::size_t> best;

  void expand(std::vector<std::size_t>& r, DynBitset p, DynBitset x) {
    if (!p.any() && !x.any()) {
      if (r.size() > best.size()) best = r;
      return;
    }
    // Bound: even taking all of P cannot beat the incumbent.
    if (r.size() + p.count() <= best.size()) return;

    // Pivot: vertex of P ∪ X with the most neighbours in P.
    std::size_t pivot = 0;
    std::size_t pivot_degree = 0;
    bool have_pivot = false;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      if (!p.test(v) && !x.test(v)) continue;
      const std::size_t d = p.intersect_count(g.row(v));
      if (!have_pivot || d > pivot_degree) {
        pivot = v;
        pivot_degree = d;
        have_pivot = true;
      }
    }

    // Candidates: P minus the pivot's neighbourhood.
    DynBitset candidates = p;
    if (have_pivot) {
      g.row(pivot).for_each_set_bit(
          [&](std::size_t v) { candidates.reset(v); });
    }
    for (std::size_t v : candidates.members()) {
      r.push_back(v);
      DynBitset np = p;
      np &= g.row(v);
      DynBitset nx = x;
      nx &= g.row(v);
      expand(r, np, nx);
      r.pop_back();
      p.reset(v);
      x.set(v);
    }
  }
};

}  // namespace

std::vector<std::size_t> max_clique(const UndirectedGraph& g) {
  const std::size_t n = g.num_vertices();
  Search search{g, {}};
  DynBitset p(n), x(n);
  for (std::size_t v = 0; v < n; ++v) p.set(v);
  std::vector<std::size_t> r;
  search.expand(r, p, x);
  std::sort(search.best.begin(), search.best.end());
  return search.best;
}

std::size_t max_clique_size(const UndirectedGraph& g) {
  return max_clique(g).size();
}

}  // namespace lbist
