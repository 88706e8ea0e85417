#include "binding/bist_aware_binder.hpp"

#include <algorithm>
#include <optional>
#include <numeric>
#include <span>
#include <sstream>

#include "binding/cbilbo_check.hpp"
#include "binding/cbilbo_tracker.hpp"
#include "binding/sharing.hpp"
#include "graph/interval.hpp"
#include "obs/events.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"

namespace lbist {

namespace {

/// Incremental register state kept by the binder.
struct RegState {
  std::vector<std::size_t> members;  ///< conflict-graph vertices
  DisjointIntervals lifetimes;       ///< members' live intervals
  DynBitset var_mask;                ///< members as a bitset over VarId
  DynBitset share_mask;              ///< union of member sharing masks
  DynBitset src_modules;             ///< modules (+external) writing into it
  DynBitset dst_modules;             ///< modules reading from it
  int sd = 0;                        ///< SD(share_mask), cached
};

/// Per-variable connectivity footprint used by the interconnect tie-break.
struct VarFootprint {
  DynBitset src;  ///< defining module, or the external-input pseudo-module
  DynBitset dst;  ///< consuming modules
};

/// Estimated new interconnect endpoints if v joins R: sources and
/// destinations of v that R does not already have (Section IV's merge-case
/// reasoning, used only to break ties).
int interconnect_cost(const RegState& reg, const VarFootprint& fp) {
  return static_cast<int>(fp.src.count_and_not(reg.src_modules) +
                          fp.dst.count_and_not(reg.dst_modules));
}

}  // namespace

RegisterBinding bind_registers_bist_aware(const Dfg& dfg,
                                          const VarConflictGraph& cg,
                                          const ModuleBinding& mb,
                                          const BistBinderOptions& opts,
                                          std::vector<std::string>* trace,
                                          AlgorithmEvents* events) {
  const std::size_t n = cg.graph.num_vertices();
  const std::span<const LiveInterval> live = cg.live_intervals();
  SharingAnalysis sa(dfg, mb);
  const std::size_t m = sa.num_modules();

  auto say = [&](const std::string& line) {
    if (trace != nullptr) trace->push_back(line);
  };

  // --- 1. Structured PVES (Section III.A.1) -------------------------------
  // Per-vertex SD is popcount of a static mask; hoist it out of the sort
  // comparator (it used to be recomputed O(n log n) times).
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
      if (events != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t v = by_priority[i];
          events->pves_rank(dfg.var(cg.vars[v]).name, sd_vtx[v], mcs[v], i);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) rank[by_priority[i]] = i;
  }
  const std::vector<std::size_t> peo = interval_elimination_order(live, rank);
  std::vector<std::size_t> color_order(peo.rbegin(), peo.rend());

  // --- per-variable connectivity footprints --------------------------------
  std::vector<VarFootprint> fp(n, VarFootprint{DynBitset(m + 1),
                                               DynBitset(m + 1)});
  for (std::size_t v = 0; v < n; ++v) {
    const Variable& var = dfg.var(cg.vars[v]);
    if (var.def.valid()) {
      fp[v].src.set(mb.module_of(var.def).index());
    } else {
      fp[v].src.set(m);  // external input
    }
    for (OpId use : var.uses) fp[v].dst.set(mb.module_of(use).index());
  }

  // --- 2. Coloring in reverse PVES order (Section III.A.2, III.B) ---------
  std::vector<RegState> regs;
  std::optional<CbilboTracker> tracker;
  if (opts.avoid_cbilbo) tracker.emplace(dfg, mb);
  auto reg_masks = [&] {
    std::vector<DynBitset> out;
    out.reserve(regs.size());
    for (const auto& r : regs) out.push_back(r.var_mask);
    return out;
  };

  auto assign = [&](std::size_t v, std::size_t r) {
    RegState& reg = regs[r];
    reg.members.push_back(v);
    reg.lifetimes.insert(live[v]);
    reg.var_mask.set(cg.vars[v].index());
    reg.sd +=
        static_cast<int>(sa.mask(cg.vars[v]).count_and_not(reg.share_mask));
    reg.share_mask |= sa.mask(cg.vars[v]);
    reg.src_modules |= fp[v].src;
    reg.dst_modules |= fp[v].dst;
    if (tracker.has_value()) tracker->assign(cg.vars[v], r);
  };

  // Per-step scratch, arena-backed and register-indexed: ΔSD, tie-break
  // interconnect cost, feasibility.  A register count never exceeds n.
  Arena arena;
  std::span<int> dsd = arena.alloc_zeroed<int>(n);
  std::span<int> icost = arena.alloc_zeroed<int>(n);
  std::vector<std::size_t> feasible;
  feasible.reserve(n);

  for (std::size_t v : color_order) {
    const VarId var = cg.vars[v];
    const DynBitset& vmask = sa.mask(var);

    // Non-conflicting registers.
    feasible.clear();
    for (std::size_t r = 0; r < regs.size(); ++r) {
      if (!regs[r].lifetimes.overlaps(live[v])) feasible.push_back(r);
    }
    if (feasible.empty()) {
      RegState fresh{{},
                     {},
                     DynBitset(dfg.num_vars()),
                     sa.empty_mask(),
                     DynBitset(m + 1),
                     DynBitset(m + 1),
                     0};
      regs.push_back(std::move(fresh));
      if (tracker.has_value()) tracker->add_register();
      assign(v, regs.size() - 1);
      say("assign " + dfg.var(var).name + " -> R" +
          std::to_string(regs.size()) + " (new register)");
      if (events != nullptr) {
        events->assign(dfg.var(var).name, regs.size() - 1, sd_vtx[v],
                       /*new_register=*/true, {});
      }
      continue;
    }

    // ΔSD and tie-break cost for each feasible register.  ΔSD is the
    // word-parallel |mask(v) \ share_mask(R)| — no merged mask is built,
    // and SD(R) itself is cached on the register.
    for (std::size_t r : feasible) {
      dsd[r] = static_cast<int>(vmask.count_and_not(regs[r].share_mask));
      icost[r] = interconnect_cost(regs[r], fp[v]);
    }
    // Preference: larger ΔSD, then larger SD(R), then cheaper interconnect,
    // then lower index.
    auto better = [&](std::size_t a, std::size_t b) {
      if (dsd[a] != dsd[b]) return dsd[a] > dsd[b];
      if (regs[a].sd != regs[b].sd) return regs[a].sd > regs[b].sd;
      if (icost[a] != icost[b]) return icost[a] < icost[b];
      return a < b;
    };

    std::size_t chosen;
    if (!opts.delta_sd_rule) {
      chosen = feasible.front();  // first fit (ablation arm)
    } else {
      const std::size_t r_i =
          *std::min_element(feasible.begin(), feasible.end(),
                            [&](std::size_t a, std::size_t b) {
                              return better(a, b);
                            });
      chosen = r_i;

      if (opts.case_overrides) {
        // Candidate overrides per Cases 1 and 2 of Section III.A.2.
        std::vector<std::size_t> candidates;
        std::vector<std::size_t> case1_cands;
        const int threshold = regs[r_i].sd + dsd[r_i];
        // Case 1: v is an output variable of module j and some feasible
        // register already holds an output variable of j with
        // SD(R_l) > SD(R_i, v).
        for (std::size_t j = 0; j < m; ++j) {
          if (!vmask.test(m + j)) continue;
          for (std::size_t r : feasible) {
            if (r == r_i) continue;
            if (regs[r].share_mask.test(m + j) && regs[r].sd > threshold) {
              candidates.push_back(r);
              case1_cands.push_back(r);
            }
          }
        }
        // Case 2: v is an input variable of module j; operators are binary,
        // so the override needs TWO feasible registers already holding
        // input variables of j with SD above the threshold.
        for (std::size_t j = 0; j < m; ++j) {
          if (!vmask.test(j)) continue;
          std::vector<std::size_t> holders;
          for (std::size_t r : feasible) {
            if (r == r_i) continue;
            if (regs[r].share_mask.test(j) && regs[r].sd > threshold) {
              holders.push_back(r);
            }
          }
          if (holders.size() >= 2) {
            candidates.insert(candidates.end(), holders.begin(),
                              holders.end());
          }
        }
        if (!candidates.empty()) {
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(
              std::unique(candidates.begin(), candidates.end()),
              candidates.end());
          chosen = *std::min_element(candidates.begin(), candidates.end(),
                                     [&](std::size_t a, std::size_t b) {
                                       return better(a, b);
                                     });
          if (chosen != r_i) {
            say("case override: " + dfg.var(var).name + " prefers R" +
                std::to_string(chosen + 1) + " over R" +
                std::to_string(r_i + 1));
            if (events != nullptr) {
              const bool from_case1 =
                  std::find(case1_cands.begin(), case1_cands.end(), chosen) !=
                  case1_cands.end();
              events->case_override(from_case1 ? 1 : 2, dfg.var(var).name,
                                    r_i, chosen);
            }
          }
        }
      }
    }

    // --- 3. CBILBO avoidance (Section III.B, Lemma 2) ----------------------
    // The tracker answers "would placing v here force a new CBILBO?" in
    // O(uses of v), replacing a full forced_cbilbos() recomputation per
    // candidate register.
    if (opts.avoid_cbilbo) {
      const bool would_force = tracker->delta_if_assigned(var, chosen) > 0;
      if (events != nullptr) {
        events->cbilbo_checked(dfg.var(var).name, chosen, would_force);
      }
      if (would_force) {
        std::vector<std::size_t> ordered = feasible;
        std::sort(ordered.begin(), ordered.end(),
                  [&](std::size_t a, std::size_t b) { return better(a, b); });
        for (std::size_t r : ordered) {
          if (r == chosen) continue;
          if (tracker->delta_if_assigned(var, r) <= 0) {
            say("CBILBO avoidance: " + dfg.var(var).name + " moved to R" +
                std::to_string(r + 1) + " (R" + std::to_string(chosen + 1) +
                " would force a CBILBO)");
            if (events != nullptr) {
              events->cbilbo_avoided(dfg.var(var).name, chosen, r);
            }
            chosen = r;
            break;
          }
        }
        // If no alternative avoids it, keep `chosen` — the paper allows the
        // assignment rather than allocating an extra register.
      }
    }

    const int gained = dsd[chosen];
    assign(v, chosen);
    say("assign " + dfg.var(var).name + " -> R" + std::to_string(chosen + 1) +
        " (dSD=" + std::to_string(gained) + ")");
    if (events != nullptr) {
      // A counters-only sink discards the candidate set; skip the
      // O(regs) copy.
      std::vector<SdCandidate> cands;
      if (events->recording()) {
        cands.reserve(feasible.size());
        for (std::size_t r : feasible) {
          cands.push_back(SdCandidate{r, dsd[r]});
        }
      }
      events->assign(dfg.var(var).name, chosen, gained,
                     /*new_register=*/false, cands);
    }
  }

  // Report the CBILBOs the final binding could not avoid (Lemma 2 on the
  // finished register contents) so cbilbo.forced mirrors what the BIST
  // allocator will be confronted with.
  if (events != nullptr) {
    for (const ForcedCbilbo& f : forced_cbilbos(mb, reg_masks())) {
      events->cbilbo_forced(f.reg.index(), f.module.index(), f.lemma_case);
    }
  }

  // --- materialize ----------------------------------------------------------
  RegisterBinding rb;
  rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
  rb.regs.resize(regs.size());
  for (std::size_t r = 0; r < regs.size(); ++r) {
    for (std::size_t v : regs[r].members) {
      rb.regs[r].push_back(cg.vars[v]);
      rb.reg_of[cg.vars[v]] = RegId{static_cast<RegId::value_type>(r)};
    }
  }
  return rb;
}

}  // namespace lbist
