#include "binding/bist_aware_binder.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <ranges>
#include <span>

#include "binding/cbilbo_check.hpp"
#include "binding/cbilbo_tracker.hpp"
#include "binding/sharing.hpp"
#include "graph/interval.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"

namespace lbist {

namespace {

/// Sharing state the binder keeps per register, beside the register
/// file's members and intervals.
struct RegState {
  DynBitset share_mask;      ///< union of member sharing masks
  int sd = 0;                ///< SD(share_mask), cached
  bool holds_input = false;  ///< some member is a primary input
};

}  // namespace

RegisterBinding bind_registers_bist_aware(const Dfg& dfg,
                                          const VarConflictGraph& cg,
                                          const ModuleBinding& mb,
                                          const BistBinderOptions& opts,
                                          AlgorithmEvents* events) {
  const std::span<const LiveInterval> live = cg.live_intervals();
  const std::size_t n = live.size();
  SharingAnalysis sa(dfg, mb);
  const std::size_t m = sa.num_modules();

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

  // --- 2. Coloring in reverse PVES order (Section III.A.2, III.B) ---------
  RegisterFile file(dfg.num_vars());
  std::vector<RegState> regs;
  std::optional<CbilboTracker> tracker;
  if (opts.avoid_cbilbo) tracker.emplace(dfg, mb);
  // Open registers bucketed by SD(R) (at most 2m), for the SD-ordered
  // scan; slot[r] is r's position in its bucket.
  std::vector<std::vector<std::size_t>> by_sd(2 * m + 1);
  std::vector<std::size_t> slot;
  // Live counts of the variables placed so far.
  IntervalLoad load(live);

  // r == regs.size() opens a register.
  auto assign = [&](std::size_t v, std::size_t r) {
    if (r == regs.size()) {
      regs.push_back(RegState{sa.empty_mask()});
      slot.push_back(by_sd[0].size());
      by_sd[0].push_back(r);
      if (tracker.has_value()) tracker->add_register();
    }
    file.assign(r, cg.vars[v], live[v]);
    load.add(v);
    RegState& reg = regs[r];
    const int old_sd = reg.sd;
    reg.sd +=
        static_cast<int>(sa.mask(cg.vars[v]).count_and_not(reg.share_mask));
    reg.share_mask |= sa.mask(cg.vars[v]);
    reg.holds_input = reg.holds_input || dfg.var(cg.vars[v]).is_input();
    if (tracker.has_value()) tracker->assign(cg.vars[v], r);
    if (reg.sd != old_sd) {  // move r up to its new bucket
      auto& from = by_sd[static_cast<std::size_t>(old_sd)];
      from[slot[r]] = from.back();
      slot[from.back()] = slot[r];
      from.pop_back();
      auto& to = by_sd[static_cast<std::size_t>(reg.sd)];
      slot[r] = to.size();
      to.push_back(r);
    }
  };

  // Register-indexed scratch: ΔSD of each register that fits the current
  // variable.  A register count never exceeds n.
  std::vector<int> dsd(n);
  std::vector<std::size_t> feasible;
  feasible.reserve(n);
  std::uint64_t scanned = 0;  // fit tests, published once per run
  // First fit scans in index order up to the first register that fits; the
  // ΔSD rule scans by SD.  A recording sink does not change the scan.
  const bool recording = events != nullptr && events->recording();

  for (std::size_t v : peo | std::views::reverse) {
    const VarId var = cg.vars[v];
    const DynBitset& vmask = sa.mask(var);
    const bool is_input = dfg.var(var).is_input();

    // Each register holds at most one variable live at a step, so when the
    // most crowded step of v's interval holds one per register, none fits.
    if (load.max_live(v) == file.size()) {
      assign(v, regs.size());
      if (events != nullptr) {
        events->assign(dfg.var(var).name, regs.size() - 1, sd_vtx[v],
                       /*new_register=*/true, {});
      }
      continue;
    }

    // Fit test, then ΔSD for a register that fits: the word-parallel
    // |mask(v) \ share_mask(R)| — no merged mask is built, and SD(R) itself
    // is cached on the register.  True iff r fits.
    feasible.clear();
    auto visit = [&](std::size_t r) {
      ++scanned;
      if (!file.fits(r, live[v])) return false;
      feasible.push_back(r);
      dsd[r] = static_cast<int>(vmask.count_and_not(regs[r].share_mask));
      return true;
    };
    // Not scanned yet: registers from `next` on in index order, buckets
    // below `unscanned` in SD order.
    std::size_t next = 0;
    std::size_t unscanned = 0;
    auto finish_scan = [&] {
      while (next < file.size()) visit(next++);
      while (unscanned > 0) {
        for (std::size_t r : by_sd[--unscanned]) visit(r);
      }
    };
    if (!opts.delta_sd_rule) {
      while (next < file.size() && feasible.empty()) visit(next++);
    } else {
      next = file.size();
      // Highest SD first, stopping after the bucket in which some register
      // reaches ΔSD = SD(v), the most any can gain: every register left
      // has a lower SD(R), so none can beat it, and a Case 1/2 candidate
      // needs SD(R) > SD(r_i) + ΔSD(r_i), so all of them are scanned.
      bool full_gain = false;
      for (unscanned = by_sd.size(); unscanned > 0 && !full_gain;) {
        for (std::size_t r : by_sd[--unscanned]) {
          if (visit(r) && dsd[r] == sd_vtx[v]) full_gain = true;
        }
      }
    }
    // The colored neighbours of v form a clique (reverse PVES order), so by
    // Helly they all live at the most crowded step, and a register free
    // there fits.
    LBIST_CHECK(!feasible.empty(), "no register fits below the live peak");

    // Preference: larger ΔSD, then larger SD(R), then cheaper interconnect,
    // then lower index.  v's new interconnect endpoints in R (Section IV's
    // merge-case reasoning) are the consumers and the defining module that
    // R lacks, which is ΔSD, plus a source for a primary input unless R
    // already holds one: at equal ΔSD only that last term differs.
    auto better = [&](std::size_t a, std::size_t b) {
      if (dsd[a] != dsd[b]) return dsd[a] > dsd[b];
      if (regs[a].sd != regs[b].sd) return regs[a].sd > regs[b].sd;
      if (is_input && regs[a].holds_input != regs[b].holds_input) {
        return regs[a].holds_input;
      }
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
        // The fallback ranks every register that fits: finish the scan.
        finish_scan();
        std::vector<std::size_t> ordered = feasible;
        std::sort(ordered.begin(), ordered.end(),
                  [&](std::size_t a, std::size_t b) { return better(a, b); });
        for (std::size_t r : ordered) {
          if (r == chosen) continue;
          if (tracker->delta_if_assigned(var, r) <= 0) {
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

    // A recording sink's `assign` event lists every register that fits,
    // in index order: finish the scan for it, without counting the visits
    // the decision did not make.  A counters-only sink discards the list.
    std::vector<SdCandidate> cands;
    if (recording) {
      const std::uint64_t decided = scanned;
      finish_scan();
      scanned = decided;
      std::sort(feasible.begin(), feasible.end());
      cands.reserve(feasible.size());
      for (std::size_t r : feasible) cands.push_back(SdCandidate{r, dsd[r]});
    }
    const int gained = dsd[chosen];
    assign(v, chosen);
    if (events != nullptr) {
      events->assign(dfg.var(var).name, chosen, gained,
                     /*new_register=*/false, cands);
    }
  }

  if (events != nullptr) events->binding_registers_scanned(scanned);
  // Report the CBILBOs the final binding could not avoid (Lemma 2 on the
  // finished register contents) so cbilbo.forced mirrors what the BIST
  // allocator will be confronted with.
  if (events != nullptr) {
    for (const ForcedCbilbo& f : forced_cbilbos(mb, file.binding().reg_of)) {
      events->cbilbo_forced(f.reg.index(), f.module.index(), f.lemma_case);
    }
  }
  return file.take();
}

}  // namespace lbist
