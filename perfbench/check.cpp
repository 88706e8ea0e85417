#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace perfbench {

using namespace lbist;

namespace {

struct Interval {
  int birth = 0;  ///< live over the half-open range (birth, death]
  int death = 0;
};

/// The lifetime convention of dfg/lifetime.hpp, restated: results are
/// born at their defining step, inputs one step before their first use;
/// a value lives to its last use and at least one step; primary outputs
/// optionally stay live one step past the schedule's end.
std::vector<Interval> lifetimes(const Dfg& dfg, const Schedule& sched,
                                bool hold_outputs_to_end) {
  std::vector<Interval> out(dfg.num_vars());
  for (const Variable& v : dfg.vars()) {
    Interval iv;
    if (v.is_input()) {
      int first = sched.num_steps() + 1;
      for (OpId u : v.uses) first = std::min(first, sched.step(u));
      iv.birth = first - 1;
    } else {
      iv.birth = sched.step(v.def);
    }
    iv.death = iv.birth + 1;
    for (OpId u : v.uses) iv.death = std::max(iv.death, sched.step(u));
    if (v.is_output && hold_outputs_to_end) {
      iv.death = std::max(iv.death, sched.num_steps() + 1);
    }
    out[v.id.index()] = iv;
  }
  return out;
}

int peak_of(const Dfg& dfg, const std::vector<Interval>& live) {
  int horizon = 0;
  for (const Interval& iv : live) horizon = std::max(horizon, iv.death);
  // delta[t] changes the live count entering step t: +1 at birth+1,
  // -1 at death+1.
  std::vector<int> delta(static_cast<std::size_t>(horizon) + 2, 0);
  for (const Variable& v : dfg.vars()) {
    if (!v.allocatable()) continue;
    const Interval& iv = live[v.id.index()];
    ++delta[static_cast<std::size_t>(iv.birth + 1)];
    --delta[static_cast<std::size_t>(iv.death + 1)];
  }
  int cur = 0;
  int best = 0;
  for (int d : delta) {
    cur += d;
    best = std::max(best, cur);
  }
  return best;
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

int live_peak(const Dfg& dfg, const Schedule& sched, bool hold_outputs_to_end) {
  return peak_of(dfg, lifetimes(dfg, sched, hold_outputs_to_end));
}

bool check_synthesis(const Dfg& dfg, const Schedule& sched,
                     const SynthesisOptions& opts, const SynthesisResult& r,
                     const std::string& label, bool expect_minimal,
                     CheckLog& log) {
  const std::size_t before = log.count();
  auto fail = [&](const std::string& what) { log.fail(label + ": " + what); };

  const auto live = lifetimes(dfg, sched, opts.lifetime.hold_outputs_to_end);
  if (r.lifetimes.size() != dfg.num_vars()) {
    fail("lifetime table has the wrong size");
    return false;
  }
  for (const Variable& v : dfg.vars()) {
    const Interval& want = live[v.id.index()];
    const LiveInterval& got = r.lifetimes[v.id];
    if (got.birth != want.birth || got.death != want.death) {
      fail("lifetime of " + v.name + " differs from the convention");
      break;
    }
  }

  // Binding: every allocatable variable sits in the register that lists
  // it, and no register holds two overlapping lifetimes.
  const auto& regs = r.registers.regs;
  std::vector<int> seen(dfg.num_vars(), 0);
  for (std::size_t reg = 0; reg < regs.size(); ++reg) {
    std::vector<Interval> members;
    for (VarId v : regs[reg]) {
      if (v.index() >= dfg.num_vars() || !dfg.var(v).allocatable()) {
        fail("register " + std::to_string(reg) + " holds a non-allocatable value");
        continue;
      }
      ++seen[v.index()];
      if (r.registers.reg_of[v].index() != reg) {
        fail("reg_of disagrees with register " + std::to_string(reg));
      }
      members.push_back(live[v.index()]);
    }
    std::sort(members.begin(), members.end(),
              [](const Interval& a, const Interval& b) {
                return a.birth < b.birth;
              });
    for (std::size_t k = 1; k < members.size(); ++k) {
      if (members[k].birth < members[k - 1].death) {
        fail("register " + std::to_string(reg) + " holds overlapping lifetimes");
        break;
      }
    }
  }
  for (const Variable& v : dfg.vars()) {
    if (v.allocatable() && seen[v.id.index()] != 1) {
      fail("value " + v.name + " is bound to " +
           std::to_string(seen[v.id.index()]) + " registers");
      break;
    }
  }
  const int peak = peak_of(dfg, live);
  if (expect_minimal && static_cast<int>(regs.size()) != peak) {
    fail(std::to_string(regs.size()) + " registers, but " +
         std::to_string(peak) + " values live at once");
  }

  // BIST solution: embeddings follow data-path connections, roles follow
  // from the embeddings, area follows from the roles.
  const Datapath& dp = r.datapath;
  const BistSolution& sol = r.bist;
  if (sol.embeddings.size() != dp.modules.size() ||
      sol.roles.size() != dp.registers.size()) {
    fail("BIST solution does not match the data path's shape");
    return false;
  }
  std::vector<RoleFlags> flags(dp.registers.size());
  std::size_t untestable = 0;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const auto& e = sol.embeddings[m];
    if (!e.has_value()) {
      ++untestable;
      if (std::find(sol.untestable_modules.begin(),
                    sol.untestable_modules.end(),
                    m) == sol.untestable_modules.end()) {
        fail("module " + std::to_string(m) + " has no embedding");
      }
      continue;
    }
    const DpModule& mod = dp.modules[m];
    const std::size_t n = dp.registers.size();
    if (e->module != m || e->tpg_left >= n || e->tpg_right >= n ||
        e->tpg_left == e->tpg_right || (e->sa && *e->sa >= n)) {
      fail("module " + std::to_string(m) + " has a malformed embedding");
      continue;
    }
    // Paths through a transparent module are not single connections.
    if (!e->uses_transparency() &&
        (mod.left_sources.count(e->tpg_left) == 0 ||
         mod.right_sources.count(e->tpg_right) == 0)) {
      fail("module " + std::to_string(m) + " TPG is not wired to its port");
    }
    if (e->sa && mod.dest_registers.count(*e->sa) == 0) {
      fail("module " + std::to_string(m) + " SA is not wired to its output");
    }
    flags[e->tpg_left].tpg = true;
    flags[e->tpg_right].tpg = true;
    if (e->sa) {
      flags[*e->sa].sa = true;
      if (e->needs_cbilbo()) flags[*e->sa].cbilbo = true;
    }
  }
  if (untestable != sol.untestable_modules.size()) {
    fail("untestable module list disagrees with the embeddings");
  }
  double extra = 0.0;
  for (std::size_t reg = 0; reg < flags.size(); ++reg) {
    if (flags[reg].role() != sol.roles[reg]) {
      fail("role of register " + std::to_string(reg) +
           " does not follow from the embeddings");
      break;
    }
    extra += opts.area.role_extra(flags[reg].role());
  }
  if (!near(extra, sol.extra_area)) {
    fail("extra area " + std::to_string(sol.extra_area) +
         " != recomputed " + std::to_string(extra));
  }
  const double functional = opts.area.functional_area(dp);
  if (!near(functional, r.functional_area)) {
    fail("functional area differs from the area model's");
  }
  if (!near(r.overhead_percent, 100.0 * extra / functional)) {
    fail("overhead percent is not 100 * extra / functional area");
  }
  return log.count() == before;
}

}  // namespace perfbench
