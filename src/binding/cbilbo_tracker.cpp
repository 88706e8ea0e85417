#include "binding/cbilbo_tracker.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lbist {

CbilboTracker::CbilboTracker(const Dfg& dfg, const ModuleBinding& mb) {
  const std::size_t m_count = mb.num_modules();
  mods_.resize(m_count);
  out_module_.assign(dfg.num_vars(), -1);
  uses_.resize(dfg.num_vars());

  for (std::size_t mi = 0; mi < m_count; ++mi) {
    const ModuleId m{static_cast<ModuleId::value_type>(mi)};
    ModuleState& s = mods_[mi];
    s.tm = static_cast<std::uint32_t>(mb.temporal_multiplicity(m));
    s.total_out = static_cast<std::uint32_t>(mb.output_vars(m).count());

    bool instances_coverable = true;
    for (std::uint32_t j = 0; j < s.tm; ++j) {
      if (mb.instance_operands(m, j).empty()) {
        instances_coverable = false;
        break;
      }
    }
    s.eligible = s.total_out >= 1 && instances_coverable;
    if (!s.eligible) continue;

    mb.output_vars(m).for_each_set_bit([&](std::size_t v) {
      out_module_[v] = static_cast<std::int32_t>(mi);
    });
    for (std::uint32_t j = 0; j < s.tm; ++j) {
      for (VarId v : mb.instance_operands(m, j)) {
        uses_[v.index()].emplace_back(static_cast<std::uint32_t>(mi), j);
      }
    }
    s.holders.assign(s.tm, {kNoReg, kNoReg});
  }
}

std::size_t CbilboTracker::add_register() {
  for (ModuleState& s : mods_) {
    if (!s.eligible) continue;
    s.outcnt.push_back(0);
    s.covcnt.push_back(0);
  }
  return num_regs_++;
}

bool CbilboTracker::forced_now(const ModuleState& s) {
  if (!s.eligible || s.assigned_out != s.total_out) return false;
  if (s.outregs.size() == 1) {
    return s.covcnt[s.outregs[0]] == s.tm;
  }
  if (s.outregs.size() == 2) {
    return s.covcnt[s.outregs[0]] == s.tm && s.covcnt[s.outregs[1]] == s.tm;
  }
  return false;
}

void CbilboTracker::affected_modules(VarId v,
                                     std::vector<std::uint32_t>& out) const {
  out.clear();
  if (out_module_[v.index()] >= 0) {
    out.push_back(static_cast<std::uint32_t>(out_module_[v.index()]));
  }
  for (const auto& [m, j] : uses_[v.index()]) {
    if (std::find(out.begin(), out.end(), m) == out.end()) out.push_back(m);
  }
}

int CbilboTracker::delta_if_assigned(VarId v, std::size_t r) const {
  affected_modules(v, scratch_mods_);
  int delta = 0;
  for (const std::uint32_t mi : scratch_mods_) {
    const ModuleState& s = mods_[mi];
    if (!s.eligible) continue;

    const bool is_out = out_module_[v.index()] == static_cast<std::int32_t>(mi);
    const std::uint32_t hyp_assigned = s.assigned_out + (is_out ? 1 : 0);
    bool hyp = false;
    if (hyp_assigned == s.total_out) {
      const std::uint32_t outcnt_r =
          r < s.outcnt.size() ? s.outcnt[r] : 0;
      const bool r_joins = is_out && outcnt_r == 0;
      const std::size_t out_count = s.outregs.size() + (r_joins ? 1 : 0);
      if (out_count >= 1 && out_count <= 2) {
        // #instances of m newly covered at r by v's operands.
        std::uint32_t newly = 0;
        for (const auto& [m2, j] : uses_[v.index()]) {
          if (m2 != mi) continue;
          if (!covered(s, j, r)) ++newly;
        }
        auto covers = [&](std::uint32_t x) {
          const std::uint32_t base = x < s.covcnt.size() ? s.covcnt[x] : 0;
          const std::uint32_t extra = x == r ? newly : 0;
          return base + extra == s.tm;
        };
        hyp = true;
        for (const std::uint32_t x : s.outregs) hyp = hyp && covers(x);
        if (r_joins) hyp = hyp && covers(static_cast<std::uint32_t>(r));
      }
    }
    delta += (hyp ? 1 : 0) - (s.forced ? 1 : 0);
  }
  return delta;
}

void CbilboTracker::assign(VarId v, std::size_t r) {
  LBIST_CHECK(r < num_regs_, "CbilboTracker: register not announced");
  affected_modules(v, scratch_mods_);
  for (const std::uint32_t mi : scratch_mods_) {
    ModuleState& s = mods_[mi];
    if (!s.eligible) continue;
    total_ -= s.forced ? 1 : 0;

    if (out_module_[v.index()] == static_cast<std::int32_t>(mi)) {
      ++s.assigned_out;
      if (s.outcnt[r]++ == 0) {
        s.outregs.push_back(static_cast<std::uint32_t>(r));
      }
    }
    for (const auto& [m2, j] : uses_[v.index()]) {
      if (m2 != mi || covered(s, j, r)) continue;
      // At most two distinct operands, each in one register.
      std::uint32_t& slot = s.holders[j][0] == kNoReg ? s.holders[j][0]
                                                      : s.holders[j][1];
      slot = static_cast<std::uint32_t>(r);
      ++s.covcnt[r];
    }

    s.forced = forced_now(s);
    total_ += s.forced ? 1 : 0;
  }
}

}  // namespace lbist
