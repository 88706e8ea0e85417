#include "binding/register_binding.hpp"

#include <sstream>

#include "support/check.hpp"

namespace lbist {

void RegisterBinding::validate(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes) const {
  for (const auto& v : dfg.vars()) {
    if (v.allocatable()) {
      LBIST_CHECK(reg_of[v.id].valid(),
                  "allocatable variable unassigned: " + v.name);
    } else {
      LBIST_CHECK(!reg_of[v.id].valid(),
                  "non-allocatable variable assigned a register: " + v.name);
    }
  }
  for (const auto& members : regs) {
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        LBIST_CHECK(
            !lifetimes[members[a]].overlaps(lifetimes[members[b]]),
            "conflicting variables share a register: " +
                dfg.var(members[a]).name + " and " + dfg.var(members[b]).name);
      }
    }
  }
}

void RegisterFile::assign(std::size_t r, VarId v, const LiveInterval& iv) {
  LBIST_CHECK(iv.birth < iv.death, "empty live interval");
  if (r == size()) {
    rb_.regs.emplace_back();
    lifetimes_.emplace_back();
  }
  rb_.regs[r].push_back(v);
  rb_.reg_of[v] = RegId{static_cast<RegId::value_type>(r)};
  lifetimes_[r].insert(iv);
}

std::string RegisterBinding::to_string(const Dfg& dfg) const {
  std::ostringstream os;
  for (std::size_t r = 0; r < regs.size(); ++r) {
    if (r > 0) os << ' ';
    os << 'R' << (r + 1) << "={";
    for (std::size_t i = 0; i < regs[r].size(); ++i) {
      if (i > 0) os << ',';
      os << dfg.var(regs[r][i]).name;
    }
    os << '}';
  }
  return os.str();
}

}  // namespace lbist
