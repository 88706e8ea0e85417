#include "binding/enumerate.hpp"

#include <span>
#include <vector>

#include "support/check.hpp"

namespace lbist {

namespace {

struct Enumerator {
  const Dfg& dfg;
  const VarConflictGraph& cg;
  std::span<const LiveInterval> live;
  std::size_t max_regs;
  const std::function<bool(const RegisterBinding&)>& visit;

  std::vector<std::vector<std::size_t>> classes;  // vertex indices
  std::size_t visited = 0;
  bool stopped = false;

  bool compatible(const std::vector<std::size_t>& cls, std::size_t v) const {
    for (std::size_t member : cls) {
      if (live[member].overlaps(live[v])) return false;
    }
    return true;
  }

  void emit() {
    RegisterBinding rb;
    rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
    rb.regs.resize(classes.size());
    for (std::size_t r = 0; r < classes.size(); ++r) {
      for (std::size_t v : classes[r]) {
        rb.regs[r].push_back(cg.vars[v]);
        rb.reg_of[cg.vars[v]] = RegId{static_cast<RegId::value_type>(r)};
      }
    }
    ++visited;
    if (!visit(rb)) stopped = true;
  }

  void recurse(std::size_t v) {
    if (stopped) return;
    if (v == live.size()) {
      emit();
      return;
    }
    // Restricted growth: extend an existing class, or open the next one.
    // Index-based: the recursive call may reallocate `classes`.
    const std::size_t existing = classes.size();
    for (std::size_t c = 0; c < existing; ++c) {
      if (compatible(classes[c], v)) {
        classes[c].push_back(v);
        recurse(v + 1);
        classes[c].pop_back();
        if (stopped) return;
      }
    }
    if (classes.size() < max_regs) {
      classes.push_back({v});
      recurse(v + 1);
      classes.pop_back();
    }
  }
};

}  // namespace

std::size_t enumerate_bindings(
    const Dfg& dfg, const VarConflictGraph& cg, std::size_t max_regs,
    const std::function<bool(const RegisterBinding&)>& visit) {
  LBIST_CHECK(max_regs >= 1, "need at least one register");
  Enumerator e{dfg, cg, cg.live_intervals(), max_regs, visit, {}, 0, false};
  e.recurse(0);
  return e.visited;
}

std::size_t count_bindings_exact(const Dfg& dfg, const VarConflictGraph& cg,
                                 std::size_t num_regs) {
  std::size_t exact = 0;
  (void)enumerate_bindings(dfg, cg, num_regs,
                           [&](const RegisterBinding& rb) {
                             if (rb.num_regs() == num_regs) ++exact;
                             return true;
                           });
  return exact;
}

}  // namespace lbist
