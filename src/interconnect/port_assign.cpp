#include "interconnect/port_assign.hpp"

#include <algorithm>

namespace lbist {

namespace {

/// A failed labelling attempt.  `pinned` marks a register whose forced
/// (non-commutative) sides conflict — it genuinely needs both ports.
struct Clash {
  bool found = false;
  bool pinned = false;
  std::size_t a = 0;
  std::size_t b = 0;
};

PortSide opposite(PortSide s) {
  return s == PortSide::Left ? PortSide::Right : PortSide::Left;
}

bool sided(PortSide s) {
  return s == PortSide::Left || s == PortSide::Right;
}

/// Propagates opposition constraints to a fixed point.  Registers labelled
/// Both satisfy every constraint.  Returns the first clash found, if any.
Clash propagate(const std::vector<PortConstraint>& constraints,
                std::vector<PortSide>& side) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& c : constraints) {
      if (c.lhs_reg == c.rhs_reg) continue;  // handled by the Both pin
      PortSide& ls = side[c.lhs_reg];
      PortSide& rs = side[c.rhs_reg];
      if (ls == PortSide::Both || rs == PortSide::Both) continue;
      if (sided(ls) && rs == PortSide::Unassigned) {
        rs = opposite(ls);
        changed = true;
      } else if (sided(rs) && ls == PortSide::Unassigned) {
        ls = opposite(rs);
        changed = true;
      } else if (sided(ls) && ls == rs) {
        return Clash{true, false, c.lhs_reg, c.rhs_reg};
      }
    }
  }
  return Clash{};
}

}  // namespace

PortAssignment assign_ports(std::size_t num_regs,
                            const std::vector<PortConstraint>& constraints,
                            const std::vector<int>& weight) {
  LBIST_CHECK(weight.empty() || weight.size() == num_regs,
              "weight vector must match register count");
  auto weight_of = [&](std::size_t r) {
    return weight.empty() ? 0 : weight[r];
  };

  std::vector<bool> forced_both(num_regs, false);
  for (const auto& c : constraints) {
    LBIST_CHECK(c.lhs_reg < num_regs && c.rhs_reg < num_regs,
                "register index out of range");
    // An instance reading the same register twice needs it on both ports.
    if (c.lhs_reg == c.rhs_reg) forced_both[c.lhs_reg] = true;
  }

  // Attempt a consistent labelling; on a clash promote one involved
  // register to Both and retry.  Terminates: Both strictly grows.
  for (std::size_t promotions = 0;; ++promotions) {
    PortAssignment out;
    out.promotions = promotions;
    out.side.assign(num_regs, PortSide::Unassigned);
    for (std::size_t r = 0; r < num_regs; ++r) {
      if (forced_both[r]) out.side[r] = PortSide::Both;
    }

    Clash clash;
    // Non-commutative instances pin their operand sides.
    for (const auto& c : constraints) {
      if (c.commutative || c.lhs_reg == c.rhs_reg) continue;
      for (auto [r, want] : {std::pair{c.lhs_reg, PortSide::Left},
                             std::pair{c.rhs_reg, PortSide::Right}}) {
        PortSide& s = out.side[r];
        if (s == PortSide::Both) continue;
        if (s == PortSide::Unassigned) {
          s = want;
        } else if (s != want) {
          clash = Clash{true, true, r, r};  // r itself needs both ports
        }
      }
      if (clash.found) break;
    }

    // Propagate; seed one floating component at a time (first register of
    // an unresolved constraint goes Left) until everything is labelled.
    while (!clash.found) {
      clash = propagate(constraints, out.side);
      if (clash.found) break;
      bool seeded = false;
      for (const auto& c : constraints) {
        if (c.lhs_reg != c.rhs_reg &&
            out.side[c.lhs_reg] == PortSide::Unassigned &&
            out.side[c.rhs_reg] == PortSide::Unassigned) {
          out.side[c.lhs_reg] = PortSide::Left;
          seeded = true;
          break;
        }
      }
      if (!seeded) return out;
    }

    // Pick the register to promote to Both.  A register with conflicting
    // forced pins is promoted directly.  For an odd-cycle clash the
    // candidates are the clashing pair and any register constrained against
    // both of them (the rest of a triangle); the paper's weighting prefers
    // the register with the highest sharing degree in IR^LR.
    std::size_t promote;
    if (clash.pinned) {
      promote = clash.a;
    } else {
      std::vector<std::size_t> candidates{clash.a, clash.b};
      // One pass marks the registers constrained against clash.a (bit 0)
      // and clash.b (bit 1).
      std::vector<unsigned char> against(num_regs, 0);
      for (const auto& c : constraints) {
        for (auto [r, other] : {std::pair{c.lhs_reg, c.rhs_reg},
                                std::pair{c.rhs_reg, c.lhs_reg}}) {
          if (other == clash.a) against[r] |= 1;
          if (other == clash.b) against[r] |= 2;
        }
      }
      for (std::size_t r = 0; r < num_regs; ++r) {
        if (r == clash.a || r == clash.b || forced_both[r]) continue;
        if (against[r] == 3) candidates.push_back(r);
      }
      promote = candidates.front();
      for (std::size_t r : candidates) {
        if (forced_both[promote] ||
            (!forced_both[r] && weight_of(r) > weight_of(promote))) {
          promote = r;
        }
      }
    }
    LBIST_CHECK(!forced_both[promote], "port assignment failed to converge");
    forced_both[promote] = true;
  }
}

}  // namespace lbist
