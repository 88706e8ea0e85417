#include "binding/cbilbo_check.hpp"

#include <algorithm>
#include <array>

namespace lbist {

namespace {

/// True if register r holds at least one operand of every instance of m.
bool covers_every_instance(const ModuleBinding& mb, ModuleId m, RegId r,
                           const IdMap<VarId, RegId>& reg_of) {
  const std::size_t tm = mb.temporal_multiplicity(m);
  for (std::size_t j = 0; j < tm; ++j) {
    const auto ops = mb.instance_operands(m, j);
    if (std::none_of(ops.begin(), ops.end(),
                     [&](VarId v) { return reg_of[v] == r; })) {
      return false;  // includes an instance with no allocatable operand
    }
  }
  return true;
}

}  // namespace

std::vector<ForcedCbilbo> forced_cbilbos(const ModuleBinding& mb,
                                         const IdMap<VarId, RegId>& reg_of) {
  std::vector<ForcedCbilbo> out;
  for (ModuleId m : mb.all_modules()) {
    // The registers holding m's outputs: every output placed, in one or
    // two registers (no register destination at all: nothing to be an SA).
    std::array<RegId, 2> out_regs;
    std::size_t num_out_regs = 0;
    bool placed = mb.output_vars(m).any();
    mb.output_vars(m).for_each_set_bit([&](std::size_t v) {
      const RegId r = reg_of[VarId{static_cast<VarId::value_type>(v)}];
      if (!r.valid()) {
        placed = false;
      } else if (r != out_regs[0] && r != out_regs[1]) {
        if (num_out_regs == 2) {
          placed = false;
        } else {
          out_regs[num_out_regs++] = r;
        }
      }
    });
    if (!placed) continue;

    // Case (i): R_x alone holds the outputs (out_regs[1] stays invalid);
    // case (ii): they are split across R_x < R_y.  Every output register
    // must cover.
    if (num_out_regs == 2 && out_regs[1] < out_regs[0]) {
      std::swap(out_regs[0], out_regs[1]);
    }
    bool covered = true;
    for (std::size_t i = 0; i < num_out_regs; ++i) {
      covered = covered && covers_every_instance(mb, m, out_regs[i], reg_of);
    }
    if (covered) {
      out.push_back(ForcedCbilbo{out_regs[0], m,
                                 static_cast<int>(num_out_regs), out_regs[1]});
    }
  }
  return out;
}

}  // namespace lbist
