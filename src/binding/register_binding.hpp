#pragma once
// Register binding Π_R — a partition of the allocatable variables into
// registers such that no register holds two conflicting variables — and the
// register file the interval binders build one in.

#include <string>
#include <utility>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "graph/interval.hpp"
#include "support/ids.hpp"

namespace lbist {

/// A complete register binding.
struct RegisterBinding {
  /// register -> variables assigned to it (in assignment order).
  std::vector<std::vector<VarId>> regs;
  /// variable -> register; invalid for non-allocatable variables.
  IdMap<VarId, RegId> reg_of;

  [[nodiscard]] std::size_t num_regs() const { return regs.size(); }

  /// Throws lbist::Error if two variables in one register conflict or some
  /// allocatable variable is unassigned.
  void validate(const Dfg& dfg,
                const IdMap<VarId, LiveInterval>& lifetimes) const;

  /// "R1={c,f,a} R2={d,g,b,h} R3={e}"
  [[nodiscard]] std::string to_string(const Dfg& dfg) const;
};

/// A register binding under construction, for the binders that place one
/// variable at a time (BIST-aware, RALLOC, SYNTEST, loop-aware): each
/// register's members' live intervals beside the `RegisterBinding` being
/// built, whose `regs` list every register's variables in assignment order.
class RegisterFile {
 public:
  explicit RegisterFile(std::size_t num_vars) {
    rb_.reg_of.assign(num_vars, RegId::invalid());
  }

  /// Registers opened so far.
  [[nodiscard]] std::size_t size() const { return lifetimes_.size(); }

  /// True if `iv` overlaps no member of register r.
  [[nodiscard]] bool fits(std::size_t r, const LiveInterval& iv) const {
    return !lifetimes_[r].overlaps(iv);
  }

  /// Places variable v, live over the non-empty `iv`, in register r, which
  /// `iv` must fit; r == size() opens a new register.
  void assign(std::size_t r, VarId v, const LiveInterval& iv);

  [[nodiscard]] const RegisterBinding& binding() const { return rb_; }

  /// Moves the finished binding out; the file is spent afterwards.
  [[nodiscard]] RegisterBinding take() { return std::move(rb_); }

 private:
  RegisterBinding rb_;
  std::vector<DisjointIntervals> lifetimes_;
};

}  // namespace lbist
