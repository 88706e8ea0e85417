#pragma once
// Incremental Lemma-2 bookkeeping for the BIST-aware binder.
//
// The binder needs, at every coloring step and for every candidate
// register, the number of forced CBILBOs the partial binding would have if
// variable v joined register R.  Recomputing `forced_cbilbos()` from
// scratch per candidate costs a pass over every module's outputs and
// instances, and dominated binding time beyond a few hundred variables.
//
// This tracker exploits two structural facts to answer the same query in
// O(uses of v) time:
//
//   1. Each variable lives in at most one register, so |O_m ∩ R_x| is a
//      simple per-register counter and "the outputs of m are split across
//      registers X" is equivalent to "every output of m is assigned and
//      exactly the registers in X have a nonzero output count".
//   2. Lemma 2 can therefore fire at most once per module: case (i) needs
//      ONE register holding all outputs, case (ii) exactly TWO.  The
//      per-module forced state is a boolean recomputable in O(1) from the
//      counters, and only modules that have v as an operand or output can
//      change when v is placed.
//
// Coverage is kept per instance, not per register: an instance has at most
// two distinct operands, so at most two registers hold its placed ones, and
// "instance j is covered at R" means R is one of them.  Each register only
// adds two counters per module: its outputs of m and its covered instances.
//
// `current()` and `delta_if_assigned()` match `forced_cbilbos(mb, reg_of)
// .size()` exactly — the fuzz oracle and binding tests assert this.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "binding/module_binding.hpp"
#include "dfg/dfg.hpp"
#include "support/ids.hpp"

namespace lbist {

class CbilboTracker {
 public:
  CbilboTracker(const Dfg& dfg, const ModuleBinding& mb);

  /// Registers a new (empty) register; returns its index.
  std::size_t add_register();

  /// Permanently places v in register r, updating the forced count.
  void assign(VarId v, std::size_t r);

  /// Forced-CBILBO count of the current partial binding.
  [[nodiscard]] int current() const { return total_; }

  /// Change of the forced count if v were placed in register r (no
  /// mutation).  `r` may be `num_registers()` to model a fresh register.
  [[nodiscard]] int delta_if_assigned(VarId v, std::size_t r) const;

  [[nodiscard]] std::size_t num_registers() const { return num_regs_; }

 private:
  struct ModuleState {
    /// False when the module can never force a CBILBO (no allocatable
    /// outputs, or some instance has no allocatable operand); such modules
    /// are skipped entirely.
    bool eligible = false;
    bool forced = false;  ///< current Lemma-2 verdict for this module
    std::uint32_t total_out = 0;     ///< |O_m| (allocatable outputs)
    std::uint32_t assigned_out = 0;  ///< outputs already placed
    std::uint32_t tm = 0;            ///< temporal multiplicity
    std::vector<std::uint32_t> outcnt;   ///< per register: |O_m ∩ R_r|
    std::vector<std::uint32_t> covcnt;   ///< per register: #instances covered
    /// Per instance: the registers holding its placed operands, kNoReg
    /// where there is none yet.
    std::vector<std::array<std::uint32_t, 2>> holders;
    std::vector<std::uint32_t> outregs;  ///< registers with outcnt >= 1
  };

  static constexpr std::uint32_t kNoReg = UINT32_MAX;

  /// True if instance j of module state `s` is covered at register r.
  [[nodiscard]] static bool covered(const ModuleState& s, std::uint32_t j,
                                    std::size_t r) {
    return s.holders[j][0] == r || s.holders[j][1] == r;
  }

  /// Lemma-2 verdict from the counters alone.
  [[nodiscard]] static bool forced_now(const ModuleState& s);

  /// The modules v touches (as operand or output), deduplicated.
  void affected_modules(VarId v, std::vector<std::uint32_t>& out) const;

  std::vector<ModuleState> mods_;
  /// Defining module of each variable (as an output), or -1.
  std::vector<std::int32_t> out_module_;
  /// (module, instance) pairs where the variable is an allocatable operand.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> uses_;
  int total_ = 0;
  std::size_t num_regs_ = 0;
  mutable std::vector<std::uint32_t> scratch_mods_;
};

}  // namespace lbist
