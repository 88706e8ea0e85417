#pragma once
// Module (functional unit) binding — σ : V -> M of Section III.
//
// The paper binds modules before registers, with no testability
// consideration ("existing algorithms that optimize area are used"), and all
// its experiments *pin* the module assignment.  This binder takes a list of
// module prototypes (from module_spec.hpp) and deterministically assigns
// every operation to a compatible module that is free in its control step,
// via per-step bipartite matching, preferring to pack operations of one
// kind onto the same module (temporal multiplicity).
//
// It also materializes the derived sets the register binder consumes:
// the input/output variable sets I_M / O_M (Definition 3), the per-instance
// operand sets I^j_M used by the CBILBO conditions (Lemma 2), and the
// temporal multiplicity TM(M) (Definition 2).  Every operator is binary, so
// each I^j_M is a list of at most two variables, not a set over all of them.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "binding/module_spec.hpp"
#include "dfg/dfg.hpp"
#include "dfg/schedule.hpp"
#include "support/dyn_bitset.hpp"
#include "support/ids.hpp"

namespace lbist {

/// The result of module binding plus all derived variable-set views.
class ModuleBinding {
 public:
  /// Binds every operation onto `protos`; throws lbist::Error if the
  /// prototypes cannot cover some step's operations.
  static ModuleBinding bind(const Dfg& dfg, const Schedule& sched,
                            std::vector<ModuleProto> protos);

  /// Rebuilds a binding from a stored assignment σ (as produced by
  /// bind(); used by the pass-pipeline snapshot restore).  Instances are
  /// recovered in schedule order and every derived variable set is
  /// recomputed; throws lbist::Error if the assignment is inconsistent
  /// with the design or prototypes (unknown module, unsupported kind,
  /// two operations on one module in the same step).
  static ModuleBinding restore(const Dfg& dfg, const Schedule& sched,
                               std::vector<ModuleProto> protos,
                               const IdMap<OpId, ModuleId>& module_of);

  [[nodiscard]] std::size_t num_modules() const { return protos_.size(); }
  [[nodiscard]] const ModuleProto& proto(ModuleId m) const {
    return protos_[m.index()];
  }
  [[nodiscard]] ModuleId module_of(OpId op) const { return module_of_[op]; }

  /// Instances of module m (operations mapped onto it), in schedule order.
  [[nodiscard]] const std::vector<OpId>& instances(ModuleId m) const {
    return instances_[m.index()];
  }
  /// Temporal multiplicity TM(m) = |instances(m)| (Definition 2).
  [[nodiscard]] std::size_t temporal_multiplicity(ModuleId m) const {
    return instances_[m.index()].size();
  }

  /// I_M: every operand variable of every instance of m (Definition 3),
  /// restricted to register-allocatable variables, as a bitset over VarId.
  [[nodiscard]] const DynBitset& input_vars(ModuleId m) const {
    return input_vars_[m.index()];
  }
  /// O_M: every result variable of every instance of m, restricted to
  /// register-allocatable variables.
  [[nodiscard]] const DynBitset& output_vars(ModuleId m) const {
    return output_vars_[m.index()];
  }
  /// I^j_M: the at most two distinct allocatable operands of instance j
  /// of module m (Lemma 2 input); a repeated operand x∘x appears once.
  [[nodiscard]] std::span<const VarId> instance_operands(
      ModuleId m, std::size_t j) const {
    const Operands& ops = instance_operands_[m.index()][j];
    return {ops.vars.data(), ops.count};
  }

  /// Display name for module m, e.g. "M1(+)".
  [[nodiscard]] std::string module_name(ModuleId m) const;

  [[nodiscard]] std::vector<ModuleId> all_modules() const;

 private:
  /// Fills input_vars_/output_vars_/instance_operands_ from the instance
  /// lists (shared tail of bind() and restore()).
  void build_derived_sets(const Dfg& dfg);

  /// One instance's operands: `vars[0, count)`.
  struct Operands {
    std::array<VarId, 2> vars;
    std::uint8_t count = 0;
  };

  std::vector<ModuleProto> protos_;
  IdMap<OpId, ModuleId> module_of_;
  std::vector<std::vector<OpId>> instances_;
  std::vector<DynBitset> input_vars_;
  std::vector<DynBitset> output_vars_;
  std::vector<std::vector<Operands>> instance_operands_;
};

}  // namespace lbist
