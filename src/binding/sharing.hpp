#pragma once
// Sharing degrees (Definitions 4 and 5 of the paper).
//
// SD(v) counts the distinct module input-variable sets and output-variable
// sets containing variable v; SD(R) is the same over the union of a
// register's variables.  Both are represented as bitmasks with one bit per
// (module, direction) pair, so SD(R ∪ {v}) and the increase ΔSD^v(R) are
// word-parallel OR/popcount operations:
//
//   SD(R, v)   = |mask(R) | mask(v)|
//   ΔSD^v(R)   = SD(R, v) - SD(R)
//
// which is exactly the paper's
//   SD(R, v) = SD(R) + SD(v) - Σ_j (X_j^R X_j^v + Y_j^R Y_j^v).

#include "binding/module_binding.hpp"
#include "dfg/dfg.hpp"
#include "support/dyn_bitset.hpp"
#include "support/ids.hpp"

namespace lbist {

/// Precomputed per-variable sharing masks for a fixed module binding.
class SharingAnalysis {
 public:
  SharingAnalysis(const Dfg& dfg, const ModuleBinding& mb);

  /// Mask of variable v: bit j set iff v ∈ I_Mj, bit (m+j) iff v ∈ O_Mj.
  [[nodiscard]] const DynBitset& mask(VarId v) const {
    return masks_[v];
  }

  /// SD(v), Definition 4.
  [[nodiscard]] int sd(VarId v) const {
    return static_cast<int>(masks_[v].count());
  }

  /// SD of an arbitrary mask (e.g. a register's accumulated mask).
  [[nodiscard]] static int sd_of(const DynBitset& m) {
    return static_cast<int>(m.count());
  }

  /// An empty mask of the right width, for seeding register masks.
  [[nodiscard]] DynBitset empty_mask() const {
    return DynBitset(2 * num_modules_);
  }

  [[nodiscard]] std::size_t num_modules() const { return num_modules_; }

  /// True if a register holding `mask` feeds some module (an input bit) and
  /// some module writes it (an output bit).
  [[nodiscard]] bool feeds_and_is_fed(const DynBitset& mask) const;

  /// True if some module both reads and writes a register holding `mask`
  /// (bits j and m+j): the register is self-adjacent.
  [[nodiscard]] bool self_adjacent(const DynBitset& mask) const;

 private:
  std::size_t num_modules_ = 0;
  IdMap<VarId, DynBitset> masks_;
};

}  // namespace lbist
