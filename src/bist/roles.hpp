#pragma once
// Test-resource roles a register can take in the BIST version of a design.
//
// The lattice (by area): None < Tpg, Sa < TpgSa < Cbilbo.
//  * Tpg    — reconfigured as a pseudo-random test pattern generator (LFSR).
//  * Sa     — reconfigured as a signature analyzer (MISR).
//  * TpgSa  — a BILBO: TPG for some module(s) and SA for others, in
//             different test sessions.
//  * Cbilbo — concurrent BILBO: TPG and SA at the same time for the same
//             module (Wang/McCluskey); costs about twice a plain register.

#include <cstdint>

namespace lbist {

enum class BistRole : std::uint8_t {
  None = 0,
  Tpg = 1,
  Sa = 2,
  TpgSa = 3,
  Cbilbo = 4,
};

/// Flag-based accumulation of a register's duties across module embeddings.
struct RoleFlags {
  bool tpg = false;
  bool sa = false;
  bool cbilbo = false;  // TPG and SA for the same module

  [[nodiscard]] BistRole role() const {
    if (cbilbo) return BistRole::Cbilbo;
    if (tpg && sa) return BistRole::TpgSa;
    if (tpg) return BistRole::Tpg;
    if (sa) return BistRole::Sa;
    return BistRole::None;
  }

  /// 3-bit encoding; the BIST allocator packs it four bits per register.
  [[nodiscard]] std::uint8_t encode() const {
    return static_cast<std::uint8_t>((tpg ? 1 : 0) | (sa ? 2 : 0) |
                                     (cbilbo ? 4 : 0));
  }
  [[nodiscard]] static RoleFlags decode(std::uint8_t bits) {
    return RoleFlags{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
  }
};

[[nodiscard]] constexpr const char* to_string(BistRole r) {
  switch (r) {
    case BistRole::None: return "-";
    case BistRole::Tpg: return "TPG";
    case BistRole::Sa: return "SA";
    case BistRole::TpgSa: return "TPG/SA";
    case BistRole::Cbilbo: return "CBILBO";
  }
  return "?";
}

}  // namespace lbist
