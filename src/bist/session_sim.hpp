#pragma once
// The BIST session simulator behind every grading engine.
//
// One module test session as the hardware runs it: two TPG registers
// (maximal-length LFSRs, support/lfsr.hpp) drive the operand ports, the
// module computes, and its SA register, a MISR, compacts one response per
// clock.  A module implementing several functions runs one sub-session per
// function; each restarts the generators from their seeds and the MISR
// from zero.  A fault is detected when some sub-session's faulty signature
// differs from the fault-free one.
//
// The fault universe is the parameter.  Port faults (bist/fault_sim.hpp)
// are evaluated word-level through eval_op; gate faults
// (gates/gate_fault_sim.hpp) are evaluated 64 clocks at a time on the
// module netlist src/gates supplies.  Both use the stimulus, compaction and
// grading loop below, so the premise that the TPG/SA mapping does not
// depend on the gate-level implementation is one simulator checked against
// itself (tests/fault_sim_test.cpp), not two code paths.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rtl/ipath.hpp"
#include "support/lfsr.hpp"

namespace lbist {

/// Generic TPG seeds: the stimulus of a module graded without an
/// allocation (simulate_module_bist, simulate_gate_bist, build_test_plan).
inline constexpr std::uint32_t kGenericSeedLeft = 0x5;
inline constexpr std::uint32_t kGenericSeedRight = 0x13;

/// Chip seed of TPG register `reg` at `width` bits: the power-on constant
/// the emitted hardware (bist/verilog_bist.cpp) and every grader of an
/// allocated plan agree on.  Never zero (an all-zero LFSR state is
/// absorbing).  Throws lbist::Error for a width outside 2..32, as does
/// `period_capped`.
[[nodiscard]] std::uint32_t chip_seed(std::size_t reg, int width);

/// `patterns` capped at one LFSR period (2^width - 1).  Past it the TPG
/// replays its sequence, and since the MISR is linear over GF(2) an error
/// stream absorbed twice cancels out of the signature; real BIST schedules
/// never run past the generator period for the same reason.
[[nodiscard]] int period_capped(int patterns, int width);

/// The two pattern generators of one module session.
struct TpgPair {
  std::uint32_t left = kGenericSeedLeft;
  std::uint32_t right = kGenericSeedRight;
  /// A port fed over a transparent path sees its generator one clock late
  /// (through the identity module into the via register, reset to zero).
  bool left_delayed = false;
  bool right_delayed = false;

  /// The generic pair.  With `independent` false one sequence drives both
  /// ports: the degenerate set-up the rule tpg_left != tpg_right prevents.
  [[nodiscard]] static TpgPair generic(bool independent = true);
  /// The chip seeds of an embedding's TPG registers, with the delays of
  /// its transparent paths.
  [[nodiscard]] static TpgPair chip(const BistEmbedding& e, int width);
};

/// Up to 64 consecutive clocks of a session, bit-sliced for 64-lane
/// netlist evaluation: bit p of a[i] is bit i of operand A at clock p.
struct PackedBlock {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  int clocks = 0;
};

/// Bit-slices up to 64 operand pairs (a and b of equal length), clock p
/// into lane p; lanes past a.size() read zero.
[[nodiscard]] PackedBlock pack_block(std::span<const std::uint32_t> a,
                                     std::span<const std::uint32_t> b,
                                     int width);

/// The operand stream a TPG pair applies over one period-capped session.
struct Stimulus {
  Stimulus(const TpgPair& tpgs, int patterns, int width);

  int width = 0;
  std::vector<std::uint32_t> a;  ///< operand A, one word per clock
  std::vector<std::uint32_t> b;  ///< operand B, one word per clock

  /// MISR signature of the responses `respond(a, b)` to every clock.
  template <class Respond>
  [[nodiscard]] std::uint32_t signature(Respond&& respond) const {
    Misr sa(width);
    for (std::size_t p = 0; p < a.size(); ++p) sa.absorb(respond(a[p], b[p]));
    return sa.signature();
  }

  /// The stream in 64-clock blocks.
  [[nodiscard]] std::vector<PackedBlock> packed() const;
};

/// MISR signature of 64-lane responses: `respond(block)` returns one word
/// per output bit, lane p holding the block's clock p.
[[nodiscard]] std::uint32_t packed_signature(
    const std::vector<PackedBlock>& blocks, int width,
    const std::function<std::vector<std::uint64_t>(const PackedBlock&)>&
        respond);

/// Outcome of a fault simulation: detected/total over a fault universe.
struct CoverageResult {
  int total = 0;
  int detected = 0;

  [[nodiscard]] double coverage() const {
    return total == 0 ? 1.0 : static_cast<double>(detected) / total;
  }
};

/// One module's faults graded over its sub-sessions.
struct SessionGrade {
  std::vector<std::uint32_t> golden;  ///< fault-free signature per sub-session
  CoverageResult coverage;
  std::vector<int> undetected;  ///< fault indices, ascending
};

/// The golden-versus-faulty grading loop.  `signature(s, f)` is the MISR
/// signature of sub-session s with fault f injected (f = -1: fault-free);
/// fault f is detected when some sub-session's signature differs from the
/// golden one.
[[nodiscard]] SessionGrade grade_faults(
    int sub_sessions, int faults,
    const std::function<std::uint32_t(int, int)>& signature);

}  // namespace lbist
