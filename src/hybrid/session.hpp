#pragma once
// Hybrid test-session model (cf. "BILBO-friendly Hybrid BIST Architecture
// with Asymmetric Polynomial Reseeding"): grades one allocated BIST plan
// under a three-phase test scheme and prices it in clocks.
//
//   PR      The allocated TPG registers run from their chip seeds for
//           `pr_patterns` clocks (period-capped), MISR per module function
//           — the session simulator's gate fault universe, walked over the
//           plan exactly as run_gate_self_test walks it, so mode
//           PseudoRandom reproduces its coverage numbers.
//   Reseed  Each fault left undetected ("hard") gets a deterministic seed
//           search (hybrid/reseed.hpp); a hit costs one scan load (width
//           clocks) plus a `reseed_burst`-clock burst that often picks up
//           collateral hard faults.
//   Top-up  Hard faults still alive after the reseed budget are applied as
//           single deterministic scan patterns (width + 1 clocks each).
//
// Modules without a gate-level model (dividers) fall back to the
// port-fault model (simulate_module_bist, under the generic seeds) and are
// never reseeded.  Concurrency follows the
// allocator's session plan: the total test length is the sum over test
// sessions of the longest member module's clocks.

#include <cstdint>
#include <string>
#include <vector>

#include "bist/allocator.hpp"
#include "hybrid/evolve.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

class TraceRecorder;  // obs/trace.hpp

/// Which phases a configuration runs.
enum class HybridMode {
  PseudoRandom,  ///< chip-seed LFSR phase only
  Reseed,        ///< PR + per-hard-fault reseeding bursts
  ReseedTopup,   ///< Reseed + deterministic top-up for the leftovers
  Evolved,       ///< GA-evolved seed pair replaces the chip seeds (baseline)
};

[[nodiscard]] const char* hybrid_mode_name(HybridMode mode);

/// One point on the test-scheme axis of the sweep.
struct HybridConfig {
  std::string name = "pr";
  HybridMode mode = HybridMode::PseudoRandom;
  int pr_patterns = 256;  ///< PR phase clocks (period-capped per module)
  int max_reseeds = 32;   ///< reseed budget per module function
  int reseed_burst = 16;  ///< clocks per reseed burst
  EvolveParams evolve{};  ///< GA knobs (mode Evolved)
};

/// The sweep's default configuration ladder, scaled from the pattern
/// budget: a full-budget PR arm, a quarter-budget PR arm (what hybrid
/// spends before reseeding), the hybrid arms, and the evolved baseline.
[[nodiscard]] std::vector<HybridConfig> default_hybrid_configs(int patterns);

/// Per-module outcome.
struct ModuleHybridResult {
  std::size_t module = 0;
  bool gate_level = true;  ///< false = port-fault fallback (no reseeding)
  int faults_total = 0;
  int detected_pr = 0;      ///< by the pseudo-random (or evolved) phase
  int detected_reseed = 0;  ///< by reseeding bursts
  int detected_topup = 0;   ///< by deterministic top-up patterns
  int hard_faults = 0;      ///< undetected after the PR phase
  int reseeds_used = 0;
  int topups_used = 0;
  long long test_clocks = 0;

  [[nodiscard]] int detected() const {
    return detected_pr + detected_reseed + detected_topup;
  }
};

/// Whole-plan outcome.
struct HybridSessionResult {
  std::vector<ModuleHybridResult> modules;
  int faults_total = 0;
  int faults_detected = 0;
  int hard_faults = 0;
  int reseeds_used = 0;
  int topups_used = 0;
  int num_sessions = 0;
  /// Sum over test sessions of the longest member module's clocks.
  long long test_clocks = 0;

  [[nodiscard]] double coverage() const {
    return faults_total == 0
               ? 1.0
               : static_cast<double>(faults_detected) / faults_total;
  }
};

/// Evaluates `config` against the allocated plan: every testable module is
/// graded with its embedding's chip seeds, untestable modules contribute
/// nothing, and the session plan prices concurrency.  Deterministic.
[[nodiscard]] HybridSessionResult run_hybrid_session(
    const Datapath& dp, const BistSolution& solution,
    const HybridConfig& config, int width, TraceRecorder* trace = nullptr);

}  // namespace lbist
