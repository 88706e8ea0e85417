#pragma once
// Incremental re-synthesis: after a DFG edit, re-run only the passes
// whose inputs actually changed.
//
// The driver keeps the previous run's serialized IR (the "ir" object of a
// snapshot, see passes/pipeline.hpp) together with a fingerprint of each
// pass's inputs (Pass::input_fingerprint).  On `resynthesize` it walks the
// pipeline in order; a pass whose current input fingerprint equals the
// previous one restores its output from that IR through its own
// deserialize() (the fingerprint covers *everything* the pass reads, so
// equality proves the deterministic pass would recompute the same bits),
// otherwise the pass runs for real.  Downstream fingerprints are computed
// over the *actual* state, so invalidation propagates exactly as far as
// the edit's effects do — and no further:
//
//  * renaming variables/operations reuses sched, conflict_graph and
//    binding (their outputs are id-based), re-running only interconnect
//    and bist (whose outputs embed names),
//  * changing only the area model re-runs just the bist pass,
//  * a structural edit (new operation, changed schedule) re-runs
//    everything downstream of the first affected pass.
//
// The result is bit-identical to a fresh Synthesizer(opts).run(...) by
// construction (a snapshot restores byte for byte, which the fuzzer's
// snapshot-roundtrip oracle checks); the fuzzer's incremental-vs-full
// oracle (src/fuzz) differentially checks exactly that on random designs
// and edits.

#include <cstdint>
#include <vector>

#include "passes/pipeline.hpp"

namespace lbist {

/// Re-synthesis driver with per-pass memoization.  Not thread-safe (one
/// driver per editing session).
class IncrementalSynthesizer {
 public:
  explicit IncrementalSynthesizer(SynthesisOptions opts = {})
      : opts_(opts) {}

  /// Cumulative reuse accounting across resynthesize() calls.
  struct Stats {
    std::size_t runs = 0;           ///< resynthesize() invocations
    std::size_t passes_run = 0;     ///< passes actually executed
    std::size_t passes_reused = 0;  ///< passes served from the cache
  };

  /// Synthesizes the (edited) design, reusing every pass output whose
  /// inputs are unchanged since the previous call.  The first call runs
  /// the full pipeline.
  [[nodiscard]] SynthesisResult resynthesize(
      const Dfg& dfg, const Schedule& sched,
      const std::vector<ModuleProto>& protos);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SynthesisOptions& options() const { return opts_; }
  /// Mutable access for editing-session option changes (e.g. a new area
  /// model): the per-pass fingerprints cover every synthesis-affecting
  /// option, so the next resynthesize() re-runs exactly the passes the
  /// change reaches.
  [[nodiscard]] SynthesisOptions& options() { return opts_; }

  /// Drops the cached run (the next resynthesize() is a full run).
  void invalidate();

 private:
  SynthesisOptions opts_;
  Stats stats_;
  /// The previous run's input fingerprints, one per pass (empty before
  /// the first run and after invalidate()), and its serialized IR.
  std::vector<std::uint64_t> fps_;
  Json prev_ir_;
};

}  // namespace lbist
