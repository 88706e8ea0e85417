#pragma once
// Differential invariant oracles for the fuzzer.
//
// Each generated (or replayed) scheduled DFG is pushed through the
// traditional, clique-partitioning and BIST-aware binders (plus the
// loop-aware binder when the design carries loop ties) and checked against
// invariants the paper's construction guarantees:
//
//   binding-valid:<arm>     the register binding partitions the allocatable
//                           variables with no intra-register conflicts
//   binding-minimal:<arm>   trad/bist bindings use exactly the clique
//                           number of registers, the live peak `max_live`
//                           (paper Section III)
//   simulation:<arm>        cycle-level datapath simulation of the bound
//                           design matches DFG reference semantics on
//                           deterministic input vectors
//   loop-simulation         multi-iteration simulation with loop feedback
//                           tracks the reference on every iteration
//   lemma2:<arm>            trad and bist arms: Lemma-2 forced-CBILBO
//                           verdicts agree with brute force over every BIST
//                           embedding (small designs) — the check that
//                           catches a Lemma-2 fault
//   events-cbilbo           the bist arm's cbilbo_forced events name the
//                           modules forced_cbilbos finds on the finished
//                           binding; the binder emits them from that same
//                           function, so this catches event plumbing only
//   area-consistency        functional area, extra area and the overhead
//                           percentage are mutually consistent, and the
//                           exact allocator never loses to the greedy one
//   greedy-reference:<arm>  the greedy BIST allocator picks exactly the
//                           embeddings of a greedy over the full embedding
//                           product (transparent paths too on designs
//                           within `deep_check_max_ops`)
//   binder-reference:bist   the BIST-aware binder, with and without a
//                           recording sink, returns exactly the binding
//                           of a binder that tests every open register
//                           for every variable
//   report-consistency      the JSON report round-trips and its metrics
//                           equal the synthesis result
//   snapshot-roundtrip      every stage-boundary IR snapshot (src/passes)
//                           serializes, re-parses and resumes to the byte-
//                           identical text and JSON reports
//   incremental             IncrementalSynthesizer matches full synthesis
//                           bit for bit across no-op, area-model and
//                           lifetime-policy edits, reusing exactly the
//                           passes each edit cannot reach
//
// `inject_binding_bug` deliberately breaks the traditional binding before
// validation (moves a variable into a conflicting register) — the fuzzing
// self-test that proves the harness catches and minimizes real invariant
// violations.

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/schedule.hpp"

namespace lbist {

/// Oracle configuration for one case.
struct OracleOptions {
  int width = 4;  ///< datapath bit width for area model and simulation
  /// Extra input vector entropy (the first vector is always input i = i+1).
  std::uint64_t stimulus_seed = 1;
  /// Run the Lemma-2-vs-brute-force comparison (skipped automatically when
  /// the embedding space exceeds `lemma2_budget` combinations).
  bool check_lemma2 = true;
  double lemma2_budget = 50000;
  /// Size gate for the clique-partitioning arm: its partitioner is
  /// super-quadratic in the variable count, so designs beyond this many
  /// operations skip that arm (the ≥1k-op fuzz shapes would otherwise
  /// spend the whole campaign inside one binder).  0 disables the arm.
  int clique_arm_max_ops = 400;
  /// Size gate for the snapshot-roundtrip and incremental oracles: they
  /// re-run the full pipeline (exact BIST allocator included) about a
  /// dozen times per case, so they only fire on designs with at most this
  /// many operations.  0 disables them.
  int deep_check_max_ops = 12;
  /// Mutation self-test: corrupt the traditional binding before validation.
  bool inject_binding_bug = false;
};

/// One violated invariant.
struct OracleFailure {
  std::string oracle;  ///< e.g. "simulation:bist"
  std::string detail;  ///< human-readable specifics
};

/// Outcome of running every oracle on one design.
struct OracleVerdict {
  std::vector<OracleFailure> failures;
  /// Deterministic fingerprint of everything the oracles observed
  /// (register/mux counts, overheads, simulation values).  Two runs of the
  /// same case must produce the same digest — the fuzz driver folds these
  /// into the run digest to detect nondeterminism.
  std::uint64_t digest = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// True if some failure's oracle name equals `name`.
  [[nodiscard]] bool failed(const std::string& name) const;
};

/// Runs every applicable oracle on a scheduled design.  Structural errors
/// thrown by the pipeline itself (not by a validation oracle) are reported
/// as a failure of oracle "pipeline:<arm>" rather than propagated.
[[nodiscard]] OracleVerdict run_oracles(const Dfg& dfg, const Schedule& sched,
                                        const OracleOptions& opts);

}  // namespace lbist
