#pragma once
// The pass abstraction: one pipeline phase as a named, serializable,
// fingerprintable unit of work.
//
// Every pass is a *pure deterministic function* of the SynthState fields
// it reads (its "inputs"): given equal inputs it writes equal outputs.
// That property is what makes the three features built on top of the
// pipeline sound:
//
//  * checkpoint/resume — serialize() captures a pass's output exactly;
//    resuming from a snapshot and running the remaining passes yields the
//    same bits as an uninterrupted run,
//  * remote execution — a {"type":"pass"} server request replays one
//    pass on a posted snapshot with identical results,
//  * incremental re-synthesis — input_fingerprint() hashes everything a
//    pass's output depends on; an unchanged fingerprint proves the
//    previous run's serialized output is still the answer, and
//    deserialize() restores it (passes/incremental.hpp).

#include <cstdint>

#include "passes/synth_state.hpp"
#include "support/json.hpp"

namespace lbist {

/// One pipeline phase.  Implementations are stateless (all state lives in
/// SynthState), so a Pass is shareable across threads and sweeps.
class Pass {
 public:
  virtual ~Pass() = default;

  Pass() = default;
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Stable identifier: "sched", "conflict_graph", "binding",
  /// "interconnect", "bist".  Doubles as the trace span name (the span
  /// names predate the pass manager; obs tooling depends on them).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Runs the pass: reads its inputs from `state`, writes its outputs
  /// into it.  Records one trace span (via state.options().trace) and
  /// feeds decision events exactly as the pre-refactor monolith did.
  virtual void run(SynthState& state) const = 0;

  /// Writes this pass's output into the snapshot's "ir" object.
  virtual void serialize(const SynthState& state, Json& ir) const = 0;

  /// Restores this pass's output from a snapshot's "ir" object.  Throws
  /// lbist::Error when the snapshot is malformed or inconsistent with the
  /// design.
  virtual void deserialize(const Json& ir, SynthState& state) const = 0;

  /// Hash of every input this pass's output depends on, in the snapshot's
  /// own encoding: the sections of options_to_json(state.options()) it
  /// reads (never the observability pointers), the members of `ir` it
  /// reads, and the design as structural_key or as printed text.  `ir`
  /// holds what serialize() wrote for the passes before this one.  Equal
  /// inputs give equal fingerprints; two different inputs collide only
  /// by a 64-bit hash collision.
  [[nodiscard]] virtual std::uint64_t input_fingerprint(
      const SynthState& state, const Json& ir) const = 0;
};

}  // namespace lbist
