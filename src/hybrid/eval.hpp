#pragma once
// Optional post-pipeline hybrid evaluation: runs the remaining synthesis
// passes on a SynthState (e.g. one restored from a posted IR snapshot),
// grades the resulting BIST plan under one hybrid configuration, and
// stores the report in the state's `aux["hybrid"]` slot so a re-snapshot
// carries it.  This is what the server's {"type":"hybrid"} request and
// the CLI resume path call.

#include "hybrid/session.hpp"
#include "passes/pipeline.hpp"

namespace lbist {

/// Serializes a configuration (every field that affects the outcome).
[[nodiscard]] Json hybrid_config_to_json(const HybridConfig& config);

/// Inverse of hybrid_config_to_json; missing fields keep their defaults.
/// Throws lbist::Error on an unknown mode name or an out-of-range field
/// (pr_patterns or reseed_burst outside 1..65535, evolve_population
/// outside 2..64, evolve_generations outside 0..64, evolve_seed not an
/// integer in [0, 2^53)), naming the field.
[[nodiscard]] HybridConfig hybrid_config_from_json(const Json& j);

/// Serializes a session result (aggregates + per-module breakdown).
[[nodiscard]] Json hybrid_result_to_json(const HybridSessionResult& result);

/// Runs any passes `state` has not completed, evaluates `config` against
/// the final BIST plan, records the report under `state.aux["hybrid"]`
/// and returns it.  The report holds the config, the session result and
/// the three sweep objectives (bist_area / fault_coverage / test_length).
[[nodiscard]] Json evaluate_hybrid(SynthState& state,
                                   const HybridConfig& config);

}  // namespace lbist
