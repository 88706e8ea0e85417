#pragma once
// Optional post-pipeline hybrid evaluation: runs the remaining synthesis
// passes on a SynthState (e.g. one restored from a posted IR snapshot)
// and grades the resulting BIST plan under one hybrid configuration.  The
// server's {"type":"hybrid"} request calls it.

#include "hybrid/session.hpp"
#include "passes/pipeline.hpp"

namespace lbist {

/// Serializes a configuration (every field that affects the outcome).
[[nodiscard]] Json hybrid_config_to_json(const HybridConfig& config);

/// Inverse of hybrid_config_to_json; missing fields keep their defaults.
/// Throws lbist::Error on an unknown mode name or a field that is not an
/// integer in its range (pr_patterns and reseed_burst 1..65535,
/// max_reseeds non-negative, evolve_population 2..64, evolve_generations
/// 0..64, evolve_seed [0, 2^53)), naming the field.
[[nodiscard]] HybridConfig hybrid_config_from_json(const Json& j);

/// Serializes a session result (aggregates + per-module breakdown).
[[nodiscard]] Json hybrid_result_to_json(const HybridSessionResult& result);

/// Runs any passes `state` has not completed, evaluates `config` against
/// the final BIST plan and returns the report.  The report holds the
/// config, the session result and the three sweep objectives (bist_area /
/// fault_coverage / test_length).
[[nodiscard]] Json evaluate_hybrid(SynthState& state,
                                   const HybridConfig& config);

}  // namespace lbist
