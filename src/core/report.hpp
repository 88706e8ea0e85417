#pragma once
// Machine-readable reports: JSON serialization of synthesis results,
// comparisons and design-space sweeps (CLI `--json`, CI integration).

#include "core/compare.hpp"
#include "core/explorer.hpp"
#include "core/synthesizer.hpp"
#include "support/json.hpp"

namespace lbist {

/// Full single-design report: binding, data path structure, BIST solution
/// and the headline metrics.
[[nodiscard]] Json report_json(const Dfg& dfg, const SynthesisResult& r);

/// Traditional-vs-testable comparison (one Table I row).
[[nodiscard]] Json comparison_json(const ComparisonRow& row);

/// A design-space sweep (`lowbist explore --json`): one object per point,
/// with its binder's short name, its total area and its Pareto membership.
[[nodiscard]] Json sweep_json(const std::vector<DesignPoint>& points);

}  // namespace lbist
