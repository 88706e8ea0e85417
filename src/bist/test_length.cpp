#include "bist/test_length.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lbist {

TestLength find_test_length(const ModuleProto& proto, int width,
                            double target) {
  LBIST_CHECK(target > 0.0 && target <= 1.0, "target must be in (0, 1]");
  const int period = period_capped(1000000, width);

  auto coverage_at = [&](int patterns) {
    return simulate_module_bist(proto, width, patterns);
  };

  // Galloping phase: find an upper bound meeting the target.
  int hi = 8;
  CoverageResult hi_cov = coverage_at(hi);
  while (hi_cov.coverage() < target && hi < period) {
    hi = std::min(hi * 2, period);
    hi_cov = coverage_at(hi);
  }
  if (hi_cov.coverage() < target) {
    // Unreachable within one period (redundant faults, aliasing).
    return TestLength{hi, hi_cov, false};
  }

  // Binary search for the smallest count still meeting the target.
  // Coverage is not strictly monotone (aliasing), so the result is the
  // smallest *found* count, verified by a final simulation.
  int lo = hi / 2;
  while (lo + 1 < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (coverage_at(mid).coverage() >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return TestLength{hi, coverage_at(hi), true};
}

DatapathTestLength find_test_lengths(const Datapath& dp, int width,
                                     double target) {
  DatapathTestLength out;
  for (const auto& mod : dp.modules) {
    out.per_module.push_back(find_test_length(mod.proto, width, target));
    const TestLength& tl = out.per_module.back();
    out.recommended_patterns = std::max(out.recommended_patterns,
                                        tl.patterns);
    out.all_targets_met = out.all_targets_met && tl.target_met;
  }
  return out;
}

}  // namespace lbist
