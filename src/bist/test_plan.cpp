#include "bist/test_plan.hpp"

#include <algorithm>
#include <sstream>

namespace lbist {

TestPlan build_test_plan(const Datapath& dp, const BistSolution& solution,
                         int patterns_per_module, int width) {
  TestPlan plan;
  const TestSessionPlan sessions = schedule_test_sessions(dp, solution);
  plan.num_sessions = sessions.num_sessions;

  double coverage_sum = 0.0;
  int covered_modules = 0;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    if (!solution.embeddings[m].has_value()) {
      continue;  // untestable — surfaced via BistSolution already
    }
    ModuleTestReport report;
    report.module = m;
    report.session = sessions.session_of[m];
    report.embedding = *solution.embeddings[m];
    report.patterns = period_capped(patterns_per_module, width);
    report.coverage =
        simulate_module_bist(dp.modules[m].proto, width, patterns_per_module);
    coverage_sum += report.coverage.coverage();
    plan.min_coverage =
        std::min(plan.min_coverage, report.coverage.coverage());
    ++covered_modules;
    plan.modules.push_back(report);
  }
  plan.avg_coverage =
      covered_modules == 0 ? 1.0 : coverage_sum / covered_modules;
  // Sessions run back to back; within a session everything runs at once,
  // so a session takes one module's (period-capped) pattern budget.
  plan.total_clocks =
      plan.num_sessions * period_capped(patterns_per_module, width);
  return plan;
}

std::string TestPlan::describe(const Datapath& dp) const {
  std::ostringstream os;
  os << "test plan: " << num_sessions << " session(s), " << total_clocks
     << " clocks, min coverage " << 100.0 * min_coverage << "%, avg "
     << 100.0 * avg_coverage << "%\n";
  for (const auto& m : modules) {
    os << "  session " << m.session << ": " << dp.modules[m.module].name
       << "  TPG={" << dp.registers[m.embedding.tpg_left].name << ","
       << dp.registers[m.embedding.tpg_right].name << "}  SA="
       << (m.embedding.sa.has_value()
               ? dp.registers[*m.embedding.sa].name
               : std::string("<primary output>"))
       << (m.embedding.needs_cbilbo() ? " (CBILBO)" : "") << "  coverage "
       << 100.0 * m.coverage.coverage() << "% (" << m.coverage.detected
       << "/" << m.coverage.total << ")\n";
  }
  return os.str();
}

}  // namespace lbist
