#include "gates/gate_selftest.hpp"

#include "gates/gate_fault_sim.hpp"
#include "support/check.hpp"

namespace lbist {

std::vector<GateGradedModule> gate_graded_modules(
    const Datapath& dp, const BistSolution& solution, int width,
    const std::string& grader) {
  LBIST_CHECK(solution.embeddings.size() == dp.modules.size(),
              grader + " grading: solution does not match the data path");
  std::vector<GateGradedModule> modules;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    if (!solution.embeddings[m].has_value()) continue;
    const BistEmbedding& e = *solution.embeddings[m];
    LBIST_CHECK(!e.uses_transparency(),
                grader + " grading of transparent paths is not supported");
    GateGradedModule g;
    g.module = m;
    g.tpgs = TpgPair::chip(e, width);
    for (OpKind k : dp.modules[m].proto.supports) {
      g.gate_level = g.gate_level && has_gate_level_model(k);
    }
    modules.push_back(g);
  }
  return modules;
}

GateSelfTestResult run_gate_self_test(const Datapath& dp,
                                      const BistSolution& solution,
                                      int patterns, int width) {
  GateSelfTestResult result;
  for (const GateGradedModule& g :
       gate_graded_modules(dp, solution, width, "gate-level")) {
    const ModuleProto& proto = dp.modules[g.module].proto;
    GateSelfTestModule report{g.module, g.gate_level, {}};
    if (!g.gate_level) {
      report.coverage = simulate_module_bist(proto, width, patterns);
    } else {
      for (OpKind k : proto.supports) {
        const CoverageResult c =
            simulate_gate_bist_seeded(build_module(k, width), g.tpgs.left,
                                      g.tpgs.right, patterns)
                .summary;
        report.coverage.total += c.total;
        report.coverage.detected += c.detected;
      }
    }
    result.faults_injected += report.coverage.total;
    result.faults_detected += report.coverage.detected;
    result.modules.push_back(report);
  }
  return result;
}

}  // namespace lbist
