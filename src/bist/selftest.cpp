#include "bist/selftest.hpp"

#include <string>

#include "support/check.hpp"

namespace lbist {

namespace {

/// Throws unless every register the embedding of module `m` uses is wired
/// to where the embedding needs it.
void check_wiring(const Datapath& dp, const BistEmbedding& e,
                  std::size_t m) {
  const DpModule& mod = dp.modules[m];
  auto check_tpg_path = [&](std::size_t tpg,
                            const std::optional<std::size_t>& through,
                            const std::optional<std::size_t>& via,
                            const std::set<std::size_t>& sources,
                            const char* port) {
    if (!through.has_value()) {
      LBIST_CHECK(sources.count(tpg) > 0,
                  "TPG " + dp.registers[tpg].name +
                      " is not connected to the " + port + " port of " +
                      mod.name);
      return;
    }
    // Transparent path: tpg -> through(identity) -> via -> port.
    const DpModule& wire = dp.modules[*through];
    LBIST_CHECK(via.has_value() && sources.count(*via) > 0,
                "transparent path via-register does not feed the " +
                    std::string(port) + " port of " + mod.name);
    LBIST_CHECK(wire.left_sources.count(tpg) > 0 ||
                    wire.right_sources.count(tpg) > 0,
                "TPG does not feed the transparent module " + wire.name);
    LBIST_CHECK(wire.dest_registers.count(*via) > 0,
                "transparent module " + wire.name +
                    " does not write the via register");
  };
  check_tpg_path(e.tpg_left, e.left_through, e.left_via, mod.left_sources,
                 "left");
  check_tpg_path(e.tpg_right, e.right_through, e.right_via,
                 mod.right_sources, "right");
  if (e.sa.has_value()) {
    LBIST_CHECK(mod.dest_registers.count(*e.sa) > 0,
                "SA " + dp.registers[*e.sa].name + " is not written by " +
                    mod.name);
  }
}

}  // namespace

SelfTestResult run_self_test(const Datapath& dp,
                             const BistSolution& solution, int patterns,
                             int width) {
  // Configure the chip session by session before grading anything.
  const TestSessionPlan sessions = schedule_test_sessions(dp, solution);
  for (int s = 0; s < sessions.num_sessions; ++s) {
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      if (sessions.session_of[m] == s) {
        check_wiring(dp, *solution.embeddings[m], m);
      }
    }
  }

  const std::vector<StuckFault> faults = enumerate_port_faults(width);
  SelfTestResult result;
  result.golden_signatures.resize(dp.modules.size());
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    if (!solution.embeddings[m].has_value()) continue;
    const BistEmbedding& e = *solution.embeddings[m];
    const std::vector<OpKind>& kinds = dp.modules[m].proto.supports;
    // An output observed at a primary pin leaves no on-chip signature:
    // every sub-session reads zero and every fault escapes.
    const SessionGrade grade =
        e.sa.has_value()
            ? grade_port_faults(kinds, TpgPair::chip(e, width), patterns,
                                width)
            : grade_faults(static_cast<int>(kinds.size()),
                           static_cast<int>(faults.size()),
                           [](int, int) { return 0u; });
    result.golden_signatures[m] = grade.golden;
    result.faults_injected += grade.coverage.total;
    result.faults_detected += grade.coverage.detected;
    for (int f : grade.undetected) {
      result.escapes.push_back(
          ModuleFault{m, faults[static_cast<std::size_t>(f)]});
    }
  }
  return result;
}

}  // namespace lbist
