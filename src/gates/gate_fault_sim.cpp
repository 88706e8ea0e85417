#include "gates/gate_fault_sim.hpp"

#include <algorithm>

namespace lbist {

std::vector<GateFault> enumerate_gate_faults(const GateNetlist& netlist) {
  // Every node is a fault site, constants included (a stuck tie-cell is a
  // real defect; the stuck-at-same-value variant is trivially untestable
  // and simply stays undetected, like any redundant fault).
  std::vector<GateFault> faults;
  for (std::size_t n = 0; n < netlist.num_nodes(); ++n) {
    faults.push_back(GateFault{static_cast<int>(n), false});
    faults.push_back(GateFault{static_cast<int>(n), true});
  }
  return faults;
}

namespace {

/// Grades every gate fault of `module` under one session of `tpgs`.  Fault
/// index 2n + v is node n stuck at v, the enumerate_gate_faults order.
GateBistDetail grade_gate_faults(const ModuleNetlist& module,
                                 const TpgPair& tpgs, int patterns) {
  const std::vector<PackedBlock> blocks =
      Stimulus(tpgs, patterns, module.width).packed();
  const SessionGrade grade = grade_faults(
      1, 2 * static_cast<int>(module.netlist.num_nodes()), [&](int, int f) {
        return packed_signature(blocks, module.width,
                                [&](const PackedBlock& blk) {
                                  return module.eval(blk.a, blk.b,
                                                     f < 0 ? -1 : f / 2,
                                                     f % 2 == 1);
                                });
      });
  GateBistDetail detail;
  detail.summary = grade.coverage;
  detail.golden_signature = grade.golden.front();
  for (int f : grade.undetected) {
    detail.undetected.push_back(GateFault{f / 2, f % 2 == 1});
  }
  return detail;
}

}  // namespace

CoverageResult simulate_gate_bist(const ModuleNetlist& module, int patterns,
                                  bool independent_tpgs) {
  return grade_gate_faults(module, TpgPair::generic(independent_tpgs),
                           patterns)
      .summary;
}

GateBistDetail simulate_gate_bist_seeded(const ModuleNetlist& module,
                                         std::uint32_t seed_a,
                                         std::uint32_t seed_b, int patterns) {
  return grade_gate_faults(module, TpgPair{seed_a, seed_b, false, false},
                           patterns);
}

std::vector<int> fault_cone_inputs(const GateNetlist& netlist, int node) {
  LBIST_CHECK(node >= 0 && static_cast<std::size_t>(node) < netlist.num_nodes(),
              "fault_cone_inputs: node out of range");
  // Nodes are in topological order, so one backward sweep with a reach
  // mask collects the transitive fan-in.
  std::vector<char> reach(netlist.num_nodes(), 0);
  reach[static_cast<std::size_t>(node)] = 1;
  std::vector<int> inputs;
  for (int n = node; n >= 0; --n) {
    if (!reach[static_cast<std::size_t>(n)]) continue;
    const GateNode& g = netlist.node(static_cast<std::size_t>(n));
    if (g.kind == GateKind::Input) {
      inputs.push_back(n);
      continue;
    }
    if (g.fanin0 >= 0) reach[static_cast<std::size_t>(g.fanin0)] = 1;
    if (g.fanin1 >= 0) reach[static_cast<std::size_t>(g.fanin1)] = 1;
  }
  std::reverse(inputs.begin(), inputs.end());
  return inputs;
}

bool pattern_detects_fault(const ModuleNetlist& module, std::uint32_t a,
                           std::uint32_t b, const GateFault& fault) {
  const PackedBlock blk = pack_block({&a, 1}, {&b, 1}, module.width);
  // Only lane 0 carries the pattern; the other 63 lanes are a spurious
  // all-zeros stimulus and must not contribute to the verdict.
  const auto golden = module.eval(blk.a, blk.b);
  const auto faulty = module.eval(blk.a, blk.b, fault.node, fault.stuck_one);
  for (std::size_t o = 0; o < golden.size(); ++o) {
    if (((golden[o] ^ faulty[o]) & 1u) != 0) return true;
  }
  return false;
}

}  // namespace lbist
