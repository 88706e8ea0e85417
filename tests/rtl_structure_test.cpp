// Structural checks of the four emitted RTL texts (data path, controller,
// testbench, BIST top), read back from the Verilog itself: the three that
// must match the data path's interface declare its ports at its widths,
// every sized literal fits its width, and no combinational block can
// infer a latch.  Run on the paper designs (both arms) and on a 1k-op
// scaling design whose widest muxes have 40+ inputs.

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bist/selftest.hpp"
#include "bist/verilog_bist.hpp"
#include "core/compare.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "rtl/testbench.hpp"
#include "rtl/verilog.hpp"
#include "rtl/verilog_controller.hpp"

namespace lbist {
namespace {

constexpr int kWidth = 8;
constexpr int kPatterns = 250;

struct Port {
  bool output = false;
  int width = 1;
  bool operator==(const Port&) const = default;
};
using Ports = std::map<std::string, Port>;

std::ostream& operator<<(std::ostream& os, const Port& p) {
  return os << (p.output ? "output " : "input ") << p.width;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

int range_width(const std::ssub_match& hi) {
  return hi.matched ? std::stoi(hi.str()) + 1 : 1;
}

/// The port declarations of module `name` in `text`, from "module name ("
/// to ");".
Ports module_ports(const std::string& text, const std::string& name) {
  static const std::regex decl(
      R"(^\s*(input|output)\s+(?:wire|reg)\s+(?:\[(\d+):0\]\s*)?(\w+),?$)");
  Ports ports;
  bool inside = false;
  for (const std::string& line : lines_of(text)) {
    if (line == "module " + name + " (") {
      inside = true;
    } else if (inside && line == ");") {
      return ports;
    } else if (std::smatch m; inside && std::regex_match(line, m, decl)) {
      ports[m[3]] = Port{m[1] == "output", range_width(m[2])};
    } else if (inside) {
      ADD_FAILURE() << "unparsed port line in " << name << ": " << line;
    }
  }
  ADD_FAILURE() << "no port list for module " << name;
  return ports;
}

Ports without(Ports ports, const std::set<std::string>& names) {
  for (const std::string& n : names) ports.erase(n);
  return ports;
}

/// The testbench's signal declarations: a `reg` drives a DUT input, a
/// `wire` reads a DUT output.
Ports testbench_signals(const std::string& tb) {
  static const std::regex decl(
      R"(^\s*(reg|wire)\s+(?:\[(\d+):0\]\s*)?(\w+)(?: = \d+)?;$)");
  Ports signals;
  for (const std::string& line : lines_of(tb)) {
    if (std::smatch m; std::regex_match(line, m, decl)) {
      signals[m[3]] = Port{m[1] == "wire", range_width(m[2])};
    }
  }
  return signals;
}

/// The port connections `.p(s)` of the testbench's DUT instance.
std::map<std::string, std::string> testbench_connections(
    const std::string& tb) {
  static const std::regex conn(R"(\.(\w+)\((\w+)\))");
  std::map<std::string, std::string> connections;
  for (auto it = std::sregex_iterator(tb.begin(), tb.end(), conn);
       it != std::sregex_iterator(); ++it) {
    connections[(*it)[1]] = (*it)[2];
  }
  return connections;
}

/// Sized literals N'dV, N'hV and N'bV whose value does not fit N bits.
std::vector<std::string> overflowing_literals(const std::string& text) {
  static const std::regex lit(R"((\d+)'([dhb])([0-9a-fA-F]+))");
  std::vector<std::string> bad;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), lit);
       it != std::sregex_iterator(); ++it) {
    const int bits = std::stoi((*it)[1]);
    const char base = (*it)[2].str()[0];
    const unsigned long long value = std::stoull(
        (*it)[3], nullptr, base == 'd' ? 10 : base == 'h' ? 16 : 2);
    if (bits < 64 && value >> bits != 0) bad.push_back(it->str());
  }
  return bad;
}

/// Targets of `always @(*)` blocks that some path through the block leaves
/// unassigned: a target must be assigned before the block's first `case`
/// or `if`, or the block must be one `case` whose `default:` assigns it.
std::vector<std::string> latch_targets(const std::string& text) {
  static const std::regex assign(R"(^(?:(\S+)\s*:\s*)?(\w+)\s*=[^=].*;$)");
  static const std::regex token(R"(\b(begin|end)\b)");
  std::vector<std::string> bad;
  const std::vector<std::string> lines = lines_of(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("always @(*) begin") == std::string::npos) continue;
    std::set<std::string> targets, before_branch, by_default;
    bool branched = false;
    bool single_case = false;
    int depth = 1;
    std::size_t j = i + 1;
    for (; j < lines.size() && depth > 0; ++j) {
      const std::string& line = lines[j];
      for (auto it = std::sregex_iterator(line.begin(), line.end(), token);
           it != std::sregex_iterator(); ++it) {
        depth += (*it)[1] == "begin" ? 1 : -1;
      }
      const std::string stmt = line.substr(line.find_first_not_of(' '));
      if (!branched && (stmt.starts_with("case") || stmt.starts_with("if"))) {
        branched = true;
        single_case = j == i + 1 && stmt.starts_with("case");
      }
      if (std::smatch m; std::regex_match(stmt, m, assign)) {
        targets.insert(m[2]);
        if (!branched) before_branch.insert(m[2]);
        if (m[1] == "default") by_default.insert(m[2]);
      }
    }
    // A single case block is the case and its endcase, then `end`.
    single_case = single_case && lines[j - 2].ends_with("endcase");
    for (const std::string& t : targets) {
      if (before_branch.count(t) == 0 &&
          !(single_case && by_default.count(t) > 0)) {
        bad.push_back(t + " (block at line " + std::to_string(i + 1) + ")");
      }
    }
  }
  return bad;
}

struct Case {
  std::string name;
  std::string module;  ///< verilog_ident of the data path's name
  std::string datapath, controller, testbench, bist;

  [[nodiscard]] std::vector<std::pair<const std::string*, const char*>>
  texts() const {
    return {{&datapath, "data path"},
            {&controller, "controller"},
            {&testbench, "testbench"},
            {&bist, "BIST top"}};
  }
};

Case emit_all(const Dfg& dfg, const Schedule& sched,
              const SynthesisResult& res) {
  const Datapath& dp = res.datapath;
  const Controller ctl =
      Controller::generate(dfg, sched, res.registers, dp, res.lifetimes);
  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  std::uint32_t next = 1;
  for (const auto& v : dfg.vars()) {
    if (v.is_input()) inputs[v.id] = next++;
  }
  const SimResult sim = simulate_datapath(dfg, dp, ctl, inputs, kWidth);
  EXPECT_TRUE(sim.ok());
  const SelfTestResult st = run_self_test(dp, res.bist, kPatterns, kWidth);
  return Case{"",
              verilog_ident(dp.name),
              emit_verilog(dp, kWidth),
              emit_controller_verilog(dp, ctl),
              emit_testbench(dfg, dp, ctl, inputs, sim, kWidth),
              emit_bist_verilog(dp, res.bist, st, kPatterns, kWidth)};
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Benchmark& bench : paper_benchmarks()) {
    const ComparisonRow row = compare_benchmark(bench);
    const Dfg& dfg = bench.design.dfg;
    const Schedule& sched = *bench.design.schedule;
    cases.push_back(emit_all(dfg, sched, row.traditional));
    cases.back().name = bench.name + "/trad";
    cases.push_back(emit_all(dfg, sched, row.testable));
    cases.back().name = bench.name + "/bist";
  }
  // bench_scaling's 1k-op design, whose widest port muxes have 40+ inputs.
  RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = 1000 / o.ops_per_step;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  const RandomDfg rd = make_random_dfg(o);
  SynthesisOptions so;
  so.binder = BinderKind::BistAware;
  so.lifetime.hold_outputs_to_end = false;
  const SynthesisResult res = Synthesizer(so).run(
      rd.dfg, rd.schedule, minimal_module_spec(rd.dfg, rd.schedule));
  cases.push_back(emit_all(rd.dfg, rd.schedule, res));
  cases.back().name = "random1000/bist";
  return cases;
}

/// Emitted once for all the tests below.
const std::vector<Case>& cases() {
  static const std::vector<Case> all = all_cases();
  return all;
}

TEST(RtlStructure, ScalingDesignHasMuxesWiderThanFourBitSelects) {
  const Case& large = cases().back();
  int wide = 0;
  for (const auto& [name, p] : module_ports(large.datapath, large.module)) {
    if (name.starts_with("sel_") && p.width > 4) ++wide;
  }
  EXPECT_GT(wide, 0);
}

TEST(RtlStructure, ControllerDrivesExactlyTheControlInputs) {
  for (const Case& c : cases()) {
    const Ports dp = module_ports(c.datapath, c.module);
    Ports control;
    for (const auto& [name, p] : dp) {
      if (!p.output && name != "clk" && name != "rst" &&
          !name.starts_with("load_")) {
        control[name] = Port{true, p.width};
      }
    }
    EXPECT_EQ(without(module_ports(c.controller, c.module + "_ctrl"),
                      {"clk", "rst", "start", "done", "busy"}),
              control)
        << c.name;
  }
}

TEST(RtlStructure, TestbenchDeclaresAndConnectsEveryPort) {
  for (const Case& c : cases()) {
    const Ports dp = module_ports(c.datapath, c.module);
    const Ports signals = testbench_signals(c.testbench);
    const auto connections = testbench_connections(c.testbench);
    EXPECT_EQ(connections.size(), dp.size()) << c.name;
    for (const auto& [name, p] : dp) {
      ASSERT_TRUE(signals.count(name) > 0) << c.name << ": " << name;
      EXPECT_EQ(signals.at(name), p) << c.name << ": " << name;
      ASSERT_TRUE(connections.count(name) > 0) << c.name << ": " << name;
      EXPECT_EQ(connections.at(name), name) << c.name;
    }
  }
}

TEST(RtlStructure, BistTopDeclaresExactlyTheDatapathPorts) {
  for (const Case& c : cases()) {
    EXPECT_EQ(without(module_ports(c.bist, c.module + "_bist"),
                      {"bist_run", "bist_done", "bist_pass"}),
              module_ports(c.datapath, c.module))
        << c.name;
  }
}

TEST(RtlStructure, EverySizedLiteralFitsItsWidth) {
  for (const Case& c : cases()) {
    for (const auto& [text, label] : c.texts()) {
      const std::vector<std::string> bad = overflowing_literals(*text);
      EXPECT_TRUE(bad.empty()) << c.name << " " << label << ": "
                               << bad.size() << " literals, first "
                               << bad.front();
    }
  }
}

TEST(RtlStructure, CombinationalBlocksInferNoLatch) {
  for (const Case& c : cases()) {
    for (const auto& [text, label] : c.texts()) {
      const std::vector<std::string> bad = latch_targets(*text);
      EXPECT_TRUE(bad.empty()) << c.name << " " << label << ": "
                               << bad.front();
    }
  }
}

// The checks themselves: each catches the fault it is for.
TEST(RtlStructureChecks, CatchTheirFaults) {
  EXPECT_EQ(overflowing_literals("x = 4'd16; y = 4'd15; z = 2'h4; w = 1'b1;"),
            (std::vector<std::string>{"4'd16", "2'h4"}));
  const std::string latch =
      "  always @(*) begin\n"
      "    a = 1'b0;\n"
      "    case (s)\n"
      "      1'd0: begin\n"
      "        a = 1'b1;\n"
      "        b = 1'b1;\n"
      "      end\n"
      "      default: ;\n"
      "    endcase\n"
      "  end\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      1'd0: c = 1'b1;\n"
      "      default: c = 1'b0;\n"
      "    endcase\n"
      "  end\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      1'd0: d = 1'b1;\n"
      "      default: ;\n"
      "    endcase\n"
      "  end\n";
  EXPECT_EQ(latch_targets(latch),
            (std::vector<std::string>{"b (block at line 1)",
                                      "d (block at line 17)"}));
  const Ports ports = module_ports(
      "module m (\n  input  wire clk,\n  input  wire [5:0] sel_a,\n"
      "  output reg  [3:0] op_b\n);\n",
      "m");
  EXPECT_EQ(ports, (Ports{{"clk", {false, 1}},
                          {"sel_a", {false, 6}},
                          {"op_b", {true, 4}}}));
}

}  // namespace
}  // namespace lbist
