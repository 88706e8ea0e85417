#include "bist/verilog_bist.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "bist/session_sim.hpp"
#include "bist/sessions.hpp"
#include "rtl/verilog.hpp"
#include "support/check.hpp"
#include "support/lfsr.hpp"

namespace lbist {

namespace {

/// One sub-session of the emitted controller: the modules tested together
/// with one function slot each.
struct SubSession {
  struct ActiveModule {
    std::size_t module;
    OpKind kind;
    std::uint32_t golden;
  };
  std::vector<ActiveModule> active;
};

constexpr const char* kBilboPrimitive = R"(
// 4-mode test register: NORMAL load, HOLD, pseudo-random generation (LFSR),
// signature analysis (MISR), plus the two INIT modes that preset the
// corresponding seed.
module lowbist_bilbo #(
  parameter WIDTH = 8,
  parameter TAPS = 8'hB8,
  parameter SEED = 8'h05
) (
  input  wire             clk,
  input  wire [2:0]       mode,   // 0 normal, 1 hold, 2 tpg, 3 sa,
                                  // 4 init-tpg, 5 init-sa
  input  wire [WIDTH-1:0] d,      // functional / response input
  output reg  [WIDTH-1:0] q
);
  wire fb = ^(q & TAPS[WIDTH-1:0]);
  always @(posedge clk) begin
    case (mode)
      3'd0: q <= d;
      3'd1: q <= q;
      3'd2: q <= {q[WIDTH-2:0], fb};            // LFSR step
      3'd3: q <= {q[WIDTH-2:0], fb} ^ d;        // MISR compaction
      3'd4: q <= SEED[WIDTH-1:0];
      3'd5: q <= {WIDTH{1'b0}};
      default: q <= q;
    endcase
  end
endmodule
)";

constexpr const char* kCbilboPrimitive = R"(
// Concurrent BILBO: independent generator and compactor halves, so the
// register can stimulate and observe the same module in the same clock —
// at roughly twice the area of a plain register.
module lowbist_cbilbo #(
  parameter WIDTH = 8,
  parameter TAPS = 8'hB8,
  parameter SEED = 8'h05
) (
  input  wire             clk,
  input  wire [2:0]       mode,   // 0 normal, 1 hold, 2 test, 4 init
  input  wire [WIDTH-1:0] d,
  output reg  [WIDTH-1:0] q,        // functional value / signature
  output reg  [WIDTH-1:0] pattern   // generator half
);
  wire fbq = ^(q & TAPS[WIDTH-1:0]);
  wire fbp = ^(pattern & TAPS[WIDTH-1:0]);
  always @(posedge clk) begin
    case (mode)
      3'd0: begin q <= d; pattern <= pattern; end
      3'd2: begin
        q <= {q[WIDTH-2:0], fbq} ^ d;              // compact
        pattern <= {pattern[WIDTH-2:0], fbp};      // and generate
      end
      3'd4: begin q <= {WIDTH{1'b0}}; pattern <= SEED[WIDTH-1:0]; end
      default: begin q <= q; pattern <= pattern; end
    endcase
  end
endmodule
)";

}  // namespace

std::string emit_bist_verilog(const Datapath& dp,
                              const BistSolution& solution,
                              const SelfTestResult& golden, int patterns,
                              int width) {
  for (const auto& e : solution.embeddings) {
    LBIST_CHECK(!e.has_value() || !e->uses_transparency(),
                "transparency-extended plans are not emittable; use the C++ "
                "self-test engine");
  }
  patterns = period_capped(patterns, width);

  // Rebuild the sub-session table exactly as the self-test engine ran it.
  const TestSessionPlan sessions = schedule_test_sessions(dp, solution);
  std::vector<SubSession> subs;
  std::vector<std::size_t> golden_cursor(dp.modules.size(), 0);
  for (int s = 0; s < sessions.num_sessions; ++s) {
    std::size_t max_kinds = 0;
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      if (sessions.session_of[m] == s) {
        max_kinds =
            std::max(max_kinds, dp.modules[m].proto.supports.size());
      }
    }
    for (std::size_t slot = 0; slot < max_kinds; ++slot) {
      SubSession sub;
      for (std::size_t m = 0; m < dp.modules.size(); ++m) {
        if (sessions.session_of[m] != s) continue;
        if (slot >= dp.modules[m].proto.supports.size()) continue;
        sub.active.push_back(SubSession::ActiveModule{
            m, dp.modules[m].proto.supports[slot],
            golden.golden_signatures[m][golden_cursor[m]++]});
      }
      subs.push_back(std::move(sub));
    }
  }

  std::ostringstream os;
  os << "// Self-testing data path generated by lowbist from '" << dp.name
     << "'\n";
  os << kBilboPrimitive << kCbilboPrimitive;

  using Kind = DpPort::Kind;
  const std::vector<DpPort> ports = datapath_ports(dp, width);
  const std::string top = verilog_ident(dp.name) + "_bist";
  os << "\nmodule " << top << " (\n";
  os << "  input  wire clk,\n  input  wire rst,\n";
  os << "  input  wire bist_run,\n";
  os << "  output reg  bist_done,\n  output reg  bist_pass,\n";
  // The data path's functional ports (normal mode).
  os << port_declarations(ports) << ");\n\n";

  // BIST controller state.  `cycle` holds 0..PATTERNS + 1 and `sub`
  // 0..N_SUBS - 1: 16 and 8 bits, or wider where those values need it.
  const std::size_t n_subs = subs.size();
  const int cycle_bits =
      std::max(16, select_bits(static_cast<std::size_t>(patterns) + 2));
  const int sub_bits = std::max(8, select_bits(n_subs));
  const std::string cyc = std::to_string(cycle_bits) + "'d";
  const std::string sub_lit = std::to_string(sub_bits) + "'d";
  os << "  // ---- BIST controller ------------------------------------\n";
  os << "  localparam PATTERNS = " << patterns << ";\n";
  os << "  localparam N_SUBS = " << n_subs << ";\n";
  os << "  reg [" << cycle_bits - 1 << ":0] cycle;\n";
  os << "  reg [" << sub_bits - 1 << ":0]  sub;\n";
  os << "  reg        running;\n";
  os << "  wire init_cycle = running && (cycle == " << cyc << "0);\n";
  os << "  wire test_cycle = running && (cycle >= " << cyc
     << "1) && (cycle <= PATTERNS);\n";
  os << "  wire check_cycle = running && (cycle == PATTERNS + " << cyc
     << "1);\n\n";

  // Register roles per sub-session (mode tables).
  const std::uint32_t taps = primitive_taps(width);
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const std::string rn = verilog_ident(dp.registers[r].name);
    os << "  reg [2:0] bist_mode_" << rn << ";\n";
  }
  os << "\n  always @(*) begin\n";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    os << "    bist_mode_" << verilog_ident(dp.registers[r].name)
       << " = 3'd1;\n";
  }
  os << "    case (sub)\n";
  for (std::size_t si = 0; si < subs.size(); ++si) {
    os << "      " << sub_lit << si << ": begin\n";
    // Roles this sub-session.
    std::map<std::size_t, char> role;  // 'g' tpg, 's' sa, 'c' cbilbo
    for (const auto& am : subs[si].active) {
      const BistEmbedding& e = *solution.embeddings[am.module];
      role[e.tpg_left] = role.count(e.tpg_left) ? role[e.tpg_left] : 'g';
      role[e.tpg_right] = role.count(e.tpg_right) ? role[e.tpg_right] : 'g';
      if (e.sa.has_value()) {
        role[*e.sa] = e.needs_cbilbo() ? 'c' : 's';
      }
    }
    for (const auto& [r, kind] : role) {
      const std::string rn = verilog_ident(dp.registers[r].name);
      os << "        bist_mode_" << rn << " = init_cycle ? "
         << (kind == 'g' ? "3'd4" : (kind == 's' ? "3'd5" : "3'd4"))
         << " : " << (kind == 'g' ? "3'd2" : (kind == 's' ? "3'd3" : "3'd2"))
         << ";\n";
    }
    os << "      end\n";
  }
  os << "      default: ;\n    endcase\n  end\n\n";

  // Register instances: CBILBO where the solution demands, BILBO elsewhere.
  os << "  // ---- registers -------------------------------------------\n";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const std::string rn = verilog_ident(dp.registers[r].name);
    os << "  wire [" << width - 1 << ":0] " << rn << "_d;\n";
    os << "  wire [" << width - 1 << ":0] " << rn << "_q;\n";
    os << "  wire [2:0] mode_" << rn << " = bist_run ? bist_mode_" << rn
       << " : (" << find_port(ports, Kind::Enable, r)->name
       << " ? 3'd0 : 3'd1);\n";
    if (solution.roles[r] == BistRole::Cbilbo) {
      os << "  wire [" << width - 1 << ":0] " << rn << "_pat;\n";
      os << "  lowbist_cbilbo #(.WIDTH(" << width << "), .TAPS(" << width
         << "'h" << std::hex << taps << std::dec << "), .SEED(" << width
         << "'h" << std::hex << chip_seed(r, width) << std::dec << ")) u_"
         << rn << " (.clk(clk), .mode(mode_" << rn << "), .d(" << rn
         << "_d), .q(" << rn << "_q), .pattern(" << rn << "_pat));\n";
    } else {
      os << "  lowbist_bilbo #(.WIDTH(" << width << "), .TAPS(" << width
         << "'h" << std::hex << taps << std::dec << "), .SEED(" << width
         << "'h" << std::hex << chip_seed(r, width) << std::dec << ")) u_"
         << rn << " (.clk(clk), .mode(mode_" << rn << "), .d(" << rn
         << "_d), .q(" << rn << "_q));\n";
    }
    if (const DpPort* out = find_port(ports, Kind::Out, r)) {
      os << "  assign " << out->name << " = " << rn << "_q;\n";
    }
  }
  os << "\n";

  // Pattern tap per register (CBILBOs stimulate from the generator half).
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const std::string rn = verilog_ident(dp.registers[r].name);
    os << "  wire [" << width - 1 << ":0] " << rn << "_src = "
       << (solution.roles[r] == BistRole::Cbilbo
               ? ("bist_run ? " + rn + "_pat : " + rn + "_q")
               : (rn + "_q"))
       << ";\n";
  }
  os << "\n";

  os << "  // ---- functional units and port muxes ---------------------\n";
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    const std::string mn = verilog_ident(mod.name);
    const std::optional<BistEmbedding>& e = solution.embeddings[m];
    for (const auto& [side, kind, sources, tpg] :
         {std::tuple{"_l", Kind::LeftSelect, &mod.left_sources,
                     e ? e->tpg_left : *mod.left_sources.begin()},
          std::tuple{"_r", Kind::RightSelect, &mod.right_sources,
                     e ? e->tpg_right : *mod.right_sources.begin()}}) {
      std::vector<std::string> inputs;
      for (std::size_t r : *sources) {
        inputs.push_back(verilog_ident(dp.registers[r].name) + "_src");
      }
      // In test mode the select steers the embedding's TPG to the port.
      std::string select;
      if (const DpPort* sel = find_port(ports, kind, m)) {
        const auto it = sources->find(tpg);
        select = mn + side + "_sel";
        os << "  wire " << sel->range() << select << " = bist_run ? "
           << sel->width << "'d"
           << (it == sources->end() ? 0 : std::distance(sources->begin(), it))
           << " : " << sel->name << ";\n";
      }
      os << "  wire [" << width - 1 << ":0] " << mn << side << " = "
         << mux_expr(select, inputs) << ";\n";
    }

    if (const DpPort* op = find_port(ports, Kind::Op, m)) {
      // In test mode the controller sequences the function slots.
      const std::string op_lit = std::to_string(op->width) + "'d";
      os << "  reg " << op->range() << mn << "_op_test;\n";
      os << "  always @(*) begin\n    " << mn << "_op_test = " << op_lit
         << "0;\n    case (sub)\n";
      for (std::size_t si = 0; si < subs.size(); ++si) {
        for (const auto& am : subs[si].active) {
          if (am.module != m) continue;
          os << "      " << sub_lit << si << ": " << mn << "_op_test = "
             << op_lit << kind_index(mod.proto, am.kind) << ";\n";
        }
      }
      os << "      default: ;\n    endcase\n  end\n";
      os << "  wire " << op->range() << mn << "_op = bist_run ? " << mn
         << "_op_test : " << op->name << ";\n";
    }
    os << function_unit(dp, ports, m, mn + "_op", width);
  }
  os << "\n";

  // Register data inputs: functional mux, overridden by the module under
  // observation in test mode.
  os << "  // ---- register input muxes --------------------------------\n";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const std::string rn = verilog_ident(dp.registers[r].name);
    // In test mode an SA register compacts the module the current
    // sub-session assigns to it.
    std::ostringstream test_cases;
    for (std::size_t si = 0; si < subs.size(); ++si) {
      for (const auto& am : subs[si].active) {
        const auto& e = *solution.embeddings[am.module];
        if (e.sa.has_value() && *e.sa == r) {
          test_cases << "      " << sub_lit << si << ": " << rn
                     << "_test_d = "
                     << verilog_ident(dp.modules[am.module].name) << "_y;\n";
        }
      }
    }
    const bool has_test_source = !test_cases.str().empty();
    if (has_test_source) {
      os << "  reg [" << width - 1 << ":0] " << rn << "_test_d;\n";
      os << "  always @(*) begin\n    " << rn << "_test_d = {" << width
         << "{1'b0}};\n    case (sub)\n"
         << test_cases.str() << "      default: ;\n    endcase\n  end\n";
    }
    os << "  assign " << rn << "_d = ";
    if (has_test_source) os << "bist_run ? " << rn << "_test_d : ";
    const DpPort* sel = find_port(ports, Kind::Select, r);
    os << "(" << mux_expr(sel ? sel->name : "", register_mux_inputs(dp, r))
       << ");\n";
  }
  os << "\n";

  // Controller FSM with golden-signature comparison.
  os << "  // ---- sequencing and signature check ----------------------\n";
  os << "  always @(posedge clk) begin\n";
  os << "    if (rst || !bist_run) begin\n";
  os << "      cycle <= " << cyc << "0; sub <= " << sub_lit
     << "0; running <= bist_run;\n";
  os << "      bist_done <= 1'b0; bist_pass <= 1'b1;\n";
  os << "    end else if (running) begin\n";
  os << "      if (check_cycle) begin\n";
  os << "        case (sub)\n";
  for (std::size_t si = 0; si < subs.size(); ++si) {
    os << "          " << sub_lit << si << ": begin\n";
    for (const auto& am : subs[si].active) {
      const auto& e = *solution.embeddings[am.module];
      if (!e.sa.has_value()) continue;
      os << "            if (" << verilog_ident(dp.registers[*e.sa].name)
         << "_q !== " << width << "'h" << std::hex << am.golden << std::dec
         << ") bist_pass <= 1'b0;\n";
    }
    os << "          end\n";
  }
  os << "          default: ;\n        endcase\n";
  os << "        cycle <= " << cyc << "0;\n";
  os << "        if (sub + " << sub_lit << "1 == N_SUBS) begin\n";
  os << "          running <= 1'b0; bist_done <= 1'b1;\n";
  os << "        end else begin\n";
  os << "          sub <= sub + " << sub_lit << "1;\n";
  os << "        end\n";
  os << "      end else begin\n";
  os << "        cycle <= cycle + " << cyc << "1;\n";
  os << "      end\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
