#include "bist/verilog_bist.hpp"

#include <map>
#include <sstream>
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

  const std::string top = verilog_ident(dp.name) + "_bist";
  os << "\nmodule " << top << " (\n";
  os << "  input  wire clk,\n  input  wire rst,\n";
  os << "  input  wire bist_run,\n";
  os << "  output reg  bist_done,\n  output reg  bist_pass,\n";
  // Functional ports (normal mode): loads, enables, selects, outputs.
  std::vector<std::string> ports;
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    if (reg.external_source || reg.dedicated_input) {
      ports.push_back("  input  wire [" + std::to_string(width - 1) +
                      ":0] load_" + rn);
    }
    ports.push_back("  input  wire en_" + rn);
    ports.push_back("  input  wire [3:0] sel_" + rn);
    if (reg.drives_output) {
      ports.push_back("  output wire [" + std::to_string(width - 1) +
                      ":0] out_" + rn);
    }
  }
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    ports.push_back("  input  wire [3:0] sel_" + mn + "_l");
    ports.push_back("  input  wire [3:0] sel_" + mn + "_r");
    if (mod.proto.supports.size() > 1) {
      ports.push_back("  input  wire [3:0] op_" + mn);
    }
  }
  for (std::size_t i = 0; i < ports.size(); ++i) {
    os << ports[i] << (i + 1 < ports.size() ? ",\n" : "\n");
  }
  os << ");\n\n";

  // BIST controller state.
  const std::size_t n_subs = subs.size();
  os << "  // ---- BIST controller ------------------------------------\n";
  os << "  localparam PATTERNS = " << patterns << ";\n";
  os << "  localparam N_SUBS = " << n_subs << ";\n";
  os << "  reg [15:0] cycle;\n";
  os << "  reg [7:0]  sub;\n";
  os << "  reg        running;\n";
  os << "  wire init_cycle = running && (cycle == 16'd0);\n";
  os << "  wire test_cycle = running && (cycle >= 16'd1) && (cycle <= "
        "PATTERNS);\n";
  os << "  wire check_cycle = running && (cycle == PATTERNS + 16'd1);\n\n";

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
    os << "      8'd" << si << ": begin\n";
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
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    os << "  wire [" << width - 1 << ":0] " << rn << "_d;\n";
    os << "  wire [" << width - 1 << ":0] " << rn << "_q;\n";
    os << "  wire [2:0] mode_" << rn << " = bist_run ? bist_mode_" << rn
       << " : (en_" << rn << " ? 3'd0 : 3'd1);\n";
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
    if (reg.drives_output) os << "  assign out_" << rn << " = " << rn
                              << "_q;\n";
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

  // Test-mode port selects: index of the embedding TPG in the port list.
  os << "  // ---- functional units and port muxes ---------------------\n";
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    const std::string mn = verilog_ident(mod.name);
    auto emit_port = [&](const char* suffix,
                         const std::set<std::size_t>& sources,
                         std::size_t tpg_reg_for_test) {
      std::vector<std::size_t> srcs(sources.begin(), sources.end());
      int test_sel = 0;
      for (std::size_t i = 0; i < srcs.size(); ++i) {
        if (srcs[i] == tpg_reg_for_test) test_sel = static_cast<int>(i);
      }
      os << "  wire [3:0] " << mn << "_" << suffix
         << "_sel = bist_run ? 4'd" << test_sel << " : sel_" << mn << "_"
         << suffix << ";\n";
      os << "  wire [" << width - 1 << ":0] " << mn << "_" << suffix
         << " = ";
      for (std::size_t i = 0; i + 1 < srcs.size(); ++i) {
        os << "(" << mn << "_" << suffix << "_sel == " << i << ") ? "
           << verilog_ident(dp.registers[srcs[i]].name) << "_src : ";
      }
      os << verilog_ident(dp.registers[srcs.back()].name) << "_src;\n";
    };
    const bool testable = solution.embeddings[m].has_value();
    emit_port("l", mod.left_sources,
              testable ? solution.embeddings[m]->tpg_left
                       : *mod.left_sources.begin());
    emit_port("r", mod.right_sources,
              testable ? solution.embeddings[m]->tpg_right
                       : *mod.right_sources.begin());

    if (mod.proto.supports.size() == 1) {
      os << "  wire [" << width - 1 << ":0] " << mn << "_y = " << mn
         << "_l " << verilog_op(mod.proto.supports[0]) << " " << mn
         << "_r;\n";
    } else {
      // In test mode the controller sequences the function slots.
      os << "  reg [3:0] " << mn << "_op_test;\n";
      os << "  always @(*) begin\n    " << mn << "_op_test = 4'd0;\n"
         << "    case (sub)\n";
      for (std::size_t si = 0; si < subs.size(); ++si) {
        for (const auto& am : subs[si].active) {
          if (am.module != m) continue;
          for (std::size_t k = 0; k < mod.proto.supports.size(); ++k) {
            if (mod.proto.supports[k] == am.kind) {
              os << "      8'd" << si << ": " << mn << "_op_test = 4'd" << k
                 << ";\n";
            }
          }
        }
      }
      os << "      default: ;\n    endcase\n  end\n";
      os << "  wire [3:0] " << mn << "_op = bist_run ? " << mn
         << "_op_test : op_" << mn << ";\n";
      os << "  reg [" << width - 1 << ":0] " << mn << "_y_r;\n";
      os << "  always @(*) begin\n    case (" << mn << "_op)\n";
      for (std::size_t k = 0; k < mod.proto.supports.size(); ++k) {
        os << "      4'd" << k << ": " << mn << "_y_r = " << mn << "_l "
           << verilog_op(mod.proto.supports[k]) << " " << mn << "_r;\n";
      }
      os << "      default: " << mn << "_y_r = {" << width << "{1'b0}};\n";
      os << "    endcase\n  end\n";
      os << "  wire [" << width - 1 << ":0] " << mn << "_y = " << mn
         << "_y_r;\n";
    }
  }
  os << "\n";

  // Register data inputs: functional mux, overridden by the module under
  // observation in test mode.
  os << "  // ---- register input muxes --------------------------------\n";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    std::vector<std::string> inputs;
    for (std::size_t msrc : reg.source_modules) {
      inputs.push_back(verilog_ident(dp.modules[msrc].name) + "_y");
    }
    if (reg.external_source || reg.dedicated_input) {
      inputs.push_back("load_" + rn);
    }
    if (inputs.empty()) inputs.push_back(rn + "_q");
    // In test mode an SA register compacts the module the current
    // sub-session assigns to it.
    std::ostringstream test_d;
    bool has_test_source = false;
    for (std::size_t si = 0; si < subs.size() && !has_test_source; ++si) {
      for (const auto& am : subs[si].active) {
        const auto& e = *solution.embeddings[am.module];
        if (e.sa.has_value() && *e.sa == r) has_test_source = true;
      }
    }
    if (has_test_source) {
      os << "  reg [" << width - 1 << ":0] " << rn << "_test_d;\n";
      os << "  always @(*) begin\n    " << rn << "_test_d = {" << width
         << "{1'b0}};\n    case (sub)\n";
      for (std::size_t si = 0; si < subs.size(); ++si) {
        for (const auto& am : subs[si].active) {
          const auto& e = *solution.embeddings[am.module];
          if (e.sa.has_value() && *e.sa == r) {
            os << "      8'd" << si << ": " << rn << "_test_d = "
               << verilog_ident(dp.modules[am.module].name) << "_y;\n";
          }
        }
      }
      os << "      default: ;\n    endcase\n  end\n";
    }
    os << "  assign " << rn << "_d = ";
    if (has_test_source) os << "bist_run ? " << rn << "_test_d : ";
    os << "(";
    for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
      os << "(sel_" << rn << " == " << i << ") ? " << inputs[i] << " : ";
    }
    os << inputs.back() << ");\n";
  }
  os << "\n";

  // Controller FSM with golden-signature comparison.
  os << "  // ---- sequencing and signature check ----------------------\n";
  os << "  always @(posedge clk) begin\n";
  os << "    if (rst || !bist_run) begin\n";
  os << "      cycle <= 16'd0; sub <= 8'd0; running <= bist_run;\n";
  os << "      bist_done <= 1'b0; bist_pass <= 1'b1;\n";
  os << "    end else if (running) begin\n";
  os << "      if (check_cycle) begin\n";
  os << "        case (sub)\n";
  for (std::size_t si = 0; si < subs.size(); ++si) {
    os << "          8'd" << si << ": begin\n";
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
  os << "        cycle <= 16'd0;\n";
  os << "        if (sub + 8'd1 == N_SUBS) begin\n";
  os << "          running <= 1'b0; bist_done <= 1'b1;\n";
  os << "        end else begin\n";
  os << "          sub <= sub + 8'd1;\n";
  os << "        end\n";
  os << "      end else begin\n";
  os << "        cycle <= cycle + 16'd1;\n";
  os << "      end\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
