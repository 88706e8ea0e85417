// Tests for the self-testing RTL emitter (BILBO registers + BIST
// controller + golden-signature ROM).

#include <gtest/gtest.h>

#include "bist/selftest.hpp"
#include "bist/verilog_bist.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

struct Emitted {
  ComparisonRow row;
  SelfTestResult st;
  std::string verilog;

  explicit Emitted(const Benchmark& bench)
      : row(compare_benchmark(bench)),
        st(run_self_test(row.testable.datapath, row.testable.bist, 250, 8)),
        verilog(emit_bist_verilog(row.testable.datapath, row.testable.bist,
                                  st, 250, 8)) {}
};

TEST(BistVerilog, EmitsPrimitivesAndTop) {
  Emitted e(make_ex1());
  EXPECT_NE(e.verilog.find("module lowbist_bilbo"), std::string::npos);
  EXPECT_NE(e.verilog.find("module lowbist_cbilbo"), std::string::npos);
  EXPECT_NE(e.verilog.find("module ex1_bist ("), std::string::npos);
  EXPECT_NE(e.verilog.find("bist_done"), std::string::npos);
  EXPECT_NE(e.verilog.find("bist_pass"), std::string::npos);
}

TEST(BistVerilog, InstantiatesOneTestRegisterPerDatapathRegister) {
  Emitted e(make_ex1());
  for (const auto& reg : e.row.testable.datapath.registers) {
    EXPECT_NE(e.verilog.find(" u_" + reg.name + " "), std::string::npos)
        << reg.name;
  }
}

class AllBenchGolden : public ::testing::TestWithParam<int> {};

TEST_P(AllBenchGolden, EmittedConstantsMatchEngineSignatures) {
  auto benches = paper_benchmarks();
  Emitted e(benches[static_cast<std::size_t>(GetParam())]);
  for (const auto& sigs : e.st.golden_signatures) {
    for (std::uint32_t sig : sigs) {
      std::ostringstream hex;
      hex << std::hex << sig;
      EXPECT_NE(e.verilog.find("8'h" + hex.str()), std::string::npos);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, AllBenchGolden, ::testing::Range(0, 5));

TEST(BistVerilog, GoldenSignaturesAppearAsConstants) {
  Emitted e(make_ex1());
  // Every golden signature of a register-observed module shows up in a
  // comparison.  (Hex, so render the expected literal.)
  for (std::size_t m = 0; m < e.st.golden_signatures.size(); ++m) {
    for (std::uint32_t sig : e.st.golden_signatures[m]) {
      std::ostringstream hex;
      hex << std::hex << sig;
      EXPECT_NE(e.verilog.find("8'h" + hex.str()), std::string::npos)
          << "module " << m << " signature " << hex.str();
    }
  }
}

TEST(BistVerilog, CbilboUsedExactlyWhenSolutionSaysSo) {
  for (const auto& bench : paper_benchmarks()) {
    Emitted e(bench);
    int cbilbo_instances = 0;
    std::size_t pos = 0;
    while ((pos = e.verilog.find("lowbist_cbilbo #(.WIDTH", pos)) !=
           std::string::npos) {
      ++cbilbo_instances;
      pos += 1;
    }
    EXPECT_EQ(cbilbo_instances,
              e.row.testable.bist.counts().cbilbo)
        << bench.name;
  }
}

TEST(BistVerilog, SubSessionCountMatchesPlan) {
  Emitted e(make_ex2());
  // N_SUBS localparam equals the sum over sessions of the widest function
  // set; at minimum the number of sessions.
  const auto pos = e.verilog.find("localparam N_SUBS = ");
  ASSERT_NE(pos, std::string::npos);
  const int n_subs = std::stoi(e.verilog.substr(pos + 20));
  int total_golden = 0;
  for (const auto& sigs : e.st.golden_signatures) {
    total_golden += static_cast<int>(sigs.size());
  }
  EXPECT_GE(n_subs, 1);
  EXPECT_LE(n_subs, total_golden);
}

TEST(BistVerilog, RejectsTransparentPlans) {
  auto row = compare_benchmark(make_tseng1());
  BistAllocator alloc{AreaModel{}};
  alloc.use_transparent_paths = true;
  auto sol = alloc.solve(row.testable.datapath);
  bool any_transparent = false;
  for (const auto& emb : sol.embeddings) {
    any_transparent =
        any_transparent || (emb.has_value() && emb->uses_transparency());
  }
  if (!any_transparent) GTEST_SKIP() << "solver found no transparent win";
  auto st = run_self_test(row.testable.datapath, sol, 100, 8);
  EXPECT_THROW(
      emit_bist_verilog(row.testable.datapath, sol, st, 100, 8), Error);
}

TEST(BistVerilog, PatternBudgetIsPeriodCapped) {
  Emitted e(make_ex1());
  EXPECT_NE(e.verilog.find("localparam PATTERNS = 250;"),
            std::string::npos);
  auto st4 = run_self_test(e.row.testable.datapath, e.row.testable.bist,
                           250, 4);
  const std::string v4 = emit_bist_verilog(e.row.testable.datapath,
                                           e.row.testable.bist, st4, 250, 4);
  EXPECT_NE(v4.find("localparam PATTERNS = 15;"), std::string::npos);
}

// The sub-session clock counts 0..PATTERNS + 1.  At width 16 a 70,000
// pattern budget caps at 65,535, so the counter needs 17 bits: at 16 it
// would wrap to 0 before the signature check and re-seed the TPGs.
TEST(BistVerilog, CountersHoldTheirLargestValue) {
  Emitted e(make_ex1());
  EXPECT_NE(e.verilog.find("  reg [15:0] cycle;"), std::string::npos);
  EXPECT_NE(e.verilog.find("  reg [7:0]  sub;"), std::string::npos);
  const Datapath& dp = e.row.testable.datapath;
  const auto st = run_self_test(dp, e.row.testable.bist, 70000, 16);
  const std::string v =
      emit_bist_verilog(dp, e.row.testable.bist, st, 70000, 16);
  EXPECT_NE(v.find("localparam PATTERNS = 65535;"), std::string::npos);
  EXPECT_NE(v.find("  reg [16:0] cycle;"), std::string::npos);
  EXPECT_NE(v.find("(cycle == PATTERNS + 17'd1)"), std::string::npos);
}

}  // namespace
}  // namespace lbist
