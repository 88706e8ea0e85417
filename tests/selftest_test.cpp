// Chip-level self-test engine tests.

#include <gtest/gtest.h>

#include <string>

#include "bist/fault_sim.hpp"
#include "bist/selftest.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "support/hash.hpp"

namespace lbist {
namespace {

constexpr int kWidth = 8;

class SelfTestBenchmarks : public ::testing::TestWithParam<int> {};

TEST_P(SelfTestBenchmarks, PlanDetectsNearlyAllFaultsThroughTheNetlist) {
  auto benches = paper_benchmarks();
  auto row = compare_benchmark(benches[static_cast<std::size_t>(GetParam())]);
  auto result =
      run_self_test(row.testable.datapath, row.testable.bist, 250, kWidth);
  EXPECT_EQ(result.faults_injected,
            static_cast<int>(row.testable.datapath.modules.size()) * 6 *
                kWidth);
  EXPECT_GT(result.coverage(), 0.95)
      << benches[static_cast<std::size_t>(GetParam())].name;
  // Golden signatures exist for every (module, function) pair.
  for (std::size_t m = 0; m < row.testable.datapath.modules.size(); ++m) {
    EXPECT_EQ(result.golden_signatures[m].size(),
              row.testable.datapath.modules[m].proto.supports.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, SelfTestBenchmarks,
                         ::testing::Range(0, 5));

TEST(SelfTest, TraditionalArmAlsoExecutes) {
  auto row = compare_benchmark(make_ex1());
  auto result = run_self_test(row.traditional.datapath,
                              row.traditional.bist, 250, kWidth);
  EXPECT_GT(result.coverage(), 0.9);
}

TEST(SelfTest, BogusEmbeddingRejected) {
  auto row = compare_benchmark(make_ex1());
  BistSolution broken = row.testable.bist;
  // Point a TPG at a register that does not feed the module's left port.
  for (auto& emb : broken.embeddings) {
    if (emb.has_value()) {
      const auto& mod = row.testable.datapath.modules[emb->module];
      for (std::size_t r = 0; r < row.testable.datapath.registers.size();
           ++r) {
        if (mod.left_sources.count(r) == 0) {
          emb->tpg_left = r;
          break;
        }
      }
      break;
    }
  }
  EXPECT_THROW(
      run_self_test(row.testable.datapath, broken, 50, kWidth), Error);
}

TEST(SelfTest, EscapesAreConsistentWithCounts) {
  auto row = compare_benchmark(make_ex2());
  auto result =
      run_self_test(row.testable.datapath, row.testable.bist, 250, kWidth);
  EXPECT_EQ(result.faults_injected - result.faults_detected,
            static_cast<int>(result.escapes.size()));
}

TEST(SelfTest, MatchesStandaloneFaultSimulatorPerModule) {
  // The standalone grader and the netlist-level engine implement the same
  // semantics; totals should be close (seeds differ, so allow slack).
  auto row = compare_benchmark(make_ex1());
  auto chip =
      run_self_test(row.testable.datapath, row.testable.bist, 250, kWidth);
  int standalone = 0;
  for (const auto& mod : row.testable.datapath.modules) {
    standalone +=
        simulate_module_bist(mod.proto, kWidth, 250).detected;
  }
  EXPECT_NEAR(chip.faults_detected, standalone, 4);
}

// ---- Exact pins ------------------------------------------------------------

/// FNV-1a of the golden signatures, module by module.
std::uint64_t golden_digest(const SelfTestResult& r) {
  std::string text;
  for (const auto& module : r.golden_signatures) {
    for (std::uint32_t s : module) text += std::to_string(s) + ",";
    text += ";";
  }
  return fnv1a64(text);
}

struct SelfTestPin {
  const char* plan;
  int injected;
  int detected;
  std::size_t escapes;
  std::uint64_t digest;
};

void expect_pin(const SelfTestResult& r, const SelfTestPin& pin) {
  EXPECT_EQ(r.faults_injected, pin.injected) << pin.plan;
  EXPECT_EQ(r.faults_detected, pin.detected) << pin.plan;
  EXPECT_EQ(r.escapes.size(), pin.escapes) << pin.plan;
  EXPECT_EQ(golden_digest(r), pin.digest) << pin.plan;
}

// run_self_test at width 8 with 250 patterns.  Exact: a change to the
// session model, the chip seeds or an allocated plan moves them.
constexpr SelfTestPin kPaperPins[] = {
    {"ex1 bist", 96, 96, 0, 0xee91c7c115b83a32ULL},
    {"ex1 trad", 96, 95, 1, 0x2e90c36a2fda7ab4ULL},
    {"ex2 bist", 288, 286, 2, 0x3d7c17568d948c31ULL},
    {"ex2 trad", 288, 287, 1, 0xcc4fba41b8414c85ULL},
    {"Tseng1 bist", 336, 333, 3, 0x67d0cd6e199b16dfULL},
    {"Tseng1 trad", 336, 334, 2, 0xfdd20f2e97734ff9ULL},
    {"Tseng2 bist", 192, 192, 0, 0xf90e8be18250c957ULL},
    {"Tseng2 trad", 192, 192, 0, 0x5e82fe1d427df646ULL},
    {"Paulin bist", 192, 192, 0, 0x5c32a50dec10b564ULL},
    {"Paulin trad", 192, 192, 0, 0xff753181a8fcb5a8ULL},
};

TEST(SelfTestPins, PaperPlansMatchPinnedCountsAndSignatures) {
  const auto rows = compare_paper_benchmarks();
  ASSERT_EQ(2 * rows.size(), std::size(kPaperPins));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    expect_pin(run_self_test(row.testable.datapath, row.testable.bist, 250,
                             kWidth),
               kPaperPins[2 * i]);
    expect_pin(run_self_test(row.traditional.datapath, row.traditional.bist,
                             250, kWidth),
               kPaperPins[2 * i + 1]);
  }
}

// Transparency-extended plans: ex1 as Transparency.SelfTestExecutes-
// TransparentPlans builds it (the extension picks no transparent path
// there), and Tseng1, whose plan routes five modules' TPGs through
// transparent modules and so exercises the one-clock delay.
TEST(SelfTestPins, TransparencyExtendedPlansMatchPins) {
  BistAllocator alloc{AreaModel{}};
  alloc.use_transparent_paths = true;
  const auto ex1 = compare_benchmark(make_ex1());
  expect_pin(run_self_test(ex1.testable.datapath,
                           alloc.solve(ex1.testable.datapath), 200, kWidth),
             {"ex1 transparent", 96, 95, 1, 0x0f85b078251a7e87ULL});
  const auto tseng1 = compare_benchmark(make_tseng1());
  const BistSolution sol = alloc.solve(tseng1.testable.datapath);
  int transparent = 0;
  for (const auto& e : sol.embeddings) {
    if (e.has_value() && e->uses_transparency()) ++transparent;
  }
  EXPECT_EQ(transparent, 5);
  expect_pin(run_self_test(tseng1.testable.datapath, sol, 250, kWidth),
             {"Tseng1 transparent", 336, 335, 1, 0x026c93c815154029ULL});
}

}  // namespace
}  // namespace lbist
