// Integration tests: the full pipeline on every paper benchmark, asserting
// the *shape* of the paper's Tables I and II (same minimum register counts
// in both arms, lower BIST overhead and no more CBILBOs for the testable
// arm).

#include <gtest/gtest.h>

#include "binding/cbilbo_check.hpp"
#include "core/compare.hpp"
#include "core/report.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/conflict.hpp"
#include "passes/pipeline.hpp"

namespace lbist {
namespace {

class PaperBenchmarks : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<ComparisonRow>& rows() {
    static std::vector<ComparisonRow> r = compare_paper_benchmarks();
    return r;
  }
  const ComparisonRow& row() const {
    return rows()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(PaperBenchmarks, RegisterCountsAreEqualAndMinimum) {
  const auto& r = row();
  EXPECT_EQ(r.traditional.num_registers(), r.testable.num_registers())
      << r.name;
  const std::vector<std::pair<std::string, int>> expected = {
      {"ex1", 3}, {"ex2", 5}, {"Tseng1", 5}, {"Tseng2", 5}, {"Paulin", 4}};
  for (const auto& [name, regs] : expected) {
    if (name == r.name) {
      EXPECT_EQ(r.testable.num_registers(), regs);
    }
  }
}

TEST_P(PaperBenchmarks, TestableArmNeverWorse) {
  const auto& r = row();
  EXPECT_LE(r.testable.overhead_percent,
            r.traditional.overhead_percent + 1e-9)
      << r.name;
}

TEST_P(PaperBenchmarks, TestableArmHasNoMoreCbilbos) {
  const auto& r = row();
  EXPECT_LE(r.testable.bist.counts().cbilbo,
            r.traditional.bist.counts().cbilbo)
      << r.name;
}

TEST_P(PaperBenchmarks, AllModulesTestable) {
  const auto& r = row();
  EXPECT_TRUE(r.testable.bist.untestable_modules.empty()) << r.name;
  EXPECT_TRUE(r.traditional.bist.untestable_modules.empty()) << r.name;
}

TEST_P(PaperBenchmarks, MuxCountsComparable) {
  // The paper's mux counts move by at most a few in either direction
  // (Table I: -2 to +3).
  const auto& r = row();
  EXPECT_LE(std::abs(r.testable.num_mux() - r.traditional.num_mux()), 4)
      << r.name;
}

TEST_P(PaperBenchmarks, OverheadIsPlausiblePercentage) {
  const auto& r = row();
  for (const auto* arm : {&r.traditional, &r.testable}) {
    EXPECT_GT(arm->overhead_percent, 0.0) << r.name;
    EXPECT_LT(arm->overhead_percent, 60.0) << r.name;
  }
}

std::string bench_param_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"ex1", "ex2", "Tseng1", "Tseng2",
                                      "Paulin"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFive, PaperBenchmarks, ::testing::Range(0, 5),
                         bench_param_name);

TEST(TableOneShape, AggregateReductionSignificant) {
  auto rows = compare_paper_benchmarks();
  double total_trad = 0.0, total_test = 0.0;
  int strictly_better = 0;
  for (const auto& r : rows) {
    total_trad += r.traditional.overhead_percent;
    total_test += r.testable.overhead_percent;
    if (r.reduction_percent() > 1.0) ++strictly_better;
  }
  // Paper: 30-46% reduction on every row.  Require a clear aggregate win
  // and strict wins on most rows.
  EXPECT_LT(total_test, 0.85 * total_trad);
  EXPECT_GE(strictly_better, 3);
}

TEST(TableTwoShape, TestableUsesFewerBistRegisters) {
  auto rows = compare_paper_benchmarks();
  int trad_cbilbos = 0, test_cbilbos = 0;
  for (const auto& r : rows) {
    trad_cbilbos += r.traditional.bist.counts().cbilbo;
    test_cbilbos += r.testable.bist.counts().cbilbo;
  }
  EXPECT_LT(test_cbilbos, trad_cbilbos);
}

TEST(Lemma2Integration, TestableBindingAvoidsForcedCbilbos) {
  // On every paper benchmark the BIST-aware binding should have no more
  // Lemma-2 forced CBILBOs than the traditional binding.
  for (const auto& bench : paper_benchmarks()) {
    auto row = compare_benchmark(bench);
    auto f_trad = forced_cbilbos(row.traditional.modules,
                                 row.traditional.registers.reg_of);
    auto f_test =
        forced_cbilbos(row.testable.modules, row.testable.registers.reg_of);
    EXPECT_LE(f_test.size(), f_trad.size()) << bench.name;
  }
}

TEST(DescribeOutput, ContainsEverySection) {
  auto bench = make_ex1();
  auto row = compare_benchmark(bench);
  const std::string s = row.testable.describe(bench.design.dfg);
  EXPECT_NE(s.find("register binding:"), std::string::npos);
  EXPECT_NE(s.find("datapath"), std::string::npos);
  EXPECT_NE(s.find("BIST solution:"), std::string::npos);
}

TEST(SynthesizerOptions, AblationArmsRunEndToEnd) {
  auto bench = make_tseng1();
  const auto protos = parse_module_spec(bench.module_spec);
  for (bool pves : {false, true}) {
    for (bool cbilbo : {false, true}) {
      SynthesisOptions opts;
      opts.binder = BinderKind::BistAware;
      opts.bist_binder.sd_ordered_pves = pves;
      opts.bist_binder.avoid_cbilbo = cbilbo;
      auto result = Synthesizer(opts).run(bench.design.dfg,
                                          *bench.design.schedule, protos);
      EXPECT_EQ(result.num_registers(), 5);
      EXPECT_GT(result.overhead_percent, 0.0);
    }
  }
}

// Checkpoint/resume property over the whole paper suite: for both arms of
// every Table I row, interrupting synthesis at any stage boundary, dumping
// the IR snapshot and resuming from the re-parsed dump must reproduce the
// uninterrupted run byte for byte (text report and JSON report alike).
TEST(PassSnapshots, EveryPaperBenchmarkResumesFromEveryStage) {
  const PassPipeline& pipeline = PassPipeline::standard();
  for (const auto& bench : paper_benchmarks()) {
    const auto protos = parse_module_spec(bench.module_spec);
    for (BinderKind kind : {BinderKind::Traditional, BinderKind::BistAware}) {
      SynthesisOptions opts;
      opts.binder = kind;
      const SynthesisResult full = Synthesizer(opts).run(
          bench.design.dfg, *bench.design.schedule, protos);
      const std::string want_text = full.describe(bench.design.dfg);
      const std::string want_json = report_json(bench.design.dfg, full).dump();
      for (std::size_t stage = 0; stage <= pipeline.num_passes(); ++stage) {
        SynthState state(bench.design.dfg, *bench.design.schedule, protos,
                         opts);
        pipeline.run(state, stage);
        SynthState resumed =
            pipeline.restore(Json::parse(pipeline.snapshot(state).dump()));
        pipeline.run(resumed);
        EXPECT_EQ(resumed.result.describe(resumed.dfg()), want_text)
            << bench.name << " stage " << stage;
        EXPECT_EQ(report_json(resumed.dfg(), resumed.result).dump(), want_json)
            << bench.name << " stage " << stage;
      }
    }
  }
}

}  // namespace
}  // namespace lbist
