// Hybrid-BIST subsystem tests (ISSUE 7 tentpole): the three-phase test
// session, the reseed seed search, the evolved baseline, the Pareto sweep
// engine, and its determinism across thread counts.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "binding/module_spec.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "gates/gate_fault_sim.hpp"
#include "gates/gate_selftest.hpp"
#include "hybrid/eval.hpp"
#include "hybrid/pareto.hpp"
#include "hybrid/reseed.hpp"
#include "hybrid/session.hpp"
#include "passes/pipeline.hpp"
#include "service/metrics.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

constexpr int kWidth = 8;

std::vector<Benchmark> paper_benchmarks() {
  std::vector<Benchmark> out;
  out.push_back(make_ex1());
  out.push_back(make_ex2());
  out.push_back(make_tseng1());
  out.push_back(make_tseng2());
  out.push_back(make_paulin());
  return out;
}

// ---- Reseed seed search --------------------------------------------------

TEST(HybridReseed, FindsPatternsForHardAdderFaults) {
  const ModuleNetlist module = build_module(OpKind::Add, kWidth);
  // Short PR phase -> plenty of hard faults to chase.
  const GateBistDetail detail = simulate_gate_bist_seeded(
      module, chip_seed(0, kWidth), chip_seed(1, kWidth), 8);
  ASSERT_FALSE(detail.undetected.empty());
  int found = 0;
  for (const GateFault& fault : detail.undetected) {
    const auto seed = find_detecting_pattern(module, fault);
    if (seed.has_value()) {
      ++found;
      EXPECT_TRUE(pattern_detects_fault(module, seed->a, seed->b, fault));
      continue;
    }
    // A miss must mean the fault is genuinely redundant: exhaustively no
    // (a, b) pattern distinguishes it (the adder's constant-0 tie cell
    // and its shadow are the only such faults).
    bool any = false;
    for (std::uint32_t a = 0; a < 256 && !any; ++a) {
      for (std::uint32_t b = 0; b < 256 && !any; ++b) {
        any = pattern_detects_fault(module, a, b, fault);
      }
    }
    EXPECT_FALSE(any) << "missed a detectable fault at node " << fault.node;
  }
  EXPECT_GT(found, 0);
}

TEST(HybridReseed, SearchIsDeterministic) {
  const ModuleNetlist module = build_module(OpKind::Mul, kWidth);
  const GateBistDetail detail = simulate_gate_bist_seeded(
      module, chip_seed(0, kWidth), chip_seed(1, kWidth), 62);
  ASSERT_FALSE(detail.undetected.empty());
  const GateFault fault = detail.undetected.front();
  const auto first = find_detecting_pattern(module, fault);
  const auto second = find_detecting_pattern(module, fault);
  ASSERT_EQ(first.has_value(), second.has_value());
  if (first.has_value()) {
    EXPECT_EQ(first->a, second->a);
    EXPECT_EQ(first->b, second->b);
  }
}

// ---- Session model -------------------------------------------------------

TEST(HybridSession, PseudoRandomModeReproducesGateSelfTest) {
  HybridConfig pr;
  pr.mode = HybridMode::PseudoRandom;
  pr.pr_patterns = 250;
  for (const auto& row : compare_paper_benchmarks()) {
    for (const SynthesisResult* arm : {&row.testable, &row.traditional}) {
      const std::string label =
          row.name + (arm == &row.testable ? " bist" : " trad");
      const GateSelfTestResult gate =
          run_gate_self_test(arm->datapath, arm->bist, 250, kWidth);
      const HybridSessionResult hybrid =
          run_hybrid_session(arm->datapath, arm->bist, pr, kWidth);
      EXPECT_EQ(hybrid.faults_total, gate.faults_injected) << label;
      EXPECT_EQ(hybrid.faults_detected, gate.faults_detected) << label;
      EXPECT_EQ(hybrid.reseeds_used, 0) << label;
      EXPECT_EQ(hybrid.topups_used, 0) << label;
      ASSERT_EQ(hybrid.modules.size(), gate.modules.size()) << label;
      for (std::size_t i = 0; i < gate.modules.size(); ++i) {
        EXPECT_EQ(hybrid.modules[i].module, gate.modules[i].module) << label;
        EXPECT_EQ(hybrid.modules[i].gate_level, gate.modules[i].gate_level)
            << label;
        EXPECT_EQ(hybrid.modules[i].detected(),
                  gate.modules[i].coverage.detected)
            << label;
      }
    }
  }
}

// The headline property: on every paper benchmark, reseed+topup at a
// quarter of the pseudo-random budget reaches at least the same coverage
// in strictly fewer clocks — i.e. it strictly dominates the pure
// pseudo-random session the paper's plan implies.
TEST(HybridSession, ReseedTopupDominatesPurePseudoRandom) {
  HybridConfig pr;
  pr.pr_patterns = 250;
  HybridConfig topup;
  topup.name = "hybrid+topup";
  topup.mode = HybridMode::ReseedTopup;
  topup.pr_patterns = 62;
  topup.max_reseeds = 16;
  for (const auto& row : compare_paper_benchmarks()) {
    const HybridSessionResult full = run_hybrid_session(
        row.testable.datapath, row.testable.bist, pr, kWidth);
    const HybridSessionResult hybrid = run_hybrid_session(
        row.testable.datapath, row.testable.bist, topup, kWidth);
    EXPECT_GE(hybrid.coverage(), full.coverage()) << row.name;
    EXPECT_LT(hybrid.test_clocks, full.test_clocks) << row.name;
  }
}

TEST(HybridSession, EvolvedSeedsNeverLoseToChipSeeds) {
  const auto row = compare_benchmark(make_paulin());
  HybridConfig pr;
  pr.pr_patterns = 62;
  HybridConfig evolved = pr;
  evolved.name = "evolve";
  evolved.mode = HybridMode::Evolved;
  const HybridSessionResult base = run_hybrid_session(
      row.testable.datapath, row.testable.bist, pr, kWidth);
  const HybridSessionResult ga = run_hybrid_session(
      row.testable.datapath, row.testable.bist, evolved, kWidth);
  EXPECT_GE(ga.faults_detected, base.faults_detected);
  EXPECT_EQ(ga.test_clocks, base.test_clocks);  // same clock budget
}

// ---- Pareto sweep --------------------------------------------------------

TEST(HybridPareto, FrontIsNonEmptyOnEveryPaperBenchmark) {
  for (const Benchmark& bench : paper_benchmarks()) {
    HybridSweepOptions opts;
    opts.area.bit_width = kWidth;
    opts.patterns = 250;
    const auto points =
        explore_hybrid(bench.design.dfg, *bench.design.schedule,
                       {bench.module_spec}, opts);
    ASSERT_FALSE(points.empty()) << bench.name;
    const auto front = hybrid_pareto_front(points);
    EXPECT_FALSE(front.empty()) << bench.name;
    for (const HybridPoint& p : points) {
      EXPECT_GT(p.faults_total, 0) << bench.name;
      EXPECT_GT(p.test_length, 0) << bench.name;
      EXPECT_GT(p.fault_coverage, 0.5) << bench.name;
    }
  }
}

TEST(HybridPareto, SweepIsBitIdenticalAcrossThreadCounts) {
  const Benchmark bench = make_ex2();
  HybridSweepOptions serial;
  serial.area.bit_width = kWidth;
  serial.patterns = 250;
  serial.jobs = 1;
  HybridSweepOptions threaded = serial;
  threaded.jobs = 4;
  const Json a = hybrid_points_json(explore_hybrid(
      bench.design.dfg, *bench.design.schedule, {bench.module_spec},
      serial));
  const Json b = hybrid_points_json(explore_hybrid(
      bench.design.dfg, *bench.design.schedule, {bench.module_spec},
      threaded));
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(HybridPareto, ReseedingConfigDominatesPureProOnSomeBenchmark) {
  // The acceptance property at sweep level: a reseeding configuration
  // strictly dominates the full-budget pseudo-random arm of the same
  // binder on at least one benchmark.
  bool dominated = false;
  for (const Benchmark& bench : paper_benchmarks()) {
    HybridSweepOptions opts;
    opts.area.bit_width = kWidth;
    opts.patterns = 250;
    opts.binders = {BinderKind::BistAware};
    const auto points =
        explore_hybrid(bench.design.dfg, *bench.design.schedule,
                       {bench.module_spec}, opts);
    const HybridPoint* pr = nullptr;
    for (const HybridPoint& p : points) {
      if (p.config == "pr") pr = &p;
    }
    ASSERT_NE(pr, nullptr) << bench.name;
    for (const HybridPoint& p : points) {
      if ((p.config == "hybrid" || p.config == "hybrid+topup") &&
          hybrid_dominates(p, *pr)) {
        dominated = true;
      }
    }
    if (dominated) break;
  }
  EXPECT_TRUE(dominated);
}

TEST(HybridPareto, JsonReportHasTheContractShape) {
  const Benchmark bench = make_ex1();
  HybridSweepOptions opts;
  opts.area.bit_width = kWidth;
  const auto points = explore_hybrid(
      bench.design.dfg, *bench.design.schedule, {bench.module_spec}, opts);
  const Json j = hybrid_points_json(points);
  ASSERT_TRUE(j.contains("objectives"));
  EXPECT_EQ(j.at("objectives").size(), 3u);
  ASSERT_TRUE(j.contains("points"));
  ASSERT_GT(j.at("points").size(), 0u);
  bool any_front = false;
  for (std::size_t i = 0; i < j.at("points").size(); ++i) {
    const Json& p = j.at("points").at(i);
    for (const char* key : {"label", "binder", "config", "bist_area",
                            "fault_coverage", "test_length", "pareto"}) {
      EXPECT_TRUE(p.contains(key)) << key;
    }
    any_front = any_front || p.at("pareto").as_bool();
  }
  EXPECT_TRUE(any_front);
}

TEST(HybridPareto, MetricsAreRecorded) {
  const Benchmark bench = make_ex1();
  MetricsRegistry metrics;
  HybridSweepOptions opts;
  opts.area.bit_width = kWidth;
  opts.metrics = &metrics;
  const auto points = explore_hybrid(
      bench.design.dfg, *bench.design.schedule, {bench.module_spec}, opts);
  const Json dump = metrics.to_json();
  EXPECT_EQ(dump.at("counters").at("hybrid_points").as_int(),
            static_cast<int>(points.size()));
  EXPECT_TRUE(dump.at("histograms").contains("hybrid_coverage_percent"));
  EXPECT_TRUE(dump.at("histograms").contains("hybrid_test_length_clocks"));
}

// ---- Config serialization and pipeline evaluation ------------------------

TEST(HybridEval, ConfigRoundTripsThroughJson) {
  HybridConfig config;
  config.name = "custom";
  config.mode = HybridMode::ReseedTopup;
  config.pr_patterns = 99;
  config.max_reseeds = 7;
  config.reseed_burst = 5;
  config.evolve.population = 12;
  const Json j = hybrid_config_to_json(config);
  const HybridConfig back = hybrid_config_from_json(j);
  EXPECT_EQ(hybrid_config_to_json(back).dump(), j.dump());
  EXPECT_THROW(hybrid_config_from_json(
                   Json::object().set("mode", Json::string("psychic"))),
               Error);
  EXPECT_THROW(hybrid_config_from_json(
                   Json::object().set("pr_patterns", Json::number(0))),
               Error);
  // The GA's size is bounded so a posted config cannot ask the server for
  // billions of gate sessions; the error names the field.
  auto rejects = [](const char* field, double value) {
    try {
      (void)hybrid_config_from_json(
          Json::object().set(field, Json::number(value)));
    } catch (const Error& e) {
      return std::string(e.what()).find(field) != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejects("evolve_population", 2147483647));
  EXPECT_TRUE(rejects("evolve_population", 65));
  EXPECT_TRUE(rejects("evolve_population", 1));
  EXPECT_TRUE(rejects("evolve_generations", 65));
  EXPECT_TRUE(rejects("evolve_generations", -1));
  for (const auto& [population, generations] :
       {std::pair{64, 0}, std::pair{2, 64}}) {
    HybridConfig edge;
    edge.evolve.population = population;
    edge.evolve.generations = generations;
    const Json edge_json = hybrid_config_to_json(edge);
    EXPECT_EQ(
        hybrid_config_to_json(hybrid_config_from_json(edge_json)).dump(),
        edge_json.dump());
  }
}

TEST(HybridEval, EvaluateStoresReportInAuxAndSnapshotCarriesIt) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthesisOptions so;
  so.area.bit_width = kWidth;
  SynthState state(bench.design.dfg, *bench.design.schedule, protos, so);

  HybridConfig config;
  config.name = "hybrid+topup";
  config.mode = HybridMode::ReseedTopup;
  config.pr_patterns = 62;
  const Json report = evaluate_hybrid(state, config);
  EXPECT_GT(report.at("bist_area").as_number(), 0.0);
  EXPECT_GT(report.at("result").at("fault_coverage").as_number(), 0.9);
  ASSERT_TRUE(state.aux.count("hybrid"));

  // The aux slot rides through snapshot/restore byte-identically.
  const PassPipeline& pipeline = PassPipeline::standard();
  const Json snap = pipeline.snapshot(state);
  ASSERT_TRUE(snap.contains("aux"));
  SynthState restored = pipeline.restore(snap);
  ASSERT_TRUE(restored.aux.count("hybrid"));
  EXPECT_EQ(restored.aux.at("hybrid").dump(), report.dump());
}

TEST(HybridEval, SnapshotWithoutAuxStaysLean) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthState state(bench.design.dfg, *bench.design.schedule, protos,
                   SynthesisOptions{});
  const PassPipeline& pipeline = PassPipeline::standard();
  pipeline.run(state);
  EXPECT_FALSE(pipeline.snapshot(state).contains("aux"));
}

}  // namespace
}  // namespace lbist
