// JSON emitter and report serialization tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/report.hpp"
#include "dfg/benchmarks.hpp"
#include "passes/synth_state.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace lbist {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::number(42).dump(), "42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndOverwrite) {
  Json o = Json::object();
  o.set("b", Json::number(1)).set("a", Json::number(2));
  o.set("b", Json::number(3));  // overwrite, keeps position
  const std::string s = o.dump();
  EXPECT_LT(s.find("\"b\": 3"), s.find("\"a\": 2"));
}

TEST(Json, NestedStructuresIndent) {
  Json arr = Json::array();
  arr.push_back(Json::object().set("x", Json::number(1)));
  const std::string s = arr.dump();
  EXPECT_NE(s.find("[\n"), std::string::npos);
  EXPECT_NE(s.find("  {"), std::string::npos);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, TypeErrorsThrow) {
  Json num = Json::number(1);
  EXPECT_THROW(num.push_back(Json::null()), Error);
  EXPECT_THROW(num.set("k", Json::null()), Error);
}

TEST(Report, SynthesisReportHasAllSections) {
  auto bench = make_ex1();
  auto row = compare_benchmark(bench);
  const std::string s =
      report_json(bench.design.dfg, row.testable).dump();
  for (const char* key :
       {"\"design\"", "\"metrics\"", "\"registers\"", "\"modules\"",
        "\"bist_overhead_percent\"", "\"embedding\"", "\"tpg_left\"",
        "\"bist_role\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
  EXPECT_NE(s.find("\"design\": \"ex1\""), std::string::npos);
}

TEST(Report, ComparisonCarriesBothArms) {
  auto row = compare_benchmark(make_ex2());
  const std::string s = comparison_json(row).dump();
  EXPECT_NE(s.find("\"traditional\""), std::string::npos);
  EXPECT_NE(s.find("\"testable\""), std::string::npos);
  EXPECT_NE(s.find("\"reduction_percent\""), std::string::npos);
}

TEST(Report, SweepMarksParetoMembers) {
  Dfg fir = make_fir(8);
  auto points = explore_resource_budgets(
      fir, {{{OpKind::Mul, 1}, {OpKind::Add, 1}},
            {{OpKind::Mul, 4}, {OpKind::Add, 2}}});
  const Json sweep = sweep_json(points);
  const std::string s = sweep.dump();
  EXPECT_NE(s.find("\"pareto\": true"), std::string::npos);
  // The fields and their order are those of `lowbist explore --json`.
  const std::vector<std::string> fields = {
      "label",      "binder",          "latency",    "registers",
      "mux",        "functional_area", "bist_extra", "overhead_percent",
      "total_area", "pareto"};
  ASSERT_EQ(sweep.size(), points.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep.at(i).keys(), fields) << i;
    EXPECT_EQ(sweep.at(i).at("binder").as_string(),
              binder_short_name(points[i].binder));
    EXPECT_EQ(sweep.at(i).at("total_area").as_number(),
              points[i].total_area());
  }
}

}  // namespace
}  // namespace lbist
