// Unit tests for the support library: strong ids, dynamic bitsets, the
// table formatter, the DOT writer and the JSON emitter/parser.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/dot.hpp"
#include "support/json.hpp"
#include "support/dyn_bitset.hpp"
#include "support/ids.hpp"
#include "support/table.hpp"

namespace lbist {
namespace {

TEST(Ids, DefaultIsInvalid) {
  VarId v;
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v, VarId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  VarId v{7};
  EXPECT_TRUE(v.valid());
  EXPECT_EQ(v.value(), 7);
  EXPECT_EQ(v.index(), 7u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(VarId{1}, VarId{2});
  EXPECT_EQ(VarId{3}, VarId{3});
  EXPECT_NE(VarId{3}, VarId{4});
}

TEST(Ids, DistinctTagTypesAreDistinctTypes) {
  static_assert(!std::is_same_v<VarId, OpId>);
  static_assert(!std::is_same_v<RegId, ModuleId>);
}

TEST(Ids, HashWorksInUnorderedContainers) {
  std::hash<VarId> h;
  EXPECT_EQ(h(VarId{5}), h(VarId{5}));
}

TEST(IdMap, BasicAccess) {
  IdMap<VarId, int> map(3, 42);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map[VarId{0}], 42);
  map[VarId{2}] = 7;
  EXPECT_EQ(map[VarId{2}], 7);
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(LBIST_CHECK(false, "boom"), Error);
  EXPECT_NO_THROW(LBIST_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    LBIST_CHECK(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
  }
}

TEST(DynBitset, SetResetTest) {
  DynBitset b(100);
  EXPECT_FALSE(b.test(63));
  b.set(63);
  b.set(64);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynBitset, OrAndAssign) {
  DynBitset a(10), b(10);
  a.set(1);
  b.set(2);
  a |= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  DynBitset c(10);
  c.set(2);
  a &= c;
  EXPECT_FALSE(a.test(1));
  EXPECT_TRUE(a.test(2));
}

TEST(DynBitset, Members) {
  DynBitset a(80);
  a.set(0);
  a.set(79);
  auto m = a.members();
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], 0u);
  EXPECT_EQ(m[1], 79u);
}

TEST(DynBitset, AnyAndEquality) {
  DynBitset a(10), b(10);
  EXPECT_FALSE(a.any());
  a.set(4);
  EXPECT_TRUE(a.any());
  EXPECT_FALSE(a == b);
  b.set(4);
  EXPECT_TRUE(a == b);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, TitleIsPrinted) {
  TextTable t({"a"});
  t.set_title("TABLE I");
  EXPECT_EQ(t.str().rfind("TABLE I\n", 0), 0u);
}

TEST(FmtDouble, Precision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 1), "2.0");
}

TEST(DotWriter, DirectedEdges) {
  DotWriter d("g", true);
  d.add_node("a", {"shape=box"});
  d.add_edge("a", "b");
  const std::string s = d.str();
  EXPECT_NE(s.find("digraph g {"), std::string::npos);
  EXPECT_NE(s.find("\"a\" -> \"b\";"), std::string::npos);
  EXPECT_NE(s.find("[shape=box]"), std::string::npos);
}

TEST(DotWriter, UndirectedEdges) {
  DotWriter d("g", false);
  d.add_edge("a", "b", {"label=\"x\""});
  const std::string s = d.str();
  EXPECT_NE(s.find("graph g {"), std::string::npos);
  EXPECT_NE(s.find("\"a\" -- \"b\""), std::string::npos);
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  const Json arr = Json::parse("[1, 2, [3]]");
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(2).at(0).as_int(), 3);
  const Json obj = Json::parse("{\"a\": 1, \"b\": {\"c\": [true]}}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("z"));
  EXPECT_TRUE(obj.at("b").at("c").at(0).as_bool());
  EXPECT_EQ(obj.keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse("\"a\\n\\t\\\\\\\"b\\u0041\"").as_string(),
            "a\n\t\\\"bA");
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)Json::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2, column 8"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("[1, 2"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Json::parse("12 34"), Error);  // trailing content
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
}

TEST(JsonParse, RejectsPathologicalNestingWithPositionedError) {
  // 256 levels parse; 257 must be rejected (the parser is recursive
  // descent, and request lines arrive from untrusted sockets).
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(256)));
  try {
    (void)Json::parse(nested(257));
    FAIL() << "expected depth error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than 256"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 1, column 257"), std::string::npos) << what;
  }
  // Objects count toward the same budget, and a deep bomb must not crash.
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "{\"a\":[";
  EXPECT_THROW(Json::parse(bomb), Error);
}

TEST(JsonParse, TypeMismatchesThrow) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW((void)j.as_string(), Error);
  EXPECT_THROW((void)j.at("a").as_bool(), Error);
  EXPECT_THROW((void)j.at("nope"), Error);
  EXPECT_THROW((void)j.at(std::size_t{0}), Error);
  EXPECT_THROW((void)Json::parse("1.5").as_int(), Error);
}

TEST(JsonDump, IntegersHaveNoTrailingPointZero) {
  EXPECT_EQ(Json::number(3.0).dump(), "3");
  EXPECT_EQ(Json::number(-17).dump(), "-17");
  EXPECT_EQ(Json::number(0.0).dump(), "0");
}

TEST(JsonDump, RoundTripsAreStable) {
  const char* docs[] = {
      "{\"a\":1,\"b\":[1.5,true,null,\"x\"],\"c\":{\"d\":0.1}}",
      "[0.30000000000000004,1e-30,123456789.123456789]",
  };
  for (const char* doc : docs) {
    const Json once = Json::parse(doc);
    const std::string dumped = once.dump();
    const Json twice = Json::parse(dumped);
    EXPECT_EQ(dumped, twice.dump()) << doc;
    EXPECT_EQ(once.dump_compact(), twice.dump_compact()) << doc;
  }
  // Numbers survive exactly: parse(dump(x)) == x bit-for-bit.
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(0.1).dump()).as_number(), 0.1);
  EXPECT_DOUBLE_EQ(
      Json::parse(Json::number(0.30000000000000004).dump()).as_number(),
      0.30000000000000004);
}

TEST(JsonDump, CompactIsOneLine) {
  const Json j = Json::parse("{\"a\": [1, 2], \"b\": {\"c\": true}}");
  EXPECT_EQ(j.dump_compact(), "{\"a\":[1,2],\"b\":{\"c\":true}}");
}

}  // namespace
}  // namespace lbist
