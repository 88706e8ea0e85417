// Tests for the pass manager (src/passes/): pipeline shape, stage-boundary
// snapshot/restore byte-identity, options serialization, module-binding
// restore, incremental re-synthesis reuse accounting, and the build-info /
// pass-cache-key plumbing the checkpoint features sit on.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "binding/module_binding.hpp"
#include "core/report.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/parse.hpp"
#include "passes/incremental.hpp"
#include "passes/pipeline.hpp"
#include "service/cache.hpp"
#include "support/check.hpp"
#include "support/version.hpp"

namespace lbist {
namespace {

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> names = {
      "sched", "conflict_graph", "binding", "interconnect", "bist"};
  return names;
}

TEST(Pipeline, StandardHasTheFivePaperPhasesInOrder) {
  const PassPipeline& p = PassPipeline::standard();
  ASSERT_EQ(p.num_passes(), pass_names().size());
  for (std::size_t i = 0; i < p.num_passes(); ++i) {
    EXPECT_EQ(p.passes()[i]->name(), pass_names()[i]);
    EXPECT_EQ(p.index_of(pass_names()[i]), i);
  }
  EXPECT_THROW((void)p.index_of("rtl"), Error);
}

TEST(Pipeline, FacadeMatchesDirectPipelineRun) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthesisOptions opts;
  const SynthesisResult via_facade =
      Synthesizer(opts).run(bench.design.dfg, *bench.design.schedule, protos);
  SynthState state(bench.design.dfg, *bench.design.schedule, protos, opts);
  PassPipeline::standard().run(state);
  EXPECT_EQ(state.completed, PassPipeline::standard().num_passes());
  EXPECT_EQ(state.result.describe(bench.design.dfg),
            via_facade.describe(bench.design.dfg));
}

TEST(Pipeline, BinderNamesRoundTrip) {
  for (BinderKind kind :
       {BinderKind::Traditional, BinderKind::BistAware, BinderKind::Ralloc,
        BinderKind::Syntest, BinderKind::CliquePartition,
        BinderKind::LoopAware}) {
    EXPECT_EQ(binder_kind_from_name(binder_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)binder_kind_from_name("left-edge"), Error);
}

/// Every stage boundary of every binder arm round-trips: snapshot at the
/// boundary, re-parse the dump, restore, finish — text report and JSON
/// report must equal the uninterrupted run byte for byte.
class SnapshotRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotRoundTrip, EveryStageResumesToIdenticalResults) {
  const BinderKind kind = static_cast<BinderKind>(GetParam());
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthesisOptions opts;
  opts.binder = kind;
  const PassPipeline& pipeline = PassPipeline::standard();

  const SynthesisResult full =
      Synthesizer(opts).run(bench.design.dfg, *bench.design.schedule, protos);
  const std::string want_text = full.describe(bench.design.dfg);
  const std::string want_json = report_json(bench.design.dfg, full).dump();

  for (std::size_t stage = 0; stage <= pipeline.num_passes(); ++stage) {
    SynthState state(bench.design.dfg, *bench.design.schedule, protos, opts);
    pipeline.run(state, stage);
    const Json snap = pipeline.snapshot(state);
    EXPECT_EQ(snap.at("format").as_string(), "lowbist-ir-v1");
    EXPECT_EQ(snap.at("stage").as_string(),
              stage == 0 ? "none" : pass_names()[stage - 1]);
    SynthState resumed = pipeline.restore(Json::parse(snap.dump()));
    EXPECT_EQ(resumed.completed, stage);
    pipeline.run(resumed);
    EXPECT_EQ(resumed.result.describe(resumed.dfg()), want_text)
        << "stage " << stage;
    EXPECT_EQ(report_json(resumed.dfg(), resumed.result).dump(), want_json)
        << "stage " << stage;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Binders, SnapshotRoundTrip,
    ::testing::Range(static_cast<int>(BinderKind::Traditional),
                     static_cast<int>(BinderKind::LoopAware) + 1));

TEST(Snapshot, NonDefaultOptionsSurviveTheRoundTrip) {
  SynthesisOptions opts;
  opts.binder = BinderKind::CliquePartition;
  opts.bist_binder.case_overrides = false;
  opts.bist_binder.avoid_cbilbo = false;
  opts.interconnect.weight_by_sd = !opts.interconnect.weight_by_sd;
  opts.lifetime.hold_outputs_to_end = !opts.lifetime.hold_outputs_to_end;
  opts.area.bit_width = 13;
  opts.area.mul_gates_per_bit2 = 3.25;
  const Json j = options_to_json(opts);
  const SynthesisOptions back = options_from_json(Json::parse(j.dump()));
  EXPECT_EQ(options_to_json(back).dump(), j.dump());
  EXPECT_EQ(back.binder, BinderKind::CliquePartition);
  EXPECT_EQ(back.area.bit_width, 13);
  EXPECT_EQ(back.area.mul_gates_per_bit2, 3.25);
  EXPECT_FALSE(back.bist_binder.case_overrides);
}

TEST(Snapshot, RestoreRejectsMalformedDocuments) {
  const PassPipeline& pipeline = PassPipeline::standard();
  EXPECT_THROW((void)pipeline.restore(Json::parse("{}")), Error);
  EXPECT_THROW(
      (void)pipeline.restore(Json::parse("{\"format\":\"lowbist-ir-v9\"}")),
      Error);

  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthState state(bench.design.dfg, *bench.design.schedule, protos, {});
  pipeline.run(state, pipeline.index_of("binding") + 1);
  const std::string good = pipeline.snapshot(state).dump();
  // Restoring the intact snapshot works; a truncated one must not.
  EXPECT_NO_THROW((void)pipeline.restore(Json::parse(good)));
  EXPECT_THROW((void)pipeline.restore(
                   Json::parse(good.substr(0, good.size() / 2) + "\"}")),
               Error);

  // Lifetimes the schedule does not produce (inverted, stretched to the
  // int range) are rejected at restore, naming the variable.
  SynthState at_sched(bench.design.dfg, *bench.design.schedule, protos, {});
  pipeline.run(at_sched, pipeline.index_of("sched") + 1);
  const std::string sched_snap = pipeline.snapshot(at_sched).dump_compact();
  const std::string first = "\"lifetimes\":[[0,1]";
  const std::size_t at = sched_snap.find(first);
  ASSERT_NE(at, std::string::npos);
  EXPECT_NO_THROW((void)pipeline.restore(Json::parse(sched_snap)));
  for (const char* bad : {"[5,2]", "[0,2000000000]", "[-2000000000,3]"}) {
    std::string doc = sched_snap;
    doc.replace(at, first.size(), std::string("\"lifetimes\":[") + bad);
    try {
      (void)pipeline.restore(Json::parse(doc));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("variable 'a'"), std::string::npos)
          << e.what();
    }
  }

  // Area options no synthesis writes (a width below 1, a non-finite or
  // negative coefficient) are rejected at restore, naming the field.
  for (const auto& [field, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"bit_width", "-7"},
           {"bit_width", "0"},
           {"tpg_extra_per_bit", "1e999"},
           {"cbilbo_extra_per_bit", "-1e999"},
           {"sa_extra_per_bit", "-2.5"},
           {"mux_gates_per_bit", "-0.5"}}) {
    const std::string key = "\"" + field + "\":";
    const std::size_t pos = sched_snap.find(key);
    ASSERT_NE(pos, std::string::npos) << field;
    const std::size_t end = sched_snap.find_first_of(",}", pos);
    std::string doc = sched_snap;
    doc.replace(pos, end - pos, key + bad);
    try {
      (void)pipeline.restore(Json::parse(doc));
      ADD_FAILURE() << field << " = " << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("area." + field),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, WriterRecordIsInformationalOnly) {
  // pass_cache_key must ignore "writer": two builds posting the same IR
  // share a server-side cache entry.
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  const PassPipeline& pipeline = PassPipeline::standard();
  SynthState state(bench.design.dfg, *bench.design.schedule, protos, {});
  pipeline.run(state, 1);
  Json snap = pipeline.snapshot(state);
  const std::string key = pass_cache_key("conflict_graph", snap);
  snap.set("writer", Json::string("some other build"));
  EXPECT_EQ(pass_cache_key("conflict_graph", snap), key);
  EXPECT_NE(pass_cache_key("binding", snap), key);
}

TEST(ModuleBindingRestore, RejectsInconsistentAssignments) {
  const Benchmark bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  const Schedule& sched = *bench.design.schedule;
  const auto protos = parse_module_spec(bench.module_spec);
  const ModuleBinding bound = ModuleBinding::bind(dfg, sched, protos);

  // The recorded assignment restores to the same instance structure.
  IdMap<OpId, ModuleId> module_of(dfg.num_ops());
  for (std::size_t i = 0; i < dfg.num_ops(); ++i) {
    const OpId op{static_cast<OpId::value_type>(i)};
    module_of[op] = bound.module_of(op);
  }
  const ModuleBinding again =
      ModuleBinding::restore(dfg, sched, protos, module_of);
  for (std::size_t m = 0; m < protos.size(); ++m) {
    const ModuleId id{static_cast<ModuleId::value_type>(m)};
    EXPECT_EQ(again.instances(id), bound.instances(id));
  }

  // An out-of-range module is not a valid assignment.
  IdMap<OpId, ModuleId> unknown = module_of;
  unknown[OpId{0}] = ModuleId{static_cast<ModuleId::value_type>(protos.size())};
  EXPECT_THROW((void)ModuleBinding::restore(dfg, sched, protos, unknown),
               Error);

  // Neither is a module that does not support the operation's kind.
  bool found_mismatch = false;
  for (std::size_t i = 0; i < dfg.num_ops() && !found_mismatch; ++i) {
    const OpId op{static_cast<OpId::value_type>(i)};
    for (std::size_t m = 0; m < protos.size(); ++m) {
      if (!protos[m].supports_kind(dfg.op(op).kind)) {
        IdMap<OpId, ModuleId> wrong = module_of;
        wrong[op] = ModuleId{static_cast<ModuleId::value_type>(m)};
        EXPECT_THROW((void)ModuleBinding::restore(dfg, sched, protos, wrong),
                     Error);
        found_mismatch = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_mismatch);
}

TEST(Incremental, ReusesExactlyWhatAnEditCannotReach) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  const std::size_t n = PassPipeline::standard().num_passes();
  SynthesisOptions opts;

  IncrementalSynthesizer inc(opts);
  const SynthesisResult r0 =
      inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  EXPECT_EQ(inc.stats().passes_run, n);
  EXPECT_EQ(
      r0.describe(bench.design.dfg),
      Synthesizer(opts)
          .run(bench.design.dfg, *bench.design.schedule, protos)
          .describe(bench.design.dfg));

  // No edit: every pass reuses.
  (void)inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  EXPECT_EQ(inc.stats().passes_run, n);
  EXPECT_EQ(inc.stats().passes_reused, n);

  // Area-model edit: only the bist pass reads the area model.
  inc.options().area.bit_width = 16;
  SynthesisOptions wide = opts;
  wide.area.bit_width = 16;
  const SynthesisResult r2 =
      inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  EXPECT_EQ(inc.stats().passes_run, n + 1);
  EXPECT_EQ(
      r2.describe(bench.design.dfg),
      Synthesizer(wide)
          .run(bench.design.dfg, *bench.design.schedule, protos)
          .describe(bench.design.dfg));
}

TEST(Incremental, RenameEditRerunsOnlyTheNameBearingPasses) {
  // Renaming a variable changes no id-based structure: sched,
  // conflict_graph and binding reuse; interconnect and bist (whose outputs
  // embed names) re-run.  paulin_loop keeps its constants port-resident, so
  // the renamed input is visible in the data path and reaches both passes.
  const Benchmark bench = make_paulin_loop();
  const auto protos = parse_module_spec(bench.module_spec);
  const std::size_t n = PassPipeline::standard().num_passes();

  std::string text = print_dfg(bench.design.dfg, &*bench.design.schedule);
  // Rename a port-resident input: its name is embedded in the data path,
  // so both name-bearing passes must re-run (an intermediate variable's
  // name would invalidate interconnect only).
  std::string victim;
  for (const Variable& v : bench.design.dfg.vars()) {
    if (v.port_resident) {
      victim = v.name;
      break;
    }
  }
  ASSERT_NE(victim, "");
  std::string renamed_text;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t hit = text.find(victim, pos);
    if (hit == std::string::npos) {
      renamed_text += text.substr(pos);
      break;
    }
    // Whole-token replacement only.
    const bool left_ok =
        hit == 0 ||
        std::isspace(static_cast<unsigned char>(text[hit - 1])) != 0;
    const std::size_t end = hit + victim.size();
    const bool right_ok =
        end == text.size() ||
        std::isspace(static_cast<unsigned char>(text[end])) != 0;
    renamed_text += text.substr(pos, hit - pos);
    renamed_text += (left_ok && right_ok) ? "renamed_var" : victim;
    pos = end;
  }
  const ParsedDfg edited = parse_dfg(renamed_text);
  ASSERT_TRUE(edited.schedule.has_value());

  IncrementalSynthesizer inc{SynthesisOptions{}};
  (void)inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  const SynthesisResult got =
      inc.resynthesize(edited.dfg, *edited.schedule, protos);
  EXPECT_EQ(inc.stats().passes_run, n + 2) << "rename should re-run only "
                                              "interconnect and bist";
  const SynthesisResult want =
      Synthesizer(SynthesisOptions{}).run(edited.dfg, *edited.schedule, protos);
  EXPECT_EQ(got.describe(edited.dfg), want.describe(edited.dfg));
  EXPECT_EQ(report_json(edited.dfg, got).dump(),
            report_json(edited.dfg, want).dump());
}

TEST(Incremental, InvalidateForcesAFullRun) {
  const Benchmark bench = make_ex1();
  const auto protos = parse_module_spec(bench.module_spec);
  const std::size_t n = PassPipeline::standard().num_passes();
  IncrementalSynthesizer inc;
  (void)inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  inc.invalidate();
  (void)inc.resynthesize(bench.design.dfg, *bench.design.schedule, protos);
  EXPECT_EQ(inc.stats().passes_run, 2 * n);
  EXPECT_EQ(inc.stats().passes_reused, 0u);
}

TEST(BuildInfo, IsPopulatedAndSerializable) {
  const BuildInfo& info = build_info();
  EXPECT_FALSE(info.version.empty());
  EXPECT_FALSE(info.git.empty());
  EXPECT_FALSE(info.compiler.empty());
  const Json j = build_info_json();
  for (const char* key :
       {"version", "git", "compiler", "sanitizer", "build_type"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
  EXPECT_NE(build_info_string().find("lowbist " + info.version),
            std::string::npos);
}

}  // namespace
}  // namespace lbist
