#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "binding/cbilbo_check.hpp"
#include "bist/allocator.hpp"
#include "core/report.hpp"
#include "core/synthesizer.hpp"
#include "dfg/lifetime.hpp"
#include "fuzz/reference.hpp"
#include "graph/conflict.hpp"
#include "obs/events.hpp"
#include "passes/incremental.hpp"
#include "passes/pipeline.hpp"
#include "passes/synth_state.hpp"
#include "rtl/controller.hpp"
#include "rtl/ipath.hpp"
#include "rtl/simulate.hpp"
#include "support/check.hpp"

namespace lbist {

bool OracleVerdict::failed(const std::string& name) const {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const OracleFailure& f) { return f.oracle == name; });
}

namespace {

/// splitmix64 finalizer — the digest mixer.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= (h >> 30);
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= (h >> 27);
  h *= 0x94d049bb133111ebull;
  h ^= (h >> 31);
  return h;
}

std::uint32_t width_mask(int width) {
  return width >= 32 ? 0xFFFFFFFFu
                     : ((std::uint32_t{1} << width) - 1u);
}

/// Deterministic stimulus: vector 0 assigns input i the value i+1 (never
/// zero, so multiplier chains stay alive); vector 1 mixes the stimulus
/// seed so each case exercises different data.
IdMap<VarId, std::uint32_t> make_inputs(const Dfg& dfg, int vec,
                                        std::uint64_t seed, int width) {
  const std::uint32_t mask = width_mask(width);
  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  std::uint32_t ordinal = 0;
  for (const auto& v : dfg.vars()) {
    if (!v.is_input()) continue;
    ++ordinal;
    if (vec == 0) {
      inputs[v.id] = ordinal & mask;
    } else {
      const std::uint64_t h = mix(seed, ordinal);
      inputs[v.id] = static_cast<std::uint32_t>(h) & mask;
    }
    if (inputs[v.id] == 0) inputs[v.id] = 1;  // keep mul/div paths non-trivial
  }
  return inputs;
}

/// Mutation self-test: move one variable into a register it conflicts
/// with.  Returns true if a corruptible pair existed.
bool corrupt_binding(RegisterBinding& rb,
                     const IdMap<VarId, LiveInterval>& lifetimes) {
  for (std::size_t a = 0; a < rb.regs.size(); ++a) {
    for (VarId v : rb.regs[a]) {
      for (std::size_t b = 0; b < rb.regs.size(); ++b) {
        if (a == b) continue;
        for (VarId u : rb.regs[b]) {
          if (!lifetimes[v].overlaps(lifetimes[u])) continue;
          // v conflicts with u: moving v into u's register breaks the
          // partition invariant.
          auto& from = rb.regs[a];
          from.erase(std::find(from.begin(), from.end(), v));
          rb.regs[b].push_back(v);
          rb.reg_of[v] = RegId{static_cast<RegId::value_type>(b)};
          return true;
        }
      }
    }
  }
  return false;
}

std::string embedding_text(const std::optional<BistEmbedding>& e) {
  if (!e.has_value()) return "untested";
  auto opt = [](const std::optional<std::size_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("-");
  };
  return "L" + std::to_string(e->tpg_left) + " R" +
         std::to_string(e->tpg_right) + " SA" + opt(e->sa) + " through " +
         opt(e->left_through) + "/" + opt(e->right_through) + " via " +
         opt(e->left_via) + "/" + opt(e->right_via);
}

class OracleRun {
 public:
  OracleRun(const Dfg& dfg, const Schedule& sched, const OracleOptions& opts)
      : dfg_(dfg), sched_(sched), opts_(opts) {}

  OracleVerdict run() {
    protos_ = minimal_module_spec(dfg_, sched_);
    check_arm(BinderKind::Traditional);
    if (dfg_.num_ops() <=
        static_cast<std::size_t>(opts_.clique_arm_max_ops)) {
      check_arm(BinderKind::CliquePartition);
    }
    check_arm(BinderKind::BistAware);
    if (!dfg_.loop_ties().empty()) check_arm(BinderKind::LoopAware);
    verdict_.digest = digest_;
    return std::move(verdict_);
  }

 private:
  void fail(std::string oracle, std::string detail) {
    verdict_.failures.push_back({std::move(oracle), std::move(detail)});
  }

  void check_arm(BinderKind kind) {
    const std::string arm = binder_short_name(kind);
    SynthesisOptions so;
    so.binder = kind;
    so.area.bit_width = opts_.width;
    // The bist arm runs with the decision-event stream on so the
    // events-cbilbo oracle can cross-check it against cbilbo_check.
    AlgorithmEvents events(nullptr, /*keep_events=*/true);
    if (kind == BinderKind::BistAware) so.events = &events;
    try {
      SynthesisResult result = Synthesizer(so).run(dfg_, sched_, protos_);
      check_binding(arm, kind, so, result);
      check_simulation(arm, kind, so, result);
      check_area(arm, so, result);
      check_greedy_reference(arm, so, result);
      if (kind == BinderKind::BistAware) check_binder_reference(so, result);
      if (kind == BinderKind::BistAware) check_report(result);
      if (kind == BinderKind::BistAware) check_events(events, result);
      const bool deep =
          kind == BinderKind::BistAware &&
          dfg_.num_ops() <= static_cast<std::size_t>(opts_.deep_check_max_ops);
      if (deep) check_snapshot(so, result);
      if (deep) check_incremental(so, result);
      if ((kind == BinderKind::Traditional ||
           kind == BinderKind::BistAware) &&
          opts_.check_lemma2) {
        check_lemma2(arm, result);
      }
      digest_ =
          mix(digest_, static_cast<std::uint64_t>(result.num_registers()));
      digest_ = mix(digest_, static_cast<std::uint64_t>(result.num_mux()));
      digest_ = mix(digest_, static_cast<std::uint64_t>(std::llround(
                                 result.overhead_percent * 1e6)));
    } catch (const Error& e) {
      // The pipeline tripped an LBIST_CHECK outside a validation oracle:
      // that is a finding, not a harness crash.
      fail("pipeline:" + arm, e.what());
    }
  }

  void check_binding(const std::string& arm, BinderKind kind,
                     const SynthesisOptions& so,
                     const SynthesisResult& result) {
    auto lt = compute_lifetimes(dfg_, sched_, so.lifetime);
    RegisterBinding rb = result.registers;
    if (opts_.inject_binding_bug && kind == BinderKind::Traditional) {
      corrupt_binding(rb, lt);
    }
    try {
      rb.validate(dfg_, lt);
    } catch (const Error& e) {
      fail("binding-valid:" + arm, e.what());
      return;
    }
    if (kind == BinderKind::Traditional || kind == BinderKind::BistAware) {
      // For interval conflict graphs the clique number is the live peak.
      const auto minimum = static_cast<std::size_t>(max_live(dfg_, lt));
      if (rb.num_regs() != minimum) {
        fail("binding-minimal:" + arm,
             std::to_string(rb.num_regs()) + " registers, clique number " +
                 std::to_string(minimum));
      }
    }
  }

  void check_simulation(const std::string& arm, BinderKind kind,
                        const SynthesisOptions& so,
                        const SynthesisResult& result) {
    auto lt = compute_lifetimes(dfg_, sched_, so.lifetime);
    auto ctl = Controller::generate(dfg_, sched_, result.registers,
                                    result.datapath, lt);
    for (int vec = 0; vec < 2; ++vec) {
      auto inputs = make_inputs(dfg_, vec, opts_.stimulus_seed, opts_.width);
      auto sim = simulate_datapath(dfg_, result.datapath, ctl, inputs,
                                   opts_.width);
      if (!sim.ok()) {
        std::ostringstream os;
        os << "vector " << vec << ": ";
        for (VarId v : sim.mismatches) os << dfg_.var(v).name << " ";
        fail("simulation:" + arm, os.str());
      }
      for (const auto& v : sim.observed) {
        digest_ = mix(digest_, v);
      }
    }
    if (kind == BinderKind::LoopAware) {
      auto inputs = make_inputs(dfg_, 0, opts_.stimulus_seed, opts_.width);
      auto iters = simulate_datapath_loop(dfg_, result.datapath, ctl, inputs,
                                          opts_.width, 3);
      for (std::size_t i = 0; i < iters.size(); ++i) {
        if (!iters[i].ok()) {
          fail("loop-simulation", "iteration " + std::to_string(i));
        }
      }
    }
  }

  void check_area(const std::string& arm, const SynthesisOptions& so,
                  const SynthesisResult& result) {
    const double functional = so.area.functional_area(result.datapath);
    if (std::abs(functional - result.functional_area) > 1e-6) {
      fail("area-consistency:" + arm, "functional area drifted");
    }
    double extra = 0.0;
    for (const auto& role : result.bist.roles) {
      extra += so.area.role_extra(role);
    }
    if (std::abs(extra - result.bist.extra_area) > 1e-6) {
      fail("area-consistency:" + arm,
           "role extras sum " + std::to_string(extra) + " != reported " +
               std::to_string(result.bist.extra_area));
    }
    const double overhead =
        functional > 0 ? 100.0 * result.bist.extra_area / functional : 0.0;
    if (std::abs(overhead - result.overhead_percent) > 1e-6) {
      fail("area-consistency:" + arm, "overhead percentage drifted");
    }
    if (result.bist.exact) {
      BistAllocator alloc(so.area);
      const double greedy = alloc.solve_greedy(result.datapath).extra_area;
      if (result.bist.extra_area > greedy + 1e-9) {
        fail("area-consistency:" + arm,
             "exact allocation (" + std::to_string(result.bist.extra_area) +
                 ") worse than greedy (" + std::to_string(greedy) + ")");
      }
    }
  }

  /// solve_greedy against the full-scan greedy, every field: simple
  /// I-paths at every size, transparent paths within the deep-check gate.
  void check_greedy_reference(const std::string& arm,
                              const SynthesisOptions& so,
                              const SynthesisResult& result) {
    const Datapath& dp = result.datapath;
    const bool small =
        dfg_.num_ops() <= static_cast<std::size_t>(opts_.deep_check_max_ops);
    for (bool transparent : {false, true}) {
      if (transparent && !small) break;
      BistAllocator alloc(so.area);
      alloc.use_transparent_paths = transparent;
      const BistSolution got = alloc.solve_greedy(dp);
      const BistSolution want = full_scan_greedy(dp, so.area, transparent);
      const std::string paths = transparent ? "transparent" : "simple";
      for (std::size_t m = 0; m < dp.modules.size(); ++m) {
        const std::string g = embedding_text(got.embeddings[m]);
        const std::string w = embedding_text(want.embeddings[m]);
        if (g != w) {
          fail("greedy-reference:" + arm,
               paths + " paths, module " + dp.modules[m].name +
                   ": greedy took " + g + ", the full scan " + w);
          return;
        }
      }
      if (got.roles != want.roles ||
          got.untestable_modules != want.untestable_modules ||
          got.extra_area != want.extra_area) {
        fail("greedy-reference:" + arm,
             paths + " paths: roles, untestable modules or extra area "
                     "differ from the full scan");
        return;
      }
    }
  }

  /// The BIST-aware binder against the full scan it replaced, at every
  /// size: the arm's own binding (under its recording sink, which visits
  /// the rest of each scan after the decision) and a sink-less run must
  /// both equal the reference register for register, members in order.
  void check_binder_reference(const SynthesisOptions& so,
                              const SynthesisResult& result) {
    const VarConflictGraph cg = build_conflict_graph(dfg_, result.lifetimes);
    const RegisterBinding want =
        full_scan_bist_binding(dfg_, cg, result.modules, so.bist_binder);
    const RegisterBinding fast =
        bind_registers_bist_aware(dfg_, cg, result.modules, so.bist_binder);
    for (const auto& [scan, got] :
         {std::pair{"recorded", &result.registers},
          std::pair{"sink-less", &fast}}) {
      if (got->regs == want.regs) continue;
      std::size_t r = 0;
      while (r < got->regs.size() && r < want.regs.size() &&
             got->regs[r] == want.regs[r]) {
        ++r;
      }
      fail("binder-reference:bist",
           std::string(scan) + " scan: R" + std::to_string(r + 1) +
               " differs from the full scan's (" +
               std::to_string(got->num_regs()) + " vs " +
               std::to_string(want.num_regs()) + " registers)");
    }
  }

  void check_report(const SynthesisResult& result) {
    const Json report = report_json(dfg_, result);
    const std::string text = report.dump();
    const Json reparsed = Json::parse(text);
    if (reparsed.dump() != text) {
      fail("report-consistency", "JSON dump does not round-trip");
      return;
    }
    const Json& metrics = reparsed.at("metrics");
    auto expect_num = [&](const char* key, double want) {
      const Json* got = metrics.find(key);
      if (got == nullptr || std::abs(got->as_number() - want) > 1e-6) {
        fail("report-consistency", std::string("metrics.") + key +
                                       " disagrees with the synthesis result");
      }
    };
    expect_num("registers", result.num_registers());
    expect_num("muxes", result.num_mux());
    expect_num("functional_area", result.functional_area);
    expect_num("bist_extra_area", result.bist.extra_area);
    expect_num("bist_overhead_percent", result.overhead_percent);
  }

  /// The binder's emitted cbilbo_forced event stream agrees with a
  /// Lemma-2 evaluation of the binding the synthesis result holds (the
  /// binder evaluates its own register file before handing the binding
  /// over — the two must name the same forced modules).  Both sides call
  /// forced_cbilbos, so this checks the event plumbing; lemma2:bist checks
  /// the lemma itself.
  void check_events(const AlgorithmEvents& events,
                    const SynthesisResult& result) {
    const auto independent =
        forced_cbilbos(result.modules, result.registers.reg_of);
    std::vector<std::size_t> reported;
    for (const AlgorithmEvent& ev : events.snapshot()) {
      if (ev.kind != "cbilbo_forced") continue;
      reported.push_back(
          static_cast<std::size_t>(ev.detail.at("module").as_int()));
    }
    std::vector<std::size_t> expected;
    expected.reserve(independent.size());
    for (const ForcedCbilbo& f : independent) {
      expected.push_back(f.module.index());
    }
    std::sort(reported.begin(), reported.end());
    std::sort(expected.begin(), expected.end());
    if (reported != expected) {
      fail("events-cbilbo",
           "binder emitted " + std::to_string(reported.size()) +
               " cbilbo_forced events, independent Lemma-2 check finds " +
               std::to_string(expected.size()));
    }
    digest_ = mix(digest_, events.count("cbilbo_forced"));
  }

  /// Every stage-boundary IR snapshot resumes to the bit-identical result:
  /// run the pipeline to each boundary, serialize, re-parse, restore into a
  /// fresh state (own DFG, rebuilt from the printed design) and finish the
  /// run — the text report and the JSON report must match the uninterrupted
  /// run byte for byte.
  void check_snapshot(const SynthesisOptions& so,
                      const SynthesisResult& result) {
    SynthesisOptions clean = so;  // the oracle's replays must not re-emit
    clean.trace = nullptr;        // decision events into the arm's stream
    clean.events = nullptr;
    const PassPipeline& pipeline = PassPipeline::standard();
    const std::string want_text = result.describe(dfg_);
    const std::string want_json = report_json(dfg_, result).dump();
    for (std::size_t stage = 1; stage <= pipeline.num_passes(); ++stage) {
      const std::string stage_name(pipeline.passes()[stage - 1]->name());
      SynthState state(dfg_, sched_, protos_, clean);
      pipeline.run(state, stage);
      SynthState resumed =
          pipeline.restore(Json::parse(pipeline.snapshot(state).dump()));
      pipeline.run(resumed);
      if (resumed.result.describe(resumed.dfg()) != want_text) {
        fail("snapshot-roundtrip",
             "stage " + stage_name + ": resumed report text diverged");
      }
      const std::string got_json =
          report_json(resumed.dfg(), resumed.result).dump();
      if (got_json != want_json) {
        fail("snapshot-roundtrip",
             "stage " + stage_name + ": resumed JSON report diverged");
      }
      digest_ = mix(digest_, got_json.size());
    }
  }

  /// Incremental re-synthesis is bit-identical to full synthesis, and the
  /// driver reuses exactly the passes an edit cannot reach: a repeat call
  /// reuses everything, an area-model edit re-runs only the bist pass, a
  /// lifetime-policy edit invalidates the whole pipeline.
  void check_incremental(const SynthesisOptions& so,
                         const SynthesisResult& result) {
    SynthesisOptions clean = so;
    clean.trace = nullptr;
    clean.events = nullptr;
    const std::string want_text = result.describe(dfg_);
    IncrementalSynthesizer inc(clean);
    const std::size_t n = PassPipeline::standard().num_passes();
    SynthesisResult r0 = inc.resynthesize(dfg_, sched_, protos_);
    if (r0.describe(dfg_) != want_text ||
        report_json(dfg_, r0).dump() != report_json(dfg_, result).dump()) {
      fail("incremental", "initial run diverged from full synthesis");
    }
    // Unchanged inputs: every pass reuses.
    SynthesisResult r1 = inc.resynthesize(dfg_, sched_, protos_);
    if (r1.describe(dfg_) != want_text) {
      fail("incremental", "no-op re-run diverged");
    }
    if (inc.stats().passes_run != n || inc.stats().passes_reused != n) {
      fail("incremental",
           "no-op re-run executed " +
               std::to_string(inc.stats().passes_run - n) + " passes");
    }
    // Area-only edit: only the bist pass reads the area model.
    SynthesisOptions wider = clean;
    wider.area.bit_width = clean.area.bit_width + 1;
    inc.options() = wider;
    SynthesisResult r2 = inc.resynthesize(dfg_, sched_, protos_);
    SynthesisResult full2 = Synthesizer(wider).run(dfg_, sched_, protos_);
    if (r2.describe(dfg_) != full2.describe(dfg_) ||
        report_json(dfg_, r2).dump() != report_json(dfg_, full2).dump()) {
      fail("incremental", "area edit diverged from full synthesis");
    }
    if (inc.stats().passes_run != n + 1) {
      fail("incremental",
           "area edit re-ran " + std::to_string(inc.stats().passes_run - n) +
               " passes, expected exactly the bist pass");
    }
    // Lifetime-policy edit: changes the sched pass's inputs, so the whole
    // pipeline re-runs.
    SynthesisOptions held = wider;
    held.lifetime.hold_outputs_to_end = !wider.lifetime.hold_outputs_to_end;
    inc.options() = held;
    SynthesisResult r3 = inc.resynthesize(dfg_, sched_, protos_);
    SynthesisResult full3 = Synthesizer(held).run(dfg_, sched_, protos_);
    if (r3.describe(dfg_) != full3.describe(dfg_) ||
        report_json(dfg_, r3).dump() != report_json(dfg_, full3).dump()) {
      fail("incremental", "lifetime edit diverged from full synthesis");
    }
    digest_ = mix(digest_, inc.stats().passes_run);
    digest_ = mix(digest_, inc.stats().passes_reused);
  }

  /// Lemma 2 agrees with brute force over every embedding (the paper's
  /// setting: binary commutative modules with two distinct operand
  /// registers and an allocatable result).  On the bist arm this is the
  /// check behind the binder's CBILBO avoidance: events-cbilbo only sees
  /// the binder report what forced_cbilbos says.
  void check_lemma2(const std::string& arm, const SynthesisResult& result) {
    const auto& dp = result.datapath;
    double combos = 0;
    std::vector<std::vector<BistEmbedding>> all;
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      all.push_back(enumerate_embeddings(dp, m));
      combos += static_cast<double>(all.back().size());
    }
    if (combos > opts_.lemma2_budget) return;  // exhaustive oracle gated

    const auto lemma =
        forced_cbilbos(result.modules, result.registers.reg_of);
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      bool clean = true;
      for (OpId opid : result.modules.instances(
               ModuleId{static_cast<ModuleId::value_type>(m)})) {
        const auto& op = dfg_.op(opid);
        if (op.lhs == op.rhs || !is_commutative(op.kind)) clean = false;
        if (!dfg_.var(op.result).allocatable()) clean = false;
      }
      if (!clean || all[m].empty()) continue;
      const bool brute_forced =
          std::all_of(all[m].begin(), all[m].end(),
                      [](const BistEmbedding& e) { return e.needs_cbilbo(); });
      const bool lemma_forced =
          std::any_of(lemma.begin(), lemma.end(), [&](const ForcedCbilbo& f) {
            return f.module.index() == m;
          });
      if (lemma_forced != brute_forced) {
        fail("lemma2:" + arm,
             "module " + dp.modules[m].name + ": lemma says " +
                 (lemma_forced ? "forced" : "free") + ", brute force says " +
                 (brute_forced ? "forced" : "free"));
      }
    }
  }

  const Dfg& dfg_;
  const Schedule& sched_;
  const OracleOptions& opts_;
  std::vector<ModuleProto> protos_;
  OracleVerdict verdict_;
  std::uint64_t digest_ = 0x6c6f776269737421ull;  // "lowbist!"
};

}  // namespace

OracleVerdict run_oracles(const Dfg& dfg, const Schedule& sched,
                          const OracleOptions& opts) {
  return OracleRun(dfg, sched, opts).run();
}

}  // namespace lbist
