#include "hybrid/eval.hpp"

#include <utility>

#include "support/check.hpp"

namespace lbist {

namespace {

HybridMode mode_from_name(const std::string& name) {
  if (name == "pseudo-random") return HybridMode::PseudoRandom;
  if (name == "reseed") return HybridMode::Reseed;
  if (name == "reseed+topup") return HybridMode::ReseedTopup;
  if (name == "evolved") return HybridMode::Evolved;
  throw Error("unknown hybrid mode: " + name);
}

}  // namespace

Json hybrid_config_to_json(const HybridConfig& config) {
  return Json::object()
      .set("name", Json::string(config.name))
      .set("mode", Json::string(hybrid_mode_name(config.mode)))
      .set("pr_patterns", Json::number(config.pr_patterns))
      .set("max_reseeds", Json::number(config.max_reseeds))
      .set("reseed_burst", Json::number(config.reseed_burst))
      .set("evolve_population", Json::number(config.evolve.population))
      .set("evolve_generations", Json::number(config.evolve.generations))
      .set("evolve_seed",
           Json::number(static_cast<std::int64_t>(config.evolve.seed)));
}

HybridConfig hybrid_config_from_json(const Json& j) {
  HybridConfig config;
  if (const Json* name = j.find("name")) config.name = name->as_string();
  if (const Json* mode = j.find("mode")) {
    config.mode = mode_from_name(mode->as_string());
  }
  if (const Json* v = j.find("pr_patterns")) config.pr_patterns = v->as_int();
  if (const Json* v = j.find("max_reseeds")) config.max_reseeds = v->as_int();
  if (const Json* v = j.find("reseed_burst")) {
    config.reseed_burst = v->as_int();
  }
  if (const Json* v = j.find("evolve_population")) {
    config.evolve.population = v->as_int();
  }
  if (const Json* v = j.find("evolve_generations")) {
    config.evolve.generations = v->as_int();
  }
  if (const Json* v = j.find("evolve_seed")) {
    const double seed = v->as_number();
    LBIST_CHECK(seed >= 0, "evolve_seed must be non-negative");
    config.evolve.seed = static_cast<std::uint64_t>(seed);
  }
  LBIST_CHECK(config.pr_patterns > 0, "pr_patterns must be positive");
  LBIST_CHECK(config.max_reseeds >= 0, "max_reseeds must be non-negative");
  LBIST_CHECK(config.reseed_burst > 0, "reseed_burst must be positive");
  // The GA runs population x (generations + 1) gate sessions inline on a
  // server shard loop; keep a posted config from asking for billions.
  LBIST_CHECK(config.evolve.population >= 2 && config.evolve.population <= 64,
              "evolve_population must be in 2..64");
  LBIST_CHECK(
      config.evolve.generations >= 0 && config.evolve.generations <= 64,
      "evolve_generations must be in 0..64");
  return config;
}

Json hybrid_result_to_json(const HybridSessionResult& result) {
  Json modules = Json::array();
  for (const ModuleHybridResult& m : result.modules) {
    modules.push_back(
        Json::object()
            .set("module", Json::number(m.module))
            .set("gate_level", Json::boolean(m.gate_level))
            .set("faults_total", Json::number(m.faults_total))
            .set("detected_pr", Json::number(m.detected_pr))
            .set("detected_reseed", Json::number(m.detected_reseed))
            .set("detected_topup", Json::number(m.detected_topup))
            .set("hard_faults", Json::number(m.hard_faults))
            .set("reseeds", Json::number(m.reseeds_used))
            .set("topups", Json::number(m.topups_used))
            .set("test_clocks",
                 Json::number(static_cast<std::int64_t>(m.test_clocks))));
  }
  return Json::object()
      .set("faults_total", Json::number(result.faults_total))
      .set("faults_detected", Json::number(result.faults_detected))
      .set("fault_coverage", Json::number(result.coverage()))
      .set("hard_faults", Json::number(result.hard_faults))
      .set("reseeds", Json::number(result.reseeds_used))
      .set("topups", Json::number(result.topups_used))
      .set("sessions", Json::number(result.num_sessions))
      .set("test_length",
           Json::number(static_cast<std::int64_t>(result.test_clocks)))
      .set("modules", std::move(modules));
}

Json evaluate_hybrid(SynthState& state, const HybridConfig& config) {
  PassPipeline::standard().run(state);
  const int width = state.options().area.bit_width;
  const HybridSessionResult session =
      run_hybrid_session(state.result.datapath, state.result.bist, config,
                         width, state.options().trace);

  Json report = Json::object()
                    .set("config", hybrid_config_to_json(config))
                    .set("bist_area",
                         Json::number(state.result.bist.extra_area))
                    .set("result", hybrid_result_to_json(session));
  state.aux["hybrid"] = report;
  return report;
}

}  // namespace lbist
