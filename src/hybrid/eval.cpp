#include "hybrid/eval.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace lbist {

namespace {

constexpr double kSeedLimit = 9007199254740992.0;  // 2^53

/// Reads the integer field `key` of `j` into `out` when present, refusing
/// (and naming the field) a value that is not an integer in [lo, hi].
void read_int(const Json& j, const std::string& key, int lo, int hi,
              int& out) {
  const Json* v = j.find(key);
  if (v == nullptr) return;
  const double d = v->is_number() ? v->as_number() : std::nan("");
  LBIST_CHECK(d == std::floor(d) && d >= lo && d <= hi,
              key + " must be an integer in " + std::to_string(lo) + ".." +
                  std::to_string(hi));
  out = static_cast<int>(d);
}

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
  // The pseudo-random phase, each reseed burst and the GA's population x
  // (generations + 1) gate sessions run inline on a server shard loop, so
  // a posted config cannot ask for billions.  65,535 clocks is the LFSR
  // period at width 16: that cap changes nothing up to that width.
  read_int(j, "pr_patterns", 1, 65535, config.pr_patterns);
  read_int(j, "max_reseeds", 0, std::numeric_limits<int>::max(),
           config.max_reseeds);
  read_int(j, "reseed_burst", 1, 65535, config.reseed_burst);
  read_int(j, "evolve_population", 2, 64, config.evolve.population);
  read_int(j, "evolve_generations", 0, 64, config.evolve.generations);
  if (const Json* v = j.find("evolve_seed")) {
    // JSON numbers are doubles: every integer below 2^53 parses exactly,
    // but a posted 2^53 + 1 parses as 2^53, so 2^53 is refused too.  What
    // is accepted converts to a uint64 without rounding and prints back as
    // posted, so the config (and the server's cache key built from it)
    // round-trips.
    const double seed = v->as_number();
    LBIST_CHECK(seed >= 0 && seed < kSeedLimit && seed == std::floor(seed),
                "evolve_seed must be an integer in [0, 2^53)");
    config.evolve.seed = static_cast<std::uint64_t>(seed);
  }
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

  return Json::object()
      .set("config", hybrid_config_to_json(config))
      .set("bist_area", Json::number(state.result.bist.extra_area))
      .set("result", hybrid_result_to_json(session));
}

}  // namespace lbist
