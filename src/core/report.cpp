#include "core/report.hpp"

#include <algorithm>

#include "bist/roles.hpp"
#include "passes/synth_state.hpp"

namespace lbist {

namespace {

Json counts_json(const RoleCounts& c) {
  return Json::object()
      .set("tpg", Json::number(c.tpg))
      .set("sa", Json::number(c.sa))
      .set("bilbo", Json::number(c.tpg_sa))
      .set("cbilbo", Json::number(c.cbilbo))
      .set("modified", Json::number(c.modified()));
}

Json registers_json(const Dfg& dfg, const SynthesisResult& r) {
  Json regs = Json::array();
  for (std::size_t i = 0; i < r.datapath.registers.size(); ++i) {
    const auto& reg = r.datapath.registers[i];
    Json vars = Json::array();
    for (VarId v : reg.vars) vars.push_back(Json::string(dfg.var(v).name));
    regs.push_back(Json::object()
                       .set("name", Json::string(reg.name))
                       .set("dedicated_input",
                            Json::boolean(reg.dedicated_input))
                       .set("variables", std::move(vars))
                       .set("bist_role",
                            Json::string(to_string(r.bist.roles[i]))));
  }
  return regs;
}

Json modules_json(const SynthesisResult& r) {
  Json mods = Json::array();
  for (std::size_t m = 0; m < r.datapath.modules.size(); ++m) {
    const auto& mod = r.datapath.modules[m];
    Json entry = Json::object()
                     .set("name", Json::string(mod.name))
                     .set("functions", Json::string(mod.proto.label()))
                     .set("instances",
                          Json::number(static_cast<int>(
                              mod.instances.size())));
    if (r.bist.embeddings[m].has_value()) {
      const auto& e = *r.bist.embeddings[m];
      Json emb =
          Json::object()
              .set("tpg_left",
                   Json::string(r.datapath.registers[e.tpg_left].name))
              .set("tpg_right",
                   Json::string(r.datapath.registers[e.tpg_right].name))
              .set("sa", e.sa.has_value()
                             ? Json::string(
                                   r.datapath.registers[*e.sa].name)
                             : Json::string("<external>"))
              .set("needs_cbilbo", Json::boolean(e.needs_cbilbo()));
      entry.set("embedding", std::move(emb));
    }
    mods.push_back(std::move(entry));
  }
  return mods;
}

Json metrics_json(const SynthesisResult& r) {
  return Json::object()
      .set("registers", Json::number(r.num_registers()))
      .set("muxes", Json::number(r.num_mux()))
      .set("functional_area", Json::number(r.functional_area))
      .set("bist_extra_area", Json::number(r.bist.extra_area))
      .set("bist_overhead_percent", Json::number(r.overhead_percent))
      .set("bist_counts", counts_json(r.bist.counts()));
}

}  // namespace

Json report_json(const Dfg& dfg, const SynthesisResult& r) {
  return Json::object()
      .set("design", Json::string(dfg.name()))
      .set("metrics", metrics_json(r))
      .set("registers", registers_json(dfg, r))
      .set("modules", modules_json(r));
}

Json comparison_json(const ComparisonRow& row) {
  return Json::object()
      .set("design", Json::string(row.name))
      .set("module_spec", Json::string(row.module_spec))
      .set("traditional", metrics_json(row.traditional))
      .set("testable", metrics_json(row.testable))
      .set("reduction_percent", Json::number(row.reduction_percent()));
}

Json sweep_json(const std::vector<DesignPoint>& points) {
  const auto front = pareto_front(points);
  Json arr = Json::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint& p = points[i];
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    arr.push_back(Json::object()
                      .set("label", Json::string(p.label))
                      .set("binder", Json::string(binder_short_name(p.binder)))
                      .set("latency", Json::number(p.latency))
                      .set("registers", Json::number(p.num_registers))
                      .set("mux", Json::number(p.num_mux))
                      .set("functional_area", Json::number(p.functional_area))
                      .set("bist_extra", Json::number(p.bist_extra))
                      .set("overhead_percent",
                           Json::number(p.overhead_percent))
                      .set("total_area", Json::number(p.total_area()))
                      .set("pareto", Json::boolean(on_front)));
  }
  return arr;
}

}  // namespace lbist
