#include "obs/events.hpp"

#include <ostream>

namespace lbist {

AlgorithmEvents::AlgorithmEvents(MetricsRegistry* metrics, bool keep_events)
    : metrics_(metrics), keep_events_(keep_events) {}

void AlgorithmEvents::push(const char* kind, const char* counter,
                           Json detail) {
  if (metrics_ != nullptr) metrics_->counter(counter).inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[kind];
  if (keep_events_) {
    events_.push_back(AlgorithmEvent{kind, std::move(detail)});
  }
}

void AlgorithmEvents::pves_rank(std::string_view var, int sd, std::size_t mcs,
                                std::size_t rank) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("var", Json::string(std::string(var)))
                 .set("sd", Json::number(sd))
                 .set("mcs", Json::number(mcs))
                 .set("rank", Json::number(rank));
  }
  push("pves_rank", "binding.pves_vars", std::move(detail));
}

void AlgorithmEvents::assign(std::string_view var, std::size_t reg,
                             int delta_sd, bool new_register,
                             const std::vector<SdCandidate>& candidates) {
  Json detail;
  if (keep_events_) {
    Json cands = Json::array();
    for (const SdCandidate& c : candidates) {
      cands.push_back(Json::object()
                          .set("reg", Json::number(c.reg))
                          .set("delta_sd", Json::number(c.delta_sd)));
    }
    detail = Json::object()
                 .set("var", Json::string(std::string(var)))
                 .set("reg", Json::number(reg))
                 .set("delta_sd", Json::number(delta_sd))
                 .set("new_register", Json::boolean(new_register))
                 .set("candidates", std::move(cands));
  }
  push("assign", "binding.assignments", std::move(detail));
  if (new_register && metrics_ != nullptr) {
    metrics_->counter("binding.new_registers").inc();
  }
}

void AlgorithmEvents::case_override(int case_no, std::string_view var,
                                    std::size_t from_reg,
                                    std::size_t to_reg) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("case", Json::number(case_no))
                 .set("var", Json::string(std::string(var)))
                 .set("from_reg", Json::number(from_reg))
                 .set("to_reg", Json::number(to_reg));
  }
  push("case_override",
       case_no == 1 ? "binding.case1_overrides" : "binding.case2_overrides",
       std::move(detail));
}

void AlgorithmEvents::cbilbo_checked(std::string_view var, std::size_t reg,
                                     bool would_force) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("var", Json::string(std::string(var)))
                 .set("reg", Json::number(reg))
                 .set("would_force", Json::boolean(would_force));
  }
  push("cbilbo_checked", "cbilbo.checked", std::move(detail));
}

void AlgorithmEvents::cbilbo_avoided(std::string_view var,
                                     std::size_t from_reg,
                                     std::size_t to_reg) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("var", Json::string(std::string(var)))
                 .set("from_reg", Json::number(from_reg))
                 .set("to_reg", Json::number(to_reg));
  }
  push("cbilbo_avoided", "cbilbo.avoided", std::move(detail));
}

void AlgorithmEvents::cbilbo_forced(std::size_t reg, std::size_t module,
                                    int lemma_case) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("reg", Json::number(reg))
                 .set("module", Json::number(module))
                 .set("lemma_case", Json::number(lemma_case));
  }
  push("cbilbo_forced", "cbilbo.forced", std::move(detail));
}

void AlgorithmEvents::mux_input(std::string_view module, std::size_t reg,
                                char side, bool merged) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("module", Json::string(std::string(module)))
                 .set("reg", Json::number(reg))
                 .set("side", Json::string(std::string(1, side)))
                 .set("merged", Json::boolean(merged));
  }
  push(merged ? "mux_merge" : "mux_input",
       merged ? "interconnect.mux_merges" : "interconnect.mux_inputs",
       std::move(detail));
}

void AlgorithmEvents::port_flip(std::string_view module) {
  Json detail;
  if (keep_events_) {
    detail =
        Json::object().set("module", Json::string(std::string(module)));
  }
  push("port_flip", "interconnect.port_flips", std::move(detail));
}

void AlgorithmEvents::bist_role(std::size_t reg, std::string_view role) {
  Json detail;
  if (keep_events_) {
    detail = Json::object()
                 .set("reg", Json::number(reg))
                 .set("role", Json::string(std::string(role)));
  }
  const char* counter = "bist.roles_other";
  if (role == "TPG") counter = "bist.roles_tpg";
  else if (role == "SA") counter = "bist.roles_sa";
  else if (role == "BILBO" || role == "TPG/SA") counter = "bist.roles_bilbo";
  else if (role == "CBILBO") counter = "bist.roles_cbilbo";
  push("bist_role", counter, std::move(detail));
}

void AlgorithmEvents::bist_greedy_fallback(BistFallback reason) {
  const bool frontier = reason == BistFallback::Frontier;
  Json detail;
  if (keep_events_) {
    detail = Json::object().set(
        "reason", Json::string(frontier ? "frontier" : "register_gate"));
  }
  push("bist_greedy_fallback", "bist.greedy_fallbacks", std::move(detail));
  if (metrics_ != nullptr) {
    metrics_->counter(frontier ? "bist.fallbacks_frontier"
                               : "bist.fallbacks_register_gate")
        .inc();
  }
}

void AlgorithmEvents::binding_registers_scanned(std::uint64_t n) {
  if (metrics_ != nullptr) {
    metrics_->counter("binding.registers_scanned").inc(n);
  }
}

void AlgorithmEvents::interconnect_promotions(std::uint64_t n) {
  if (metrics_ != nullptr) metrics_->counter("interconnect.promotions").inc(n);
}

void AlgorithmEvents::bist_embeddings_scanned(std::uint64_t n) {
  if (metrics_ != nullptr) metrics_->counter("bist.embeddings_scanned").inc(n);
}

void AlgorithmEvents::bist_bnb_work(std::uint64_t states,
                                    std::uint64_t pruned) {
  if (metrics_ == nullptr) return;
  metrics_->counter("bist.bnb_states").inc(states);
  metrics_->counter("bist.bnb_pruned").inc(pruned);
}

std::vector<AlgorithmEvent> AlgorithmEvents::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t AlgorithmEvents::count(std::string_view kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counts_.find(kind);
  return it == counts_.end() ? 0 : it->second;
}

void AlgorithmEvents::write_jsonl(std::ostream& os) const {
  for (const AlgorithmEvent& ev : snapshot()) {
    Json line = Json::object().set("kind", Json::string(ev.kind));
    if (ev.detail.is_object()) {
      for (const std::string& key : ev.detail.keys()) {
        Json copy = ev.detail.at(key);  // Json is value-copyable
        line.set(key, std::move(copy));
      }
    }
    os << line.dump_compact() << "\n";
  }
}

std::vector<std::string> binder_decision_lines(
    const std::vector<AlgorithmEvent>& events) {
  auto reg = [](const Json& detail, const char* key) {
    return "R" + std::to_string(detail.at(key).as_int() + 1);
  };
  std::vector<std::string> lines;
  for (const AlgorithmEvent& ev : events) {
    const Json& d = ev.detail;
    if (ev.kind == "assign") {
      const std::string how =
          d.at("new_register").as_bool()
              ? "new register"
              : "dSD=" + std::to_string(d.at("delta_sd").as_int());
      lines.push_back("assign " + d.at("var").as_string() + " -> " +
                      reg(d, "reg") + " (" + how + ")");
    } else if (ev.kind == "case_override") {
      lines.push_back("case override: " + d.at("var").as_string() +
                      " prefers " + reg(d, "to_reg") + " over " +
                      reg(d, "from_reg"));
    } else if (ev.kind == "cbilbo_avoided") {
      lines.push_back("CBILBO avoidance: " + d.at("var").as_string() +
                      " moved to " + reg(d, "to_reg") + " (" +
                      reg(d, "from_reg") + " would force a CBILBO)");
    }
  }
  return lines;
}

}  // namespace lbist
