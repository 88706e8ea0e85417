#include "passes/synth_state.hpp"

#include "support/check.hpp"

namespace lbist {

const char* binder_kind_name(BinderKind kind) {
  switch (kind) {
    case BinderKind::Traditional: return "traditional";
    case BinderKind::BistAware: return "bist-aware";
    case BinderKind::Ralloc: return "ralloc";
    case BinderKind::Syntest: return "syntest";
    case BinderKind::CliquePartition: return "clique";
    case BinderKind::LoopAware: return "loop-aware";
  }
  return "?";
}

namespace {

constexpr BinderKind kAllBinders[] = {
    BinderKind::Traditional,     BinderKind::BistAware,
    BinderKind::Ralloc,          BinderKind::Syntest,
    BinderKind::CliquePartition, BinderKind::LoopAware};

}  // namespace

BinderKind binder_kind_from_name(std::string_view name) {
  for (BinderKind kind : kAllBinders) {
    if (name == binder_kind_name(kind)) return kind;
  }
  throw Error("unknown binder name: " + std::string(name));
}

const char* binder_short_name(BinderKind kind) {
  switch (kind) {
    case BinderKind::Traditional: return "trad";
    case BinderKind::BistAware: return "bist";
    case BinderKind::Ralloc: return "ralloc";
    case BinderKind::Syntest: return "syntest";
    case BinderKind::CliquePartition: return "clique";
    case BinderKind::LoopAware: return "loop";
  }
  return "?";
}

std::optional<BinderKind> binder_from_short_name(std::string_view name) {
  for (BinderKind kind : kAllBinders) {
    if (name == binder_short_name(kind)) return kind;
  }
  return std::nullopt;
}

SynthState::SynthState(std::unique_ptr<ParsedDfg> design,
                       std::vector<ModuleProto> protos, SynthesisOptions opts)
    : owned_(std::move(design)), protos_(std::move(protos)), opts_(opts) {
  LBIST_CHECK(owned_ != nullptr, "restored state needs a design");
  LBIST_CHECK(owned_->schedule.has_value(),
              "restored design carries no schedule");
  dfg_ = &owned_->dfg;
  sched_ = &*owned_->schedule;
}

}  // namespace lbist
