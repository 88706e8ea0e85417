#include "passes/incremental.hpp"

namespace lbist {

SynthesisResult IncrementalSynthesizer::resynthesize(
    const Dfg& dfg, const Schedule& sched,
    const std::vector<ModuleProto>& protos) {
  const PassPipeline& pipeline = PassPipeline::standard();
  SynthState state(dfg, sched, protos, opts_);
  Json ir = Json::object();
  std::vector<std::uint64_t> fps(pipeline.num_passes(), 0);
  for (std::size_t i = 0; i < pipeline.num_passes(); ++i) {
    const Pass& pass = *pipeline.passes()[i];
    fps[i] = pass.input_fingerprint(state, ir);
    if (!fps_.empty() && fps[i] == fps_[i]) {
      pass.deserialize(prev_ir_, state);
      ++stats_.passes_reused;
    } else {
      pass.run(state);
      ++stats_.passes_run;
    }
    state.completed = i + 1;
    pass.serialize(state, ir);
  }
  ++stats_.runs;
  fps_ = std::move(fps);
  prev_ir_ = std::move(ir);
  return std::move(state.result);
}

void IncrementalSynthesizer::invalidate() {
  fps_.clear();
  prev_ir_ = Json();
}

}  // namespace lbist
