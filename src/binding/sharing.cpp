#include "binding/sharing.hpp"

namespace lbist {

SharingAnalysis::SharingAnalysis(const Dfg& dfg, const ModuleBinding& mb)
    : num_modules_(mb.num_modules()), masks_(dfg.num_vars()) {
  for (const auto& v : dfg.vars()) {
    DynBitset m(2 * num_modules_);
    for (std::size_t j = 0; j < num_modules_; ++j) {
      const ModuleId mod{static_cast<ModuleId::value_type>(j)};
      if (mb.input_vars(mod).test(v.id.index())) m.set(j);
      if (mb.output_vars(mod).test(v.id.index())) m.set(num_modules_ + j);
    }
    masks_[v.id] = std::move(m);
  }
}

bool SharingAnalysis::feeds_and_is_fed(const DynBitset& mask) const {
  bool feeds = false;
  bool fed = false;
  for (std::size_t j = 0; j < num_modules_; ++j) {
    feeds = feeds || mask.test(j);
    fed = fed || mask.test(num_modules_ + j);
  }
  return feeds && fed;
}

bool SharingAnalysis::self_adjacent(const DynBitset& mask) const {
  for (std::size_t j = 0; j < num_modules_; ++j) {
    if (mask.test(j) && mask.test(num_modules_ + j)) return true;
  }
  return false;
}

}  // namespace lbist
