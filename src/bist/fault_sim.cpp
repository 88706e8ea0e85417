#include "bist/fault_sim.hpp"

#include "rtl/simulate.hpp"

namespace lbist {

std::vector<StuckFault> enumerate_port_faults(int width) {
  std::vector<StuckFault> faults;
  for (StuckFault::Site site : {StuckFault::Site::LeftPort,
                                StuckFault::Site::RightPort,
                                StuckFault::Site::Output}) {
    for (int bit = 0; bit < width; ++bit) {
      for (bool stuck_one : {false, true}) {
        faults.push_back(StuckFault{site, bit, stuck_one});
      }
    }
  }
  return faults;
}

namespace {

std::uint32_t inject(std::uint32_t value, const StuckFault& fault) {
  const std::uint32_t mask = std::uint32_t{1} << fault.bit;
  return fault.stuck_one ? (value | mask) : (value & ~mask);
}

}  // namespace

SessionGrade grade_port_faults(const std::vector<OpKind>& kinds,
                               const TpgPair& tpgs, int patterns, int width) {
  const Stimulus stimulus(tpgs, patterns, width);
  const std::vector<StuckFault> faults = enumerate_port_faults(width);
  return grade_faults(
      static_cast<int>(kinds.size()), static_cast<int>(faults.size()),
      [&](int s, int f) {
        const OpKind kind = kinds[static_cast<std::size_t>(s)];
        if (f < 0) {
          return stimulus.signature([&](std::uint32_t a, std::uint32_t b) {
            return eval_op(kind, a, b, width);
          });
        }
        const StuckFault& fault = faults[static_cast<std::size_t>(f)];
        return stimulus.signature([&](std::uint32_t a, std::uint32_t b) {
          if (fault.site == StuckFault::Site::LeftPort) a = inject(a, fault);
          if (fault.site == StuckFault::Site::RightPort) b = inject(b, fault);
          const std::uint32_t y = eval_op(kind, a, b, width);
          return fault.site == StuckFault::Site::Output ? inject(y, fault)
                                                        : y;
        });
      });
}

CoverageResult simulate_module_bist(const ModuleProto& proto, int width,
                                    int patterns, bool independent_tpgs) {
  return grade_port_faults(proto.supports, TpgPair::generic(independent_tpgs),
                           patterns, width)
      .coverage;
}

}  // namespace lbist
