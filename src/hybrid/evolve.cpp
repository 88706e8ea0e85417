#include "hybrid/evolve.hpp"

#include <vector>

#include "support/hash.hpp"

namespace lbist {

namespace {

std::uint32_t nonzero(std::uint32_t v, std::uint32_t mask) {
  v &= mask;
  return v == 0 ? 1 : v;
}

struct Candidate {
  SeedPair seeds;
  int fitness = -1;
};

}  // namespace

EvolveOutcome evolve_seed_pair(const ModuleNetlist& module, int patterns,
                               const EvolveParams& params) {
  const int width = module.width;
  const std::uint32_t mask =
      width == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << width) - 1);
  // Key the stream by the netlist shape so distinct module kinds evolve
  // independently even under one config.
  std::uint64_t rng = params.seed ^
                      (static_cast<std::uint64_t>(module.netlist.num_nodes())
                       << 20) ^
                      static_cast<std::uint64_t>(patterns);

  auto fitness = [&](const SeedPair& s) {
    return simulate_gate_bist_seeded(module, s.a, s.b, patterns)
        .summary.detected;
  };

  const int pop_size = params.population < 2 ? 2 : params.population;
  std::vector<Candidate> pop;
  pop.reserve(static_cast<std::size_t>(pop_size));
  for (int i = 0; i < pop_size; ++i) {
    const std::uint64_t r = splitmix64(rng);
    Candidate c;
    c.seeds.a = nonzero(static_cast<std::uint32_t>(r), mask);
    c.seeds.b = nonzero(static_cast<std::uint32_t>(r >> 32), mask);
    c.fitness = fitness(c.seeds);
    pop.push_back(c);
  }

  auto best_of = [](const std::vector<Candidate>& v) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i].fitness > v[best].fitness) best = i;  // ties keep earlier
    }
    return best;
  };

  for (int g = 0; g < params.generations; ++g) {
    std::vector<Candidate> next;
    next.reserve(pop.size());
    next.push_back(pop[best_of(pop)]);  // elitism
    while (next.size() < pop.size()) {
      // Tournament-of-two parents.
      auto pick = [&]() -> const Candidate& {
        const std::uint64_t r = splitmix64(rng);
        const std::size_t i =
            static_cast<std::size_t>(r % pop.size());
        const std::size_t j =
            static_cast<std::size_t>((r >> 32) % pop.size());
        return pop[pop[i].fitness >= pop[j].fitness ? i : j];
      };
      const Candidate& p0 = pick();
      const Candidate& p1 = pick();
      // Uniform bit crossover, then a 1-2 bit mutation on each operand.
      const std::uint64_t xmask = splitmix64(rng);
      Candidate child;
      child.seeds.a = (p0.seeds.a & static_cast<std::uint32_t>(xmask)) |
                      (p1.seeds.a & ~static_cast<std::uint32_t>(xmask));
      child.seeds.b =
          (p0.seeds.b & static_cast<std::uint32_t>(xmask >> 32)) |
          (p1.seeds.b & ~static_cast<std::uint32_t>(xmask >> 32));
      const std::uint64_t m = splitmix64(rng);
      child.seeds.a ^= std::uint32_t{1}
                       << (m % static_cast<std::uint64_t>(width));
      if ((m >> 16) & 1u) {
        child.seeds.b ^= std::uint32_t{1}
                         << ((m >> 32) % static_cast<std::uint64_t>(width));
      }
      child.seeds.a = nonzero(child.seeds.a, mask);
      child.seeds.b = nonzero(child.seeds.b, mask);
      child.fitness = fitness(child.seeds);
      next.push_back(child);
    }
    pop = std::move(next);
  }

  const Candidate& winner = pop[best_of(pop)];
  return EvolveOutcome{winner.seeds, winner.fitness};
}

}  // namespace lbist
