#include "bist/session_sim.hpp"

#include <algorithm>

namespace lbist {

std::uint32_t chip_seed(std::size_t reg, int width) {
  const std::uint32_t seed =
      (0x9E3779B9u * (static_cast<std::uint32_t>(reg) + 1)) &
      lfsr_mask(width);
  return seed == 0 ? 1 : seed;
}

int period_capped(int patterns, int width) {
  const std::uint64_t period = lfsr_mask(width);  // 2^width - 1
  if (static_cast<std::uint64_t>(patterns) > period) {
    return static_cast<int>(period);  // width >= 31 never caps
  }
  return patterns;
}

TpgPair TpgPair::generic(bool independent) {
  return TpgPair{kGenericSeedLeft,
                 independent ? kGenericSeedRight : kGenericSeedLeft, false,
                 false};
}

TpgPair TpgPair::chip(const BistEmbedding& e, int width) {
  return TpgPair{chip_seed(e.tpg_left, width), chip_seed(e.tpg_right, width),
                 e.left_via.has_value(), e.right_via.has_value()};
}

Stimulus::Stimulus(const TpgPair& tpgs, int patterns, int width_bits)
    : width(width_bits) {
  Lfsr left(width, tpgs.left);
  Lfsr right(width, tpgs.right);
  std::uint32_t left_before = 0;
  std::uint32_t right_before = 0;
  const int clocks = period_capped(patterns, width);
  for (int p = 0; p < clocks; ++p) {
    a.push_back(tpgs.left_delayed ? left_before : left.state());
    b.push_back(tpgs.right_delayed ? right_before : right.state());
    left_before = left.state();
    right_before = right.state();
    left.step();
    right.step();
  }
}

PackedBlock pack_block(std::span<const std::uint32_t> a,
                       std::span<const std::uint32_t> b, int width) {
  LBIST_CHECK(a.size() <= 64 && b.size() == a.size(),
              "pack_block takes up to 64 operand pairs");
  PackedBlock blk;
  blk.clocks = static_cast<int>(a.size());
  blk.a.assign(static_cast<std::size_t>(width), 0);
  blk.b.assign(static_cast<std::size_t>(width), 0);
  for (int p = 0; p < blk.clocks; ++p) {
    const auto clock = static_cast<std::size_t>(p);
    for (int bit = 0; bit < width; ++bit) {
      const auto i = static_cast<std::size_t>(bit);
      blk.a[i] |= std::uint64_t{(a[clock] >> bit) & 1u} << p;
      blk.b[i] |= std::uint64_t{(b[clock] >> bit) & 1u} << p;
    }
  }
  return blk;
}

std::vector<PackedBlock> Stimulus::packed() const {
  std::vector<PackedBlock> blocks;
  for (std::size_t done = 0; done < a.size(); done += 64) {
    const std::size_t n = std::min<std::size_t>(64, a.size() - done);
    blocks.push_back(pack_block(std::span(a).subspan(done, n),
                                std::span(b).subspan(done, n), width));
  }
  return blocks;
}

std::uint32_t packed_signature(
    const std::vector<PackedBlock>& blocks, int width,
    const std::function<std::vector<std::uint64_t>(const PackedBlock&)>&
        respond) {
  Misr sa(width);
  for (const PackedBlock& blk : blocks) {
    const std::vector<std::uint64_t> out = respond(blk);
    for (int p = 0; p < blk.clocks; ++p) {
      std::uint32_t word = 0;
      for (int bit = 0; bit < width; ++bit) {
        word |= static_cast<std::uint32_t>(
                    (out[static_cast<std::size_t>(bit)] >> p) & 1u)
                << bit;
      }
      sa.absorb(word);
    }
  }
  return sa.signature();
}

SessionGrade grade_faults(
    int sub_sessions, int faults,
    const std::function<std::uint32_t(int, int)>& signature) {
  SessionGrade grade;
  for (int s = 0; s < sub_sessions; ++s) {
    grade.golden.push_back(signature(s, -1));
  }
  grade.coverage.total = faults;
  for (int f = 0; f < faults; ++f) {
    bool detected = false;
    for (int s = 0; s < sub_sessions && !detected; ++s) {
      detected = signature(s, f) != grade.golden[static_cast<std::size_t>(s)];
    }
    if (detected) {
      ++grade.coverage.detected;
    } else {
      grade.undetected.push_back(f);
    }
  }
  return grade;
}

}  // namespace lbist
