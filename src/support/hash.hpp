#pragma once
// Stable content hashing shared across layers: the synthesis cache tags
// keys with it, the disk cache stamps every on-disk record with it, and
// logs/reports use it as a short fingerprint.  FNV-1a is deliberately
// simple — keys are compared by full string everywhere, so the hash only
// needs to be stable across platforms and runs, never collision-proof.
// Also here: splitmix64, the deterministic stream the metrics reservoir,
// the reseed probe phase and the evolved-seed GA draw from.

#include <cstdint>
#include <string_view>

namespace lbist {

/// 64-bit FNV-1a content hash (stable across platforms and runs).
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64: advances `state` and returns the next 64-bit draw.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace lbist
