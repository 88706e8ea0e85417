#pragma once
// Linear-feedback shift registers and multiple-input signature registers —
// the circuit-level substance behind the TPG / SA / BILBO / CBILBO register
// modes.  Used by the BIST fault simulator to validate that the allocated
// test plans actually detect faults (the paper takes this machinery, the
// USC BITS back end, as given; we build it).
//
// Widths 2..32 bits are supported with primitive characteristic polynomials
// (maximal-length sequences).

#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace lbist {

/// Mask of the low `width` bits of a register.  Throws lbist::Error for a
/// width outside 2..32, before any shift by it.
[[nodiscard]] std::uint32_t lfsr_mask(int width);

/// Primitive polynomial tap mask for an n-bit LFSR (bit i set = x^(i+1)
/// term present; the x^0 term is implicit).  Throws for unsupported widths.
[[nodiscard]] std::uint32_t primitive_taps(int width);

/// Fibonacci LFSR generating a maximal-length pseudo-random sequence.
/// This is the TPG mode of a BILBO register.
class Lfsr {
 public:
  /// `seed` must be non-zero in the low `width` bits: an all-zero state is
  /// the lock-up state of a maximal-length LFSR (it never leaves it, so a
  /// TPG seeded with it would emit constant zero patterns forever).
  /// Throws lbist::Error on an all-zero effective seed.
  Lfsr(int width, std::uint32_t seed);

  /// Current parallel output (the register contents).
  [[nodiscard]] std::uint32_t state() const { return state_; }

  /// Advances one clock; returns the new state.
  std::uint32_t step();

  [[nodiscard]] int width() const { return width_; }
  /// Sequence period = 2^width - 1 for primitive polynomials.
  [[nodiscard]] std::uint64_t period() const {
    return (std::uint64_t{1} << width_) - 1;
  }

 private:
  int width_;
  std::uint32_t mask_;
  std::uint32_t taps_;
  std::uint32_t state_;
};

/// Multiple-input signature register (parallel-input LFSR compactor) —
/// the SA mode of a BILBO register.
class Misr {
 public:
  explicit Misr(int width, std::uint32_t seed = 0);

  /// Compacts one response word into the signature.
  void absorb(std::uint32_t word);

  [[nodiscard]] std::uint32_t signature() const { return state_; }
  [[nodiscard]] int width() const { return width_; }

 private:
  int width_;
  std::uint32_t mask_;
  std::uint32_t taps_;
  std::uint32_t state_;
};

/// A concurrent BILBO register: generates patterns *and* compacts responses
/// in the same clock (two register halves, Wang/McCluskey) — the reason its
/// area is about twice a plain register.
class Cbilbo {
 public:
  Cbilbo(int width, std::uint32_t gen_seed, std::uint32_t sig_seed = 0)
      : gen_(width, gen_seed), sig_(width, sig_seed) {}

  /// Pattern currently driven into the circuit under test.
  [[nodiscard]] std::uint32_t pattern() const { return gen_.state(); }
  /// Clocks both halves: emits the next pattern and compacts `response`.
  void step(std::uint32_t response) {
    sig_.absorb(response);
    gen_.step();
  }
  [[nodiscard]] std::uint32_t signature() const { return sig_.signature(); }

 private:
  Lfsr gen_;
  Misr sig_;
};

}  // namespace lbist
