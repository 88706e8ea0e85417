#include "support/lfsr.hpp"

#include <bit>

namespace lbist {

std::uint32_t primitive_taps(int width) {
  // Tap masks for primitive polynomials (taps at bit positions, LSB-first;
  // classic tables, e.g. Bardell/McAnney/Savir).  Mask bit i corresponds to
  // stage i+1 feeding the XOR.
  switch (width) {
    case 2: return 0x3;          // x^2 + x + 1
    case 3: return 0x6;          // x^3 + x^2 + 1
    case 4: return 0xC;          // x^4 + x^3 + 1
    case 5: return 0x14;         // x^5 + x^3 + 1
    case 6: return 0x30;         // x^6 + x^5 + 1
    case 7: return 0x60;         // x^7 + x^6 + 1
    case 8: return 0xB8;         // x^8 + x^6 + x^5 + x^4 + 1
    case 9: return 0x110;        // x^9 + x^5 + 1
    case 10: return 0x240;       // x^10 + x^7 + 1
    case 11: return 0x500;       // x^11 + x^9 + 1
    case 12: return 0xE08;       // x^12 + x^11 + x^10 + x^4 + 1
    case 13: return 0x1C80;      // x^13 + x^12 + x^11 + x^8 + 1
    case 14: return 0x3802;      // x^14 + x^13 + x^12 + x^2 + 1
    case 15: return 0x6000;      // x^15 + x^14 + 1
    case 16: return 0xD008;      // x^16 + x^15 + x^13 + x^4 + 1
    case 17: return 0x12000;     // x^17 + x^14 + 1
    case 18: return 0x20400;     // x^18 + x^11 + 1
    case 19: return 0x72000;     // x^19 + x^18 + x^17 + x^14 + 1
    case 20: return 0x90000;     // x^20 + x^17 + 1
    case 21: return 0x140000;    // x^21 + x^19 + 1
    case 22: return 0x300000;    // x^22 + x^21 + 1
    case 23: return 0x420000;    // x^23 + x^18 + 1
    case 24: return 0xE10000;    // x^24 + x^23 + x^22 + x^17 + 1
    case 25: return 0x1200000;   // x^25 + x^22 + 1
    case 26: return 0x2000023;   // x^26 + x^6 + x^2 + x + 1
    case 27: return 0x4000013;   // x^27 + x^5 + x^2 + x + 1
    case 28: return 0x9000000;   // x^28 + x^25 + 1
    case 29: return 0x14000000;  // x^29 + x^27 + 1
    case 30: return 0x20000029;  // x^30 + x^6 + x^4 + x + 1
    case 31: return 0x48000000;  // x^31 + x^28 + 1
    case 32: return 0x80200003;  // x^32 + x^22 + x^2 + x + 1
    default:
      throw Error("no primitive polynomial tabulated for width " +
                  std::to_string(width));
  }
}

std::uint32_t lfsr_mask(int width) {
  LBIST_CHECK(width >= 2 && width <= 32,
              "LFSR width " + std::to_string(width) + " is outside 2..32");
  return width == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << width) - 1);
}

Lfsr::Lfsr(int width, std::uint32_t seed)
    : width_(width),
      mask_(lfsr_mask(width)),
      taps_(primitive_taps(width)),
      state_(seed & mask_) {
  LBIST_CHECK(state_ != 0,
              "LFSR seed must be non-zero in the low " +
                  std::to_string(width) +
                  " bits (the all-zero state locks up the sequence)");
}

std::uint32_t Lfsr::step() {
  // Fibonacci form: feedback bit = parity of tapped stages, shifted in.
  const std::uint32_t fb =
      static_cast<std::uint32_t>(std::popcount(state_ & taps_) & 1);
  state_ = ((state_ << 1) | fb) & mask_;
  return state_;
}

Misr::Misr(int width, std::uint32_t seed)
    : width_(width),
      mask_(lfsr_mask(width)),
      taps_(primitive_taps(width)),
      state_(seed & mask_) {}

void Misr::absorb(std::uint32_t word) {
  const std::uint32_t fb =
      static_cast<std::uint32_t>(std::popcount(state_ & taps_) & 1);
  state_ = (((state_ << 1) | fb) ^ word) & mask_;
}

}  // namespace lbist
