// Unit tests for the LFSR / MISR / CBILBO register models.

#include <gtest/gtest.h>

#include <set>

#include "support/check.hpp"
#include "support/lfsr.hpp"

namespace lbist {
namespace {

class LfsrWidths : public ::testing::TestWithParam<int> {};

TEST_P(LfsrWidths, MaximalPeriod) {
  const int w = GetParam();
  Lfsr lfsr(w, 1);
  const std::uint64_t period = lfsr.period();
  std::uint64_t count = 0;
  do {
    lfsr.step();
    ++count;
  } while (lfsr.state() != 1 && count <= period);
  EXPECT_EQ(count, period) << "width " << w;
}

TEST_P(LfsrWidths, VisitsEveryNonZeroState) {
  const int w = GetParam();
  if (w > 12) GTEST_SKIP() << "exhaustive check kept to small widths";
  Lfsr lfsr(w, 1);
  std::set<std::uint32_t> seen;
  for (std::uint64_t i = 0; i < lfsr.period(); ++i) {
    seen.insert(lfsr.state());
    lfsr.step();
  }
  EXPECT_EQ(seen.size(), lfsr.period());
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(LfsrSeed, RejectsAllZeroSeed) {
  // The all-zero state is the lock-up state: a TPG seeded with it would
  // generate constant zero patterns forever, wedging the self-test.
  EXPECT_THROW(Lfsr(4, 0), Error);
  EXPECT_THROW(Lfsr(32, 0), Error);
}

TEST(LfsrSeed, RejectsSeedThatMasksToZero) {
  // Non-zero seed whose low `width` bits are zero is just as dead.
  EXPECT_THROW(Lfsr(4, 0xF0), Error);
  EXPECT_THROW(Lfsr(8, 0x100), Error);
  // ...while any seed with a low bit set is fine.
  EXPECT_NO_THROW(Lfsr(4, 0xF1));
}

TEST(LfsrSeed, CbilboRejectsZeroGeneratorSeed) {
  EXPECT_THROW(Cbilbo(8, 0), Error);
  EXPECT_NO_THROW(Cbilbo(8, 1));  // zero signature seed is fine (MISR)
}

INSTANTIATE_TEST_SUITE_P(SmallWidths, LfsrWidths,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12, 16));

TEST(Lfsr, ZeroSeedRejected) {
  EXPECT_THROW(Lfsr(8, 0), Error);
}

TEST(Lfsr, UnsupportedWidthRejected) {
  EXPECT_THROW((void)primitive_taps(1), Error);
  EXPECT_THROW((void)primitive_taps(33), Error);
  // Rejected before any shift by the width.
  for (int width : {-7, 0, 1, 33, 40}) {
    EXPECT_THROW((void)lfsr_mask(width), Error) << width;
    EXPECT_THROW(Lfsr(width, 1), Error) << width;
    EXPECT_THROW((void)Misr(width), Error) << width;
  }
  EXPECT_EQ(lfsr_mask(2), 0x3u);
  EXPECT_EQ(lfsr_mask(32), 0xFFFFFFFFu);
}

TEST(Lfsr, DeterministicSequence) {
  Lfsr a(8, 0x5), b(8, 0x5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.step(), b.step());
  }
}

TEST(Lfsr, DifferentSeedsDecorrelate) {
  Lfsr a(8, 0x5), b(8, 0x13);
  int equal = 0;
  for (int i = 0; i < 255; ++i) {
    if (a.step() == b.step()) ++equal;
  }
  // Same maximal sequence, different phase: a few coincidences at most.
  EXPECT_LT(equal, 16);
}

TEST(Misr, SignatureDependsOnEveryWord) {
  Misr a(8), b(8);
  for (int i = 0; i < 10; ++i) {
    a.absorb(static_cast<std::uint32_t>(i));
    b.absorb(static_cast<std::uint32_t>(i == 5 ? 99 : i));
  }
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SignatureDependsOnOrder) {
  Misr a(8), b(8);
  a.absorb(1);
  a.absorb(2);
  b.absorb(2);
  b.absorb(1);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SingleBitErrorAlwaysDetectedInShortRun) {
  // With run length << period, a single corrupted word always changes the
  // signature (no aliasing window).
  for (int bit = 0; bit < 8; ++bit) {
    Misr good(8), bad(8);
    for (int i = 0; i < 20; ++i) {
      const auto w = static_cast<std::uint32_t>(3 * i + 1);
      good.absorb(w);
      bad.absorb(i == 10 ? (w ^ (1u << bit)) : w);
    }
    EXPECT_NE(good.signature(), bad.signature()) << "bit " << bit;
  }
}

TEST(Cbilbo, GeneratesAndCompactsConcurrently) {
  Cbilbo reg(8, 0x5);
  Lfsr ref_gen(8, 0x5);
  Misr ref_sig(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(reg.pattern(), ref_gen.state());
    const std::uint32_t response = reg.pattern() ^ 0xA5u;
    reg.step(response);
    ref_sig.absorb(response);
    ref_gen.step();
  }
  EXPECT_EQ(reg.signature(), ref_sig.signature());
}

}  // namespace
}  // namespace lbist
