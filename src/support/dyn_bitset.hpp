#pragma once
// Fixed-capacity dynamic bitset over 64-bit words.  Used for adjacency rows
// of conflict/compatibility graphs, module variable sets and sharing masks.
// Designs now reach 10k-100k operations, so every operation that
// used to walk bits walks words: membership iteration uses countr_zero,
// and the combined count/intersection queries (count_and_not,
// intersect_count) exist so hot paths never materialize a merged set.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbist {

/// A set of small integers [0, size) with constant-time membership and
/// word-parallel intersection queries.
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Words backing the set (the last word's unused high bits are zero).
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }

  void set(std::size_t i) { words_[i / 64] |= (std::uint64_t{1} << (i % 64)); }
  void reset(std::size_t i) {
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  /// Clears every bit without changing capacity.
  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  [[nodiscard]] bool any() const {
    for (auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// |this ∩ other| without materializing the intersection.
  [[nodiscard]] std::size_t intersect_count(const DynBitset& other) const {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      c += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
    }
    return c;
  }

  /// |this \ other| without materializing the difference.  This is the ΔSD
  /// kernel: SD(R ∪ {v}) - SD(R) = |mask(v) \ share_mask(R)|.
  [[nodiscard]] std::size_t count_and_not(const DynBitset& other) const {
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t ow = i < other.words_.size() ? other.words_[i] : 0;
      c += static_cast<std::size_t>(std::popcount(words_[i] & ~ow));
    }
    return c;
  }

  DynBitset& operator|=(const DynBitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
    return *this;
  }

  DynBitset& operator&=(const DynBitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
    return *this;
  }

  friend bool operator==(const DynBitset&, const DynBitset&) = default;

  /// Calls `f(i)` for every member in increasing order (word-parallel).
  template <typename F>
  void for_each_set_bit(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Members in increasing order.
  [[nodiscard]] std::vector<std::size_t> members() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for_each_set_bit([&](std::size_t i) { out.push_back(i); });
    return out;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lbist
