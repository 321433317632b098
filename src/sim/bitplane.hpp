// Packed 64-bit bitplanes over hypercube node sets.
//
// The macro executor (sim/shard.hpp) keeps its node state --
// guarded / contaminated / visited -- as one bit per node in packed
// uint64_t words instead of a byte-per-node status array: at d = 18 one
// plane is 32 KiB (L1-resident) against a 256 KiB status vector, and whole
// Hamming levels become word-wide AND/XOR/popcount passes.
//
// The hypercube structure makes neighbourhoods pure ALU work on this
// layout. Node ids are the paper's d-bit strings, so the neighbour of v
// along dimension j is v ^ (1 << j); on the packed plane that xor is a bit
// permutation:
//
//   * j < 6  -- partners live in the same word, distance 2^j apart: one
//     masked shift pair per word (the classic butterfly masks);
//   * j >= 6 -- whole words swap with the word at index distance 2^(j-6).
//
// neighbor_plane(P, j) applies that permutation; or-ing it over all j
// gives the "has a set neighbour" plane used for word-parallel exposure
// checks and flood frontiers.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace hcs::sim {

class Bitplane {
 public:
  Bitplane() = default;
  explicit Bitplane(std::size_t bits, bool value = false)
      : bits_(bits),
        words_((bits + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }
  [[nodiscard]] std::span<std::uint64_t> words() { return words_; }

  [[nodiscard]] bool test(std::size_t i) const {
    HCS_EXPECTS(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) {
    HCS_EXPECTS(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear(std::size_t i) {
    HCS_EXPECTS(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool value) { value ? set(i) : clear(i); }

  void clear_all() { std::fill(words_.begin(), words_.end(), 0); }
  void set_all() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    trim();
  }

  /// Number of set bits, one hardware popcount per word.
  [[nodiscard]] std::uint64_t popcount() const {
    std::uint64_t n = 0;
    for (const std::uint64_t w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
  }
  [[nodiscard]] bool none() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  [[nodiscard]] bool any() const { return !none(); }

  Bitplane& operator|=(const Bitplane& o) {
    HCS_EXPECTS(bits_ == o.bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] |= o.words_[k];
    return *this;
  }
  Bitplane& operator&=(const Bitplane& o) {
    HCS_EXPECTS(bits_ == o.bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= o.words_[k];
    return *this;
  }
  Bitplane& operator^=(const Bitplane& o) {
    HCS_EXPECTS(bits_ == o.bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] ^= o.words_[k];
    return *this;
  }
  /// this &= ~o (set subtraction), the pass used to strip guarded nodes
  /// from a contamination frontier.
  Bitplane& and_not(const Bitplane& o) {
    HCS_EXPECTS(bits_ == o.bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= ~o.words_[k];
    return *this;
  }

  friend bool operator==(const Bitplane&, const Bitplane&) = default;

 private:
  /// Zeroes the bits past size() in the last word so popcount()/none()
  /// never see garbage.
  void trim() {
    if (bits_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << (bits_ % 64)) - 1;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// True iff a and b share a set bit, without materializing the AND.
[[nodiscard]] bool intersects(const Bitplane& a, const Bitplane& b);

/// out[v] = src[v ^ (1 << j)]: the plane as seen through the hypercube
/// neighbour permutation along dimension j (an involution). src must hold
/// exactly 2^d bits with j < d; out is resized to match. &out == &src is
/// allowed.
void neighbor_plane(const Bitplane& src, unsigned j, Bitplane* out);

/// out[v] = 1 iff some hypercube neighbour of v is set in src: the union
/// of neighbor_plane(src, j) over j < d. O(d) word passes.
void neighbor_union(const Bitplane& src, unsigned d, Bitplane* out);

/// The word range [word_begin, word_end) of neighbor_union(src, d),
/// written into the same range of *out (which must already have src's
/// size). Each output word depends on one word per dimension: the word
/// itself through the six butterfly masks for j < 6, and the word at
/// fixed offset 2^(j-6) for j >= 6 -- so a subcube shard that owns a
/// contiguous word range can evaluate its slice of the union with only
/// read-sharing across shard boundaries. Writes stay inside the range.
void neighbor_union_range(const Bitplane& src, unsigned d, Bitplane* out,
                          std::size_t word_begin, std::size_t word_end);

/// The Hamming-level mask of H_d: bit v set iff popcount(v) == level.
[[nodiscard]] Bitplane level_mask(unsigned d, unsigned level);

}  // namespace hcs::sim
