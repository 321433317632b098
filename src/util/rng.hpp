// Deterministic, seedable pseudo-random number generation.
//
// The asynchronous-schedule property tests and the random intruder models
// need reproducible randomness that is stable across platforms and standard
// library versions (std::mt19937 streams are portable, but distributions
// are not). We therefore ship splitmix64 for seeding and xoshiro256** as
// the workhorse generator, with explicit, portable bounded-int and
// unit-double helpers.

#pragma once

#include <cstdint>
#include <utility>

namespace hcs {

/// splitmix64: tiny generator used to expand a single 64-bit seed into the
/// state of larger generators. (Sebastiano Vigna, public domain algorithm.)
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG. Satisfies the
/// UniformRandomBitGenerator requirements so it can also feed <random>
/// machinery when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  /// Next raw 64 bits.
  std::uint64_t next();

  /// Uniform integer in [0, bound), bound >= 1. Uses Lemire's multiply-shift
  /// rejection method: unbiased and portable.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    const auto n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// A new generator with an independent stream derived from this one.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace hcs
