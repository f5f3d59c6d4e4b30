// Deterministic pseudo-random generation for reproducible experiments.
//
// All stochastic behaviour in the library flows through Rng.  The generator
// is xoshiro256** seeded via splitmix64, following the reference
// constructions of Blackman & Vigna.  Streams are split deterministically so
// that parallel Monte-Carlo trials are reproducible independent of thread
// scheduling: stream k of master seed s is seeded from
// splitmix64(s + golden-gamma * (k+1)).
//
// The standard <random> engines are deliberately not used: their
// distributions are implementation-defined, which would make test
// expectations and recorded experiment output non-portable.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace rcb {

/// splitmix64 step: returns the next output and advances the state.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256** PRNG with utility draws used by the simulator.
class Rng {
 public:
  /// Seeds the generator from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0xC0FFEE123456789ull);

  /// Deterministically derives an independent stream (e.g. per Monte-Carlo
  /// trial or per node).  Streams with distinct ids never share state.
  static Rng stream(std::uint64_t master_seed, std::uint64_t stream_id);

  /// Next raw 64-bit output.  Inline: the hot draw loops (adversary mask
  /// kernels, samplers) keep the state in registers instead of spilling it
  /// around an out-of-line call.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire rejection.
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform_double();

  /// Uniform double in (0, 1] — safe as an argument to log().
  double uniform_double_open();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Integer form of bernoulli(p) for loops that draw many trials with one
  /// p: bernoulli_below(bernoulli_threshold(p)) has the same outcome as
  /// bernoulli(p), and for p in (0, 1) it is also draw-for-draw identical —
  /// uniform_double() < p is (next_u64() >> 11) * 2^-53 < p, and scaling
  /// both sides by 2^53 is exact, so it holds iff the 53-bit integer is
  /// below ceil(p * 2^53).  For p <= 0 the threshold is 0 and for p >= 1 it
  /// is 2^53; unlike bernoulli() those still consume a draw, so callers
  /// that must not draw there short-circuit them.
  static std::uint64_t bernoulli_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// One Bernoulli draw against a bernoulli_threshold() value: 1 iff the
  /// 53-bit draw is below `threshold`, else 0.  Computed as the borrow of
  /// the subtraction (both sides are below 2^54), so mask kernels can
  /// shift and add the result without a compare-and-set per draw.
  std::uint64_t bernoulli_below(std::uint64_t threshold) {
    return ((next_u64() >> 11) - threshold) >> 63;
  }

  /// Standard exponential variate (rate 1).
  double exponential();

  /// Steps the state backwards by `draws` calls to next_u64().  The
  /// xoshiro256** transition is linear over GF(2) and therefore invertible;
  /// this lets block-speculative consumers (the SIMD geometric-skip sampler)
  /// draw a fixed-width batch and return the unused tail to the stream, so
  /// the observable draw sequence stays identical to one-at-a-time use.
  void rewind(std::uint64_t draws = 1);

  /// Snapshot of the internal state, for tests.
  std::array<std::uint64_t, 4> state() const { return s_; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace rcb
