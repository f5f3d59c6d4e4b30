#include "rcb/rng/rng.hpp"

#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {
namespace {

constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ull;

std::uint64_t rotr(std::uint64_t x, int k) {
  return (x >> k) | (x << (64 - k));
}

}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += kGoldenGamma;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
  // xoshiro must not start in the all-zero state; splitmix64 cannot emit
  // four consecutive zeros, so this is a belt-and-braces check only.
  RCB_ASSERT(s_[0] | s_[1] | s_[2] | s_[3]);
}

Rng Rng::stream(std::uint64_t master_seed, std::uint64_t stream_id) {
  return Rng(master_seed + kGoldenGamma * (stream_id + 1));
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  RCB_REQUIRE(bound > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double_open() {
  return 1.0 - uniform_double();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

double Rng::exponential() {
  return -std::log(uniform_double_open());
}

void Rng::rewind(std::uint64_t draws) {
  // The next_u64 state transition is linear over GF(2):
  //   t  = a1 << 17
  //   b2 = a2 ^ a0 ^ t,  b3 = rotl(a3 ^ a1, 45),
  //   b1 = a1 ^ a2 ^ a0, b0 = a0 ^ a3 ^ a1.
  // Solving for (a0..a3): note b1 ^ b2 = a1 ^ (a1 << 17); the shift-by-17
  // map L is nilpotent (L^4 = 0), so (I ^ L)^-1 = I ^ L ^ L^2 ^ L^3.
  while (draws-- > 0) {
    const std::uint64_t b0 = s_[0], b1 = s_[1], b2 = s_[2], b3 = s_[3];
    const std::uint64_t x3 = rotr(b3, 45);  // a3 ^ a1
    const std::uint64_t c = b1 ^ b2;        // a1 ^ (a1 << 17)
    const std::uint64_t a1 = c ^ (c << 17) ^ (c << 34) ^ (c << 51);
    const std::uint64_t x2 = b1 ^ a1;  // a2 ^ a0
    const std::uint64_t a0 = b0 ^ x3;
    s_[0] = a0;
    s_[1] = a1;
    s_[2] = x2 ^ a0;
    s_[3] = x3 ^ a1;
  }
}

}  // namespace rcb
