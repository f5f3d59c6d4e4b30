// Small math helpers used throughout the protocols and analysis code.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "rcb/common/contracts.hpp"

namespace rcb {

/// The golden ratio phi = (1 + sqrt 5)/2; Theorem 5's exponent is phi - 1.
inline constexpr double kGoldenRatio = 1.6180339887498948482;

/// floor(log2(x)) for x >= 1.
inline std::uint32_t floor_log2(std::uint64_t x) {
  RCB_REQUIRE(x >= 1);
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x >= 1.
inline std::uint32_t ceil_log2(std::uint64_t x) {
  RCB_REQUIRE(x >= 1);
  const std::uint32_t f = floor_log2(x);
  return (std::uint64_t{1} << f) == x ? f : f + 1;
}

/// 2^i as a 64-bit count; i must be < 64.
inline std::uint64_t pow2(std::uint32_t i) {
  RCB_REQUIRE(i < 64);
  return std::uint64_t{1} << i;
}

/// Number of set bits, branch-free.  std::popcount compiles to a libgcc
/// __popcountdi2 call unless the build targets a CPU with POPCNT (the
/// portable build does not); this SWAR form stays inline everywhere and
/// becomes the POPCNT instruction when the target has one.
inline std::uint32_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Clamp a computed probability into [0, 1].  The paper's per-slot
/// probabilities (e.g. S_u * d * i^3 / 2^i) exceed 1 in early epochs for
/// simulation-scale parameters; clamping corresponds to the node simply
/// acting every slot.
inline double clamp_probability(double p) {
  if (p < 0.0) return 0.0;
  if (p > 1.0) return 1.0;
  return p;
}

/// Saturating double->uint64 conversion for slot counts.
inline std::uint64_t to_slot_count(double x) {
  if (x <= 0.0) return 0;
  if (x >= 1.8e19) return UINT64_MAX;
  return static_cast<std::uint64_t>(x);
}

/// FNV-1a 64-bit over a byte string.  Used to fingerprint scenario JSON
/// (crash-repro records, checkpoint manifests) and to frame checkpoint
/// journal records; any change to the hashed text changes the digest.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Appends the fixed-width lowercase hex encoding of a u64 (16 chars,
/// zero-padded) to `out`.  Digests travel through JSON as hex strings
/// because JSON numbers are doubles and lose u64 precision above 2^53.
inline void append_hex16(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  out.append(buf, sizeof buf);
}

/// append_hex16 into a fresh string.
inline std::string to_hex16(std::uint64_t v) {
  std::string s;
  append_hex16(s, v);
  return s;
}

/// Parses a hex string (1..16 digits, as produced by to_hex16) into a u64.
/// Returns false on empty, overlong, or non-hex input.
inline bool parse_hex_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  out = v;
  return true;
}

}  // namespace rcb
