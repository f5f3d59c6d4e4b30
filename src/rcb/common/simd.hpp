// Runtime SIMD dispatch for the engine hot paths.
//
// Policy: every vectorized kernel in the library (geometric-skip sampling,
// slot-group boundary scans, history materialization) has a scalar
// implementation that is the semantic reference, and an AVX2 implementation
// that is bit-identical to it — same outputs, same RNG stream consumption —
// so simulation digests never depend on the host's ISA.  The wide path is
// therefore purely a throughput knob:
//
//   * compiled in whenever the compiler supports per-function target
//     attributes on x86-64 (GCC/Clang), independent of -march flags;
//   * selected at runtime only when the CPU reports AVX2+FMA;
//   * enabled by default only in RCB_NATIVE builds (the `perf` preset).
//     Portable builds default to scalar; set RCB_SIMD=avx2 / RCB_SIMD=scalar
//     in the environment to override either default (tests use the
//     programmatic override to compare both paths in one process).
#pragma once

namespace rcb::simd {

enum class Mode {
  kScalar,  ///< reference implementations only
  kAvx2,    ///< AVX2+FMA kernels where available (bit-identical to scalar)
};

/// True when this binary contains AVX2 kernels and the CPU can run them.
bool avx2_available();

/// The mode kernels dispatch on: the build/env default, unless overridden.
Mode active_mode();

/// Programmatic override (tests compare scalar vs AVX2 in one process).
/// kAvx2 requires avx2_available().  Returns the previous override state.
/// No program calls it (they use RCB_SIMD): it stays for the scalar-vs-AVX2
/// pins of sampling_simd_test and the engine tests.
void set_mode(Mode mode);

/// Restores the build/env default resolution.  Test-only, as set_mode.
void clear_mode_override();

}  // namespace rcb::simd
