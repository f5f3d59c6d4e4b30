// Sparse sampling of per-slot Bernoulli processes.
//
// Every protocol in the paper has each node act independently per slot with
// a small probability p (send with S_u/2^i, listen with S_u d i^3/2^i, ...).
// Simulating 2^i Bernoulli draws per node per repetition would make run time
// O(slots * nodes).  Instead we sample only the slots where the process
// *fires*, using geometric skips: if U ~ Uniform(0,1], the gap to the next
// success of a Bernoulli(p) sequence is 1 + floor(log(U) / log(1-p)).  This
// is an exact (not approximate) simulation of the per-slot process, with
// cost proportional to the node's actual energy expenditure — the same
// quantity the paper's cost model charges for.
// The bulk paths (sample_bernoulli_slots and the engines' presample loops)
// draw speculative blocks of four uniforms, compute the four geometric skips
// with a dispatched kernel (scalar reference or AVX2 — bit-identical, see
// common/simd.hpp), and rewind the RNG over unused lanes when the phase
// terminates mid-block.  The observable draw sequence and every emitted slot
// are identical to the streaming one-draw-at-a-time sampler on any host.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"

namespace rcb {

namespace detail {

/// Computes the four geometric skips floor(log(1 - (raw>>11)*2^-53) *
/// inv_log1mp) for one speculative block.  Implementations must be
/// bit-identical to the scalar reference for every input.
using SkipBlockFn = void (*)(const std::uint64_t raw[4], double inv_log1mp,
                             double out[4]);

/// Scalar reference kernel (std::log per lane).
void skip_block_scalar(const std::uint64_t raw[4], double inv_log1mp,
                       double out[4]);

/// Kernel for the current simd::active_mode().
SkipBlockFn skip_block_fn();

}  // namespace detail

/// Streaming sampler over the slots {0, 1, ..., n-1} where an independent
/// Bernoulli(p) per slot fires.  Slots are produced in increasing order.
/// No program uses it: it stays as the one-draw-at-a-time reference that
/// sampling_test and sampling_simd_test check the bulk sampler against.
class BernoulliSlotSampler {
 public:
  /// Sentinel returned by next() when the phase is exhausted.
  static constexpr SlotIndex kEnd = UINT64_MAX;

  BernoulliSlotSampler(SlotCount num_slots, double p, Rng& rng);

  /// Next firing slot, or kEnd if none remain.
  SlotIndex next();

 private:
  SlotCount num_slots_;
  double p_;
  double inv_log1mp_;  // 1 / log(1 - p); 0 when p is degenerate
  SlotIndex cursor_ = 0;
  Rng* rng_;
};

/// Bulk form of BernoulliSlotSampler: invokes `emit(slot)` for every firing
/// slot, ascending.  Draws the RNG in speculative blocks of four and rewinds
/// the unused lanes, so the stream position after return — and every emitted
/// slot — is bit-identical to draining a BernoulliSlotSampler.  `skip_block`
/// is a kernel from detail::skip_block_fn(); pass it in so per-phase callers
/// resolve the dispatch once.
template <typename Emit>
void for_each_bernoulli_slot(SlotCount num_slots, double p, Rng& rng,
                             detail::SkipBlockFn skip_block, Emit&& emit) {
  RCB_REQUIRE(p >= 0.0 && p <= 1.0);
  if (p <= 0.0 || num_slots == 0) return;
  if (p >= 1.0) {
    for (SlotIndex s = 0; s < num_slots; ++s) emit(s);
    return;
  }
  const double inv_log1mp = 1.0 / std::log1p(-p);
  std::uint64_t raw[4];
  double skips[4];
  SlotIndex cursor = 0;
  for (;;) {
    raw[0] = rng.next_u64();
    raw[1] = rng.next_u64();
    raw[2] = rng.next_u64();
    raw[3] = rng.next_u64();
    skip_block(raw, inv_log1mp, skips);
    for (int lane = 0; lane < 4; ++lane) {
      const double skip = skips[lane];
      // Same saturation logic as BernoulliSlotSampler::next(), lane by lane.
      if (skip >= static_cast<double>(num_slots - cursor)) {
        rng.rewind(static_cast<std::uint64_t>(3 - lane));
        return;
      }
      cursor += static_cast<SlotIndex>(skip);
      emit(cursor);
      ++cursor;
      if (cursor >= num_slots) {
        // Fired on the last slot: the streaming sampler returns kEnd on the
        // following call without drawing, so the lanes after this one are
        // surplus speculation.
        rng.rewind(static_cast<std::uint64_t>(3 - lane));
        return;
      }
    }
  }
}

/// Collects all firing slots of a Bernoulli(p)-per-slot process over
/// [0, num_slots) into `out` (cleared first, ascending order).
void sample_bernoulli_slots(SlotCount num_slots, double p, Rng& rng,
                            std::vector<SlotIndex>& out);

}  // namespace rcb
