// The combined 1-to-1 algorithm of the Theorem 1 discussion.
//
// "By combining both algorithms one can achieve expected cost
//  O(min{ sqrt(T log(1/eps)) + log(1/eps), T^(phi-1) + 1 })" — i.e. with no
// dependence on eps when T = 0.
//
// The combination time-multiplexes the two protocols: epochs of Figure 1
// and of the KSY baseline are interleaved (Fig.1 send phase, Fig.1 nack
// phase, KSY phase, repeat with the next epoch index of whichever protocol
// is still running).  Bob halts as soon as *either* stream delivers m;
// Alice halts when either stream's halting rule fires.  Each stream's
// per-epoch cost envelope is what Theorem 1 / KSY'11 prescribe, so the
// total is at most twice the cheaper of the two — the min, asymptotically.
//
// Against a spoofing adversary the Fig.1 stream can be strung along
// forever, but the KSY stream still terminates, and with it the combined
// protocol: Alice stops servicing the Fig.1 stream once KSY has halted her.
//
// run_combined only interleaves a OneToOneStepper and a KsyStepper; each
// protocol's epoch body lives in its own file.  Each round it merges the
// streams' halts, runs one Fig.1 epoch, hands a Bob informed there to KSY,
// then runs one KSY epoch.  A stream whose next epoch is past its cap sits
// out and halts no one; the run ends when no party runs, on the timeout,
// or once both streams are past their caps.  Alice halted by Fig.1 reaches
// KSY only in the next round (docs/protocols.md §combined).
#pragma once

#include "rcb/adversary/two_uniform.hpp"
#include "rcb/protocols/ksy.hpp"
#include "rcb/protocols/one_to_one.hpp"

namespace rcb {

struct CombinedParams {
  OneToOneParams fig1 = OneToOneParams::sim(0.01);
  KsyParams ksy;
  /// Wall-clock abort across both streams (0 disables); see
  /// OneToOneParams::timeout_slots.
  SlotCount timeout_slots = 0;
};

/// Runs the interleaved combination; reuses OneToOneResult.  final_epoch
/// is the last Fig.1 epoch that ran, and hit_epoch_cap is Fig.1's rule: the
/// run ended without an abort while a party still ran.  `faults` (optional)
/// applies the channel faults of sim/faults.hpp to every phase of both
/// streams.
OneToOneResult run_combined(const CombinedParams& params,
                            DuelAdversary& adversary, Rng& rng,
                            FaultPlan* faults = nullptr);

}  // namespace rcb
