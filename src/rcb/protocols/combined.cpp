#include "rcb/protocols/combined.hpp"

namespace rcb {

OneToOneResult run_combined(const CombinedParams& params,
                            DuelAdversary& adversary, Rng& rng,
                            FaultPlan* faults) {
  if (faults != nullptr && !faults->active()) faults = nullptr;
  OneToOneResult result;
  OneToOneStepper fig1(params.fig1);
  KsyStepper ksy(params.ksy);

  // A party halts overall as soon as either stream halts it; once Bob is
  // informed through either stream he stops listening in both.
  const auto alice_running = [&] {
    return fig1.alice_running && ksy.alice_running;
  };
  const auto bob_running = [&] {
    return !result.delivered && fig1.bob_running && ksy.bob_running;
  };
  // The run ends when no party runs, on the timeout, or once both streams
  // are past their caps.
  while ((alice_running() || bob_running()) &&
         !(fig1.exhausted() && ksy.exhausted())) {
    if (params.timeout_slots > 0 && result.latency >= params.timeout_slots) {
      result.aborted = true;
      break;
    }
    fig1.alice_running = ksy.alice_running = alice_running();
    fig1.bob_running = ksy.bob_running = bob_running();

    // A stream whose next epoch is past its cap sits out; it halts no one.
    if (!fig1.exhausted()) {
      result.final_epoch = fig1.epoch;
      fig1.step(adversary, rng, result, faults);
    }
    // Bob may have been informed by the Fig.1 step; silence him in KSY.
    if (result.delivered) ksy.bob_running = false;
    if (!ksy.exhausted()) ksy.step(adversary, rng, result, faults);
  }
  finish_duel(result, alice_running(), bob_running());
  return result;
}

}  // namespace rcb
