#include "rcb/rng/sampling.hpp"

#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {

BernoulliSlotSampler::BernoulliSlotSampler(SlotCount num_slots, double p,
                                           Rng& rng)
    : num_slots_(num_slots), p_(p), rng_(&rng) {
  RCB_REQUIRE(p >= 0.0 && p <= 1.0);
  inv_log1mp_ = (p > 0.0 && p < 1.0) ? 1.0 / std::log1p(-p) : 0.0;
}

SlotIndex BernoulliSlotSampler::next() {
  if (p_ <= 0.0 || cursor_ >= num_slots_) return kEnd;
  if (p_ >= 1.0) return cursor_++;
  // Gap to the next success is 1 + floor(log(U)/log(1-p)), U in (0,1].
  const double u = rng_->uniform_double_open();
  const double skip = std::floor(std::log(u) * inv_log1mp_);
  // skip can be enormous (or inf) when u is tiny and p is small; saturate.
  if (skip >= static_cast<double>(num_slots_ - cursor_)) {
    cursor_ = num_slots_;
    return kEnd;
  }
  cursor_ += static_cast<SlotIndex>(skip);
  if (cursor_ >= num_slots_) return kEnd;
  return cursor_++;
}

void sample_bernoulli_slots(SlotCount num_slots, double p, Rng& rng,
                            std::vector<SlotIndex>& out) {
  out.clear();
  for_each_bernoulli_slot(num_slots, p, rng, detail::skip_block_fn(),
                          [&](SlotIndex s) { out.push_back(s); });
}

}  // namespace rcb
