#include "core/control_channel.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

ControlChannel::ControlChannel(const ControlFaultConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  NEG_ASSERT(config_.enabled, "channel constructed with the model disabled");
  NEG_ASSERT(config_.max_delay_epochs >= 1, "max_delay_epochs must be >= 1");
  effective_drop_[0] = config_.request_drop;
  effective_drop_[1] = config_.grant_drop;
  effective_drop_[2] = config_.accept_drop;
}

void ControlChannel::begin_epoch(Nanos now) {
  double floor = 0.0;
  for (const Brownout& b : brownouts_) {
    if (now >= b.start && now < b.end) floor = std::max(floor, b.drop_floor);
  }
  brownout_floor_ = floor;
  effective_drop_[0] = std::min(1.0, std::max(config_.request_drop, floor));
  effective_drop_[1] = std::min(1.0, std::max(config_.grant_drop, floor));
  effective_drop_[2] = std::min(1.0, std::max(config_.accept_drop, floor));
}

ControlChannel::Fate ControlChannel::classify(ControlClass cls) {
  ++classified_;
  Fate fate;
  // Draw order is part of the determinism contract (see header).
  if (rng_.next_double() < effective_drop_[static_cast<int>(cls)]) {
    ++dropped_;
    fate.deliver = false;
    return fate;
  }
  if (config_.delay_prob > 0.0 && rng_.next_double() < config_.delay_prob) {
    fate.delay_epochs =
        config_.max_delay_epochs > 1
            ? 1 + static_cast<int>(rng_.next_below(config_.max_delay_epochs))
            : 1;
    ++delayed_;
    return fate;
  }
  if (config_.duplicate_prob > 0.0 &&
      rng_.next_double() < config_.duplicate_prob) {
    fate.duplicate = true;
    ++duplicated_;
  }
  return fate;
}

void ControlChannel::add_brownout(Nanos start, Nanos end, double drop_floor) {
  NEG_ASSERT(end > start, "brownout window must be non-empty");
  NEG_ASSERT(drop_floor >= 0.0 && drop_floor <= 1.0,
             "brownout drop floor must be in [0, 1]");
  brownouts_.push_back(Brownout{start, end, drop_floor});
}

}  // namespace negotiator
