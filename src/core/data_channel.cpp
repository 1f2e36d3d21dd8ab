#include "core/data_channel.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

DataChannel::DataChannel(const DataFaultConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  NEG_ASSERT(config_.enabled, "channel constructed with the model disabled");
  effective_drop_[0] = config_.first_hop_drop;
  effective_drop_[1] = config_.relay_drop;
  effective_drop_[2] = config_.second_hop_drop;
}

void DataChannel::begin_epoch(Nanos now) {
  double floor = 0.0;
  for (const LossWindow& w : windows_) {
    if (now >= w.start && now < w.end) floor = std::max(floor, w.drop_floor);
  }
  loss_floor_ = floor;
  effective_drop_[0] = std::min(1.0, std::max(config_.first_hop_drop, floor));
  effective_drop_[1] = std::min(1.0, std::max(config_.relay_drop, floor));
  effective_drop_[2] =
      std::min(1.0, std::max(config_.second_hop_drop, floor));
}

DataChannel::Fate DataChannel::classify(DataHopClass cls, Bytes bytes) {
  ++classified_;
  Fate fate;
  // Draw order is part of the determinism contract (see header).
  if (rng_.next_double() < effective_drop_[static_cast<int>(cls)]) {
    ++dropped_;
    dropped_bytes_ += bytes;
    fate.deliver = false;
    return fate;
  }
  if (config_.corrupt_prob > 0.0 &&
      rng_.next_double() < config_.corrupt_prob) {
    ++corrupted_;
    corrupted_bytes_ += bytes;
    fate.deliver = false;
    fate.corrupted = true;
  }
  return fate;
}

void DataChannel::add_loss_window(Nanos start, Nanos end, double drop_floor) {
  NEG_ASSERT(end > start, "loss window must be non-empty");
  NEG_ASSERT(drop_floor >= 0.0 && drop_floor <= 1.0,
             "loss-window drop floor must be in [0, 1]");
  windows_.push_back(LossWindow{start, end, drop_floor});
}

}  // namespace negotiator
