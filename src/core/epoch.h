// Absolute timing of the two-phase epoch structure (§3.3, Fig. 2).
//
// epoch e:
//   [ predefined phase: P slots of (guardband + data) ]
//   [ scheduled phase:  K slots of scheduled_slot_ns, no guardbands ]
#pragma once

#include "common/config.h"
#include "common/types.h"

namespace negotiator {

class EpochTiming {
 public:
  explicit EpochTiming(const NetworkConfig& config);

  int predefined_slots() const { return predefined_slots_; }
  int scheduled_slots() const { return scheduled_slots_; }
  Nanos epoch_length() const { return epoch_length_; }
  Nanos predefined_phase_length() const { return predefined_length_; }

  Nanos epoch_start(std::int64_t epoch) const {
    return epoch * epoch_length_;
  }
  /// Slot start (guardband begins here).
  Nanos predefined_slot_start(std::int64_t epoch, int slot) const;
  /// Instant the slot's payload is fully on the wire.
  Nanos predefined_slot_data_end(std::int64_t epoch, int slot) const;
  Nanos scheduled_phase_start(std::int64_t epoch) const;
  Nanos scheduled_slot_start(std::int64_t epoch, int slot) const;
  Nanos scheduled_slot_end(std::int64_t epoch, int slot) const;

  std::int64_t epoch_containing(Nanos t) const { return t / epoch_length_; }

 private:
  int predefined_slots_;
  int scheduled_slots_;
  Nanos predefined_slot_ns_;
  Nanos scheduled_slot_ns_;
  Nanos predefined_length_;
  Nanos epoch_length_;
};

}  // namespace negotiator
