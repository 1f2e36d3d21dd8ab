// Seeded data-plane fault model: per-hop-class drop / corruption for
// chunk transmissions, plus loss windows driven by fault scenarios
// (engine/fault_scenario.h).
//
// Placement: the channel sits on every physical chunk transmission in
// both fabrics — first-hop direct deliveries (predefined piggyback,
// scheduled direct, fallback/rotor direct, ARQ retransmissions), the
// first VLB leg towards an intermediate (relay), and the second VLB leg
// from the intermediate to the destination. Each classify() call burns
// draws from the channel's *own* Rng stream, constructed from the run
// seed via make_salted_stream(seed, kDataChannelSeedSalt) — never
// rng.fork(), which would advance the fabric's parent stream and shift
// every golden. With the model disabled the channel is never
// constructed, so zero draws happen and all golden fingerprints are
// byte-identical to a channel-free build.
//
// Draw-order contract (pinned by tests/test_seed_equivalence.cpp's
// data-loss goldens): per classified chunk, in this exact order —
//   1. one drop draw, always (compared against the hop class's effective
//      drop probability: max(per-class base, active loss-window floor));
//   2. if not dropped and corrupt_prob > 0: one corruption draw. A
//      corrupted chunk is discarded by the receiver's checksum — same
//      fate as a drop, counted separately.
//
// Loss windows model a data-plane outage correlated with storms and
// control brownouts: during [start, end) the effective drop probability
// of every hop class is raised to at least the window's floor. The level
// is sampled by begin_epoch() — once per epoch (negotiator) or once per
// rotor slot (oblivious, where slots are the natural cadence).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"

namespace negotiator {

/// Salt mixed into NetworkConfig::seed for the channel's private stream.
inline constexpr std::uint64_t kDataChannelSeedSalt = 0xda7a0b10550000ULL;

enum class DataHopClass : int {
  kFirstHop = 0,   ///< source ToR -> destination ToR (direct, incl. retx)
  kRelay = 1,      ///< source ToR -> intermediate (VLB leg 1)
  kSecondHop = 2,  ///< intermediate -> destination ToR (VLB leg 2)
};

class DataChannel {
 public:
  DataChannel(const DataFaultConfig& config, Rng rng);

  DataChannel(const DataChannel&) = delete;
  DataChannel& operator=(const DataChannel&) = delete;

  /// Outcome of one classified chunk transmission.
  struct Fate {
    bool deliver{true};     ///< the chunk arrives intact
    bool corrupted{false};  ///< discarded by the receiver checksum
  };

  /// Samples the active loss-window level for the epoch (or rotor slot)
  /// starting at `now`. Call before any classify() of that epoch/slot.
  void begin_epoch(Nanos now);

  /// Draws the fate of one chunk transmission carrying `bytes` (see the
  /// draw-order contract above). Byte totals feed the conservation
  /// auditor's ledger.
  Fate classify(DataHopClass cls, Bytes bytes);

  /// Registers a loss window [start, end) with an absolute drop floor
  /// applied to every hop class while active. Windows may overlap; the
  /// highest floor wins.
  void add_loss_window(Nanos start, Nanos end, double drop_floor);

  std::int64_t dropped() const { return dropped_; }
  std::int64_t corrupted() const { return corrupted_; }
  std::int64_t classified() const { return classified_; }
  Bytes dropped_bytes() const { return dropped_bytes_; }
  Bytes corrupted_bytes() const { return corrupted_bytes_; }
  /// Drop floor in force for the current epoch (0 outside loss windows).
  double loss_floor() const { return loss_floor_; }
  bool arq_enabled() const { return config_.arq; }

 private:
  struct LossWindow {
    Nanos start;
    Nanos end;
    double drop_floor;
  };

  DataFaultConfig config_;
  Rng rng_;
  std::vector<LossWindow> windows_;
  double loss_floor_{0.0};
  // Effective per-hop-class drop for the current epoch, indexed by
  // DataHopClass: max(base class drop, window floor), clamped to [0, 1].
  double effective_drop_[3];
  std::int64_t dropped_{0};
  std::int64_t corrupted_{0};
  std::int64_t classified_{0};
  Bytes dropped_bytes_{0};
  Bytes corrupted_bytes_{0};
};

}  // namespace negotiator
