// Seeded control-plane fault model: per-message-class drop / delay /
// duplication for the REQUEST / GRANT / ACCEPT exchange, plus brownout
// windows driven by fault scenarios (engine/fault_scenario.h).
//
// Placement: the channel sits on the predefined-phase exchange point —
// NegotiatorScheduler::deliver_pair (and the iterative variant's in-epoch
// staging) consults classify() once per message per physical transmission.
// Each classify() call burns draws from the channel's *own* Rng stream,
// constructed from the run seed independently of the fabric's fork chain
// (Rng(seed ^ kControlChannelSeedSalt), never rng.fork() — a fork would
// advance the scheduler's parent stream and shift every golden). With the
// model disabled the channel is never constructed, so zero draws happen
// and all golden fingerprints are byte-identical to a channel-free build.
//
// Draw-order contract (pinned by tests/test_seed_equivalence.cpp's lossy
// goldens): per classified message, in this exact order —
//   1. one drop draw, always (compared against the class's effective drop
//      probability: max(per-class base, active brownout floor));
//   2. if not dropped and delay_prob > 0: one delay draw;
//   3. if delayed and max_delay_epochs > 1: one draw for the delay length
//      (uniform in 1..max_delay_epochs);
//   4. if not dropped and not delayed and duplicate_prob > 0: one
//      duplicate draw.
// Draws happen for every class uniformly; receivers then interpret the
// fate (accept receivers are idempotent, so a duplicate accept is counted
// but collapses to a single delivery — see negotiator_scheduler.h).
//
// Brownouts model a control-plane outage correlated with data-plane
// storms: during [start, end) the effective drop probability of every
// class is raised to at least the window's floor. The level is sampled
// once per epoch (begin_epoch) at the epoch's start time, so a window
// covers exactly the epochs whose predefined phase starts inside it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"

namespace negotiator {

/// Salt mixed into NetworkConfig::seed for the channel's private stream.
inline constexpr std::uint64_t kControlChannelSeedSalt =
    0xc0117a0b10550000ULL;

enum class ControlClass : int {
  kRequest = 0,
  kGrant = 1,
  kAccept = 2,
};

class ControlChannel {
 public:
  ControlChannel(const ControlFaultConfig& config, Rng rng);

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Outcome of one classified message.
  struct Fate {
    bool deliver{true};     ///< one copy arrives on time
    bool duplicate{false};  ///< a second copy arrives alongside it
    int delay_epochs{0};    ///< > 0: the single copy arrives this late
  };

  /// Samples the active brownout level for the epoch starting at `now`.
  /// Call once per epoch before any classify() of that epoch.
  void begin_epoch(Nanos now);

  /// Draws the fate of one message (see the draw-order contract above).
  Fate classify(ControlClass cls);

  /// Registers a brownout window [start, end) with an absolute drop floor
  /// applied to every message class while active. Windows may overlap;
  /// the highest floor wins.
  void add_brownout(Nanos start, Nanos end, double drop_floor);

  std::int64_t dropped() const { return dropped_; }
  std::int64_t delayed() const { return delayed_; }
  std::int64_t duplicated() const { return duplicated_; }
  std::int64_t classified() const { return classified_; }
  /// Drop floor in force for the current epoch (0 outside brownouts).
  double brownout_floor() const { return brownout_floor_; }
  bool fallback_enabled() const { return config_.fallback; }

 private:
  struct Brownout {
    Nanos start;
    Nanos end;
    double drop_floor;
  };

  ControlFaultConfig config_;
  Rng rng_;
  std::vector<Brownout> brownouts_;
  double brownout_floor_{0.0};
  // Effective per-class drop for the current epoch, indexed by
  // ControlClass: max(base class drop, brownout floor), clamped to [0, 1].
  double effective_drop_[3];
  std::int64_t dropped_{0};
  std::int64_t delayed_{0};
  std::int64_t duplicated_{0};
  std::int64_t classified_{0};
};

}  // namespace negotiator
