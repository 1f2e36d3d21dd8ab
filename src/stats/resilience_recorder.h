// Link-fault timeline: how long the fabric takes to notice and to heal a
// fault scenario (engine/fault_scenario.h).
//
// A recorder is attached to a fabric with FabricSim::set_resilience and
// fed from two places:
//   - the fabric's link-toggle handler (injection / repair timestamps per
//     directed link), and
//   - FaultPlane::end_epoch via the Listener interface (confirmed
//     exclusion / re-inclusion transitions).
//
// Derived metrics:
//   - detection latency  = exclusion confirmed − most recent failure of
//     that directed link (how long the FaultPlane took to stop using it);
//   - recovery latency   = re-inclusion confirmed − most recent repair
//     (how long a healed link waits before carrying traffic again);
//   - exclusion churn    = total exclusions + re-inclusions (a flapping
//     plane excludes and re-includes the same port repeatedly).
// Every other count (blackholed and degraded bytes, control, data and ARQ
// counters) is kept by the component that owns it and read through
// FabricSim::counters() (stats/fabric_counters.h), which also reads these.
//
// Determinism: the recorder only aggregates integer event data already on
// the simulation timeline, so its numbers are bit-identical for a fixed
// seed, and attaching one changes no simulated behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/fault_detector.h"

namespace negotiator {

class ResilienceRecorder final : public FaultPlane::Listener {
 public:
  ResilienceRecorder(int num_tors, int ports_per_tor);

  /// Fabric link-toggle hook (call after LinkState is updated).
  void on_link_toggle(Nanos now, TorId tor, PortId port, LinkDirection dir,
                      bool fail);

  // FaultPlane::Listener:
  void on_exclude(Nanos now, TorId tor, PortId port,
                  LinkDirection dir) override;
  void on_include(Nanos now, TorId tor, PortId port,
                  LinkDirection dir) override;

  struct LatencyStats {
    std::int64_t count{0};
    Nanos sum{0};
  };

  std::int64_t failures() const { return failures_; }
  std::int64_t repairs() const { return repairs_; }
  std::int64_t exclusions() const { return exclusions_; }
  std::int64_t inclusions() const { return inclusions_; }
  const LatencyStats& detection() const { return detection_; }
  const LatencyStats& recovery() const { return recovery_; }

 private:
  struct DirState {
    Nanos last_fail{kNeverNs};
    Nanos last_repair{kNeverNs};
  };
  std::size_t index(TorId tor, PortId port, LinkDirection dir) const;

  int num_tors_;
  int ports_;
  std::vector<DirState> links_;  // [((tor·P)+port)·2 + ingress?1:0]
  std::int64_t failures_{0};
  std::int64_t repairs_{0};
  std::int64_t exclusions_{0};
  std::int64_t inclusions_{0};
  LatencyStats detection_;
  LatencyStats recovery_;
};

}  // namespace negotiator
