// Central configuration for a simulated fabric. Defaults reproduce the
// paper's evaluation setup (§4.1): 128 8-port ToRs, 400 Gbps host aggregate
// per ToR, 2x uplink speedup (100 Gbps per port), 2 us one-way propagation,
// 10 ns guardband, 60 ns predefined timeslots (30 B control + 595 B
// piggyback payload), 30 scheduled timeslots of 90 ns (10 B header + 1115 B
// payload), epoch length 3.66 us.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "common/units.h"

namespace negotiator {

/// Which flat topology interconnects the ToRs (Fig. 1).
enum class TopologyKind {
  kParallel,  ///< one high-port-count AWGR per plane (Fig. 1a)
  kThinClos,  ///< many low-port-count AWGRs (Fig. 1b)
};

/// Which fabric scheduler drives reconfiguration.
enum class SchedulerKind {
  kNegotiator,            ///< NegotiaToR Matching (§3.2), the paper's design
  kOblivious,             ///< Sirius-style round-robin + VLB relay baseline
  kNegotiatorIterative,   ///< appendix A.2.1 iterative variant
  kNegotiatorInformativeSize,  ///< A.2.3 data-size priority requests
  kNegotiatorInformativeHol,   ///< A.2.3 weighted HoL-delay priority
  kNegotiatorStateful,    ///< A.2.4 stateful traffic-matrix scheduling
  kNegotiatorSelectiveRelay,   ///< A.2.2 traffic-aware selective relay
  kProjector,             ///< A.2.5 ProjecToR-style per-port delay priority
  kCentralized,           ///< §2 centralized maximal-matching comparator
};

const char* to_string(TopologyKind kind);
const char* to_string(SchedulerKind kind);

/// Timing/framing of one NegotiaToR epoch (§3.3, §4.1).
struct EpochConfig {
  /// Reconfiguration guardband before each predefined-phase timeslot.
  Nanos guardband_ns{10};
  /// Data-carrying portion of each predefined-phase timeslot.
  Nanos predefined_data_ns{50};
  /// Scheduling message + packet header bytes inside a predefined slot.
  Bytes control_header_bytes{30};
  /// Number of timeslots in the scheduled phase.
  int scheduled_slots{30};
  /// Length of one scheduled-phase timeslot (one packet per slot).
  Nanos scheduled_slot_ns{90};
  /// Packet header bytes inside a scheduled slot.
  Bytes data_header_bytes{10};

  /// Full length of one predefined-phase timeslot.
  Nanos predefined_slot_ns() const { return guardband_ns + predefined_data_ns; }

  bool operator==(const EpochConfig&) const = default;
};

/// PIAS-style multi-level feedback queue settings (§3.4.2). With the
/// default thresholds the first 1 KB of a flow is sent at the highest
/// priority, the following 9 KB at the middle one, and the rest last.
struct PiasConfig {
  bool enabled{true};
  Bytes first_threshold{1_KB};
  Bytes second_threshold{9_KB};
  static constexpr int kLevels = 3;

  bool operator==(const PiasConfig&) const = default;
};

/// Knobs for the appendix design-space variants.
struct VariantConfig {
  /// kNegotiatorIterative: number of request/grant/accept rounds (>= 1).
  int iterations{1};
  /// kNegotiatorInformativeHol: weight alpha for the lowest-priority queue's
  /// HoL delay (A.2.3 finds 0.001 best).
  double hol_alpha{0.001};
  /// kNegotiatorSelectiveRelay: only lowest-priority (elephant) data above
  /// this volume is considered for relay.
  Bytes relay_elephant_threshold{100_KB};
  /// kNegotiatorSelectiveRelay: per-destination relay queue capacity at the
  /// intermediate ToR (congestion-control bound).
  Bytes relay_queue_capacity{256_KB};
  /// kNegotiatorSelectiveRelay: a candidate intermediate is excluded when
  /// the direct traffic sharing its links exceeds this volume.
  Bytes relay_heavy_direct_threshold{64_KB};

  bool operator==(const VariantConfig&) const = default;
};

/// Traffic management below the ToRs (§3.6.5): receiver-side buffering
/// with pause/resume watermarks (the fabric's 2x speedup can outrun the
/// host links) and shaping of host->ToR ingress.
struct HostPlaneConfig {
  bool enabled{false};
  /// Receiver-side buffer capacity per ToR.
  Bytes rx_buffer_capacity{4'000'000};
  /// Pause above this occupancy...
  Bytes rx_high_watermark{3'000'000};
  /// ...resume below this one.
  Bytes rx_low_watermark{1'500'000};

  bool operator==(const HostPlaneConfig&) const = default;
};

/// Control-plane fault model (see core/control_channel.h): seeded drop /
/// delay / duplication of REQUEST / GRANT / ACCEPT messages at the
/// predefined-phase exchange points, plus scenario-driven brownout windows
/// (engine/fault_scenario.h, ControlBrownoutSpec). Disabled by default; a
/// disabled channel is never constructed, so every RNG draw — and therefore
/// every golden fingerprint — is identical to a build without the model.
struct ControlFaultConfig {
  bool enabled{false};
  /// Per-class drop probability for a message crossing one predefined-phase
  /// connection (each physical transmission draws independently).
  double request_drop{0.0};
  double grant_drop{0.0};
  double accept_drop{0.0};
  /// Probability a surviving message is delayed instead of delivered; a
  /// delayed message lands 1..max_delay_epochs epochs late (uniform).
  double delay_prob{0.0};
  int max_delay_epochs{1};
  /// Probability a delivered message arrives twice (requests and grants;
  /// accept receivers are idempotent, so a duplicate accept is only
  /// counted).
  double duplicate_prob{0.0};
  /// Graceful degradation: a source left unmatched by a lossy negotiation
  /// falls back to oblivious/rotor spreading during the scheduled phase.
  bool fallback{false};

  bool operator==(const ControlFaultConfig&) const = default;
};

/// Lossy data plane (core/data_channel.h) and end-host selective-repeat
/// ARQ (tor/host_transport.h). Like the control channel, the whole
/// subsystem follows the disabled-≡-never-constructed contract: with
/// `enabled == false` neither the channel nor the transport is built and
/// every other draw in the run stays byte-identical.
struct DataFaultConfig {
  bool enabled{false};
  /// Per-hop-class drop probability for one chunk transmission (each
  /// physical transmission draws independently; retransmissions redraw).
  double first_hop_drop{0.0};   // source ToR -> destination ToR direct
  double relay_drop{0.0};       // source ToR -> intermediate (VLB leg 1)
  double second_hop_drop{0.0};  // intermediate -> destination (VLB leg 2)
  /// Probability a chunk that survives the drop draw arrives corrupted
  /// and is discarded by the receiver's checksum (same fate as a drop,
  /// counted separately). Applies to every hop class.
  double corrupt_prob{0.0};

  /// End-host selective-repeat ARQ. Without it, dropped bytes are
  /// terminal and the affected flows never complete (measurement mode for
  /// raw loss); with it, the transport retransmits until acked or
  /// abandoned.
  bool arq{false};
  /// Base retransmission timeout, in epoch lengths (the fabric's natural
  /// RTT scale: one epoch comfortably covers slot + 2x propagation).
  double rto_epochs{4.0};
  /// Multiplicative backoff applied on every RTO expiry without ack
  /// progress; the effective RTO is capped at rto_cap_epochs.
  double rto_backoff{2.0};
  double rto_cap_epochs{64.0};
  /// Consecutive RTO expiries without ack progress before the flow's
  /// outstanding chunks are abandoned (terminal, like a non-ARQ drop).
  int max_retries{16};

  bool operator==(const DataFaultConfig&) const = default;
};

/// Sirius-style traffic-oblivious baseline knobs.
struct ObliviousConfig {
  /// Total relay-buffer capacity at an intermediate ToR; senders stop
  /// spreading towards an intermediate whose advertised occupancy exceeds
  /// this (models the baseline's congestion control, which only has to
  /// prevent buffer overflow — a deep commodity-ToR buffer, hence the
  /// intermediate head-of-line blocking the paper attributes mice FCT
  /// damage to).
  Bytes relay_queue_capacity{8_MB};

  bool operator==(const ObliviousConfig&) const = default;
};

/// Complete description of one simulated network.
///
/// A plain value type with no shared or global state: copying it into a
/// sweep point gives that run a fully independent configuration (including
/// `seed`, the root of the run's private RNG chain), so concurrent runs
/// never observe each other — the isolation the multi-core sweep engine
/// (engine/sweep.h) is built on.
struct NetworkConfig {
  int num_tors{128};
  int ports_per_tor{8};
  TopologyKind topology{TopologyKind::kParallel};
  SchedulerKind scheduler{SchedulerKind::kNegotiator};

  /// Aggregated host bandwidth under one ToR; goodput is normalized to it.
  double host_aggregate_gbps{400.0};
  /// Uplink speedup: total uplink bandwidth = speedup * host aggregate.
  double speedup{2.0};
  /// One-way ToR-to-ToR propagation delay.
  Nanos propagation_delay_ns{2 * kMicro};

  /// Data piggybacking in the predefined phase (§3.4.1).
  bool piggyback{true};
  /// Requests are only sent once queued bytes exceed this many piggyback
  /// payloads (§3.4.1; ignored when piggyback is off, where any pending
  /// byte triggers a request).
  int request_threshold_packets{3};
  /// Rotate the predefined-phase round-robin rule every epoch (§3.6.1).
  bool rotate_predefined_rule{true};

  PiasConfig pias;
  EpochConfig epoch;
  VariantConfig variant;
  ObliviousConfig oblivious;
  HostPlaneConfig host_plane;
  ControlFaultConfig control_fault;
  DataFaultConfig data_fault;

  /// Always 1 (one serial slot walk); kept only for perfbench/negbench.cpp.
  static constexpr int sim_threads = 1;

  /// Run the per-epoch MatchingValidator (core/matching_validator.h) on
  /// every matching the scheduler emits. Debug/sanitizer builds force this
  /// on; release builds opt in (the chaos harness and the lossy goldens
  /// do). A violation aborts via NEG_ASSERT. The byte-conservation auditor
  /// (engine/conservation_auditor.h) arms under the same flag whenever the
  /// data channel is enabled.
  bool validate_matching{false};

  std::uint64_t seed{1};

  /// Uplink rate of a single ToR port.
  Rate port_rate() const {
    return Rate::from_gbps(host_aggregate_gbps * speedup / ports_per_tor);
  }
  /// Host-aggregate rate (normalization base for goodput).
  Rate host_rate() const { return Rate::from_gbps(host_aggregate_gbps); }

  /// Payload bytes one predefined-phase slot can piggyback.
  Bytes piggyback_payload_bytes() const;
  /// Payload bytes one scheduled-phase slot carries.
  Bytes scheduled_payload_bytes() const;
  /// Number of predefined-phase timeslots needed for one all-to-all round.
  int predefined_slots() const;
  /// Full epoch length (predefined + scheduled phase).
  Nanos epoch_length_ns() const;

  /// Field-wise equality (used by the sweep engine's workload cache to
  /// prove two points may share one generated trace).
  bool operator==(const NetworkConfig&) const = default;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// Human-readable one-line summary.
  std::string summary() const;
};

}  // namespace negotiator
