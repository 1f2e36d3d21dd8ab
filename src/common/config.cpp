#include "common/config.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace negotiator {

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kParallel: return "parallel";
    case TopologyKind::kThinClos: return "thin-clos";
  }
  return "?";
}

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNegotiator: return "negotiator";
    case SchedulerKind::kOblivious: return "oblivious";
    case SchedulerKind::kNegotiatorIterative: return "negotiator-iterative";
    case SchedulerKind::kNegotiatorInformativeSize:
      return "negotiator-informative-size";
    case SchedulerKind::kNegotiatorInformativeHol:
      return "negotiator-informative-hol";
    case SchedulerKind::kNegotiatorStateful: return "negotiator-stateful";
    case SchedulerKind::kNegotiatorSelectiveRelay:
      return "negotiator-selective-relay";
    case SchedulerKind::kProjector: return "projector";
    case SchedulerKind::kCentralized: return "centralized";
  }
  return "?";
}

Bytes NetworkConfig::piggyback_payload_bytes() const {
  const Bytes slot = port_rate().bytes_in(epoch.predefined_data_ns);
  return std::max<Bytes>(0, slot - epoch.control_header_bytes);
}

Bytes NetworkConfig::scheduled_payload_bytes() const {
  const Bytes slot = port_rate().bytes_in(epoch.scheduled_slot_ns);
  return std::max<Bytes>(0, slot - epoch.data_header_bytes);
}

int NetworkConfig::predefined_slots() const {
  if (topology == TopologyKind::kParallel) {
    // ceil((N-1)/S) slots give every pair one connection (§3.3.1).
    return (num_tors - 1 + ports_per_tor - 1) / ports_per_tor;
  }
  // Thin-clos: W = N/S slots, W being the AWGR port count (§3.3.1).
  return num_tors / ports_per_tor;
}

Nanos NetworkConfig::epoch_length_ns() const {
  return static_cast<Nanos>(predefined_slots()) * epoch.predefined_slot_ns() +
         static_cast<Nanos>(epoch.scheduled_slots) * epoch.scheduled_slot_ns;
}

void NetworkConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("NetworkConfig: " + what);
  };
  if (num_tors < 2) fail("need at least 2 ToRs");
  if (ports_per_tor < 1) fail("need at least 1 port per ToR");
  if (topology == TopologyKind::kThinClos && num_tors % ports_per_tor != 0) {
    fail("thin-clos requires num_tors divisible by ports_per_tor");
  }
  if (host_aggregate_gbps <= 0) fail("host_aggregate_gbps must be positive");
  if (speedup <= 0) fail("speedup must be positive");
  if (propagation_delay_ns < 0) fail("propagation delay must be >= 0");
  if (epoch.guardband_ns < 0) fail("guardband must be >= 0");
  if (epoch.predefined_data_ns <= 0) fail("predefined data time must be > 0");
  if (epoch.scheduled_slots < 0) fail("scheduled_slots must be >= 0");
  if (epoch.scheduled_slot_ns <= 0) fail("scheduled slot must be > 0");
  if (piggyback && piggyback_payload_bytes() <= 0) {
    fail("predefined slot too short to piggyback any payload");
  }
  if (scheduled_payload_bytes() <= 0 && epoch.scheduled_slots > 0) {
    fail("scheduled slot too short to carry any payload");
  }
  if (request_threshold_packets < 0) fail("request threshold must be >= 0");
  if (scheduler == SchedulerKind::kNegotiatorIterative &&
      variant.iterations < 1) {
    fail("iterative variant needs iterations >= 1");
  }
  if (scheduler == SchedulerKind::kNegotiatorSelectiveRelay &&
      topology != TopologyKind::kThinClos) {
    fail("selective relay is defined for the thin-clos topology (A.2.2)");
  }
  if (pias.enabled &&
      (pias.first_threshold <= 0 || pias.second_threshold <= 0)) {
    fail("PIAS thresholds must be positive");
  }
  if (control_fault.enabled) {
    auto bad_prob = [](double p) { return p < 0.0 || p > 1.0; };
    if (bad_prob(control_fault.request_drop) ||
        bad_prob(control_fault.grant_drop) ||
        bad_prob(control_fault.accept_drop)) {
      fail("control-fault drop probabilities must be in [0, 1]");
    }
    if (bad_prob(control_fault.delay_prob) ||
        bad_prob(control_fault.duplicate_prob)) {
      fail("control-fault delay/duplicate probabilities must be in [0, 1]");
    }
    if (control_fault.max_delay_epochs < 1) {
      fail("control-fault max_delay_epochs must be >= 1");
    }
    if (control_fault.fallback && scheduler == SchedulerKind::kOblivious) {
      fail("control-fault fallback needs a negotiator-family scheduler");
    }
  }
  if (data_fault.enabled) {
    auto bad_prob = [](double p) { return p < 0.0 || p > 1.0; };
    if (bad_prob(data_fault.first_hop_drop) ||
        bad_prob(data_fault.relay_drop) ||
        bad_prob(data_fault.second_hop_drop) ||
        bad_prob(data_fault.corrupt_prob)) {
      fail("data-fault probabilities must be in [0, 1]");
    }
    if (data_fault.rto_epochs <= 0.0) {
      fail("data-fault rto_epochs must be > 0");
    }
    if (data_fault.rto_backoff < 1.0) {
      fail("data-fault rto_backoff must be >= 1");
    }
    if (data_fault.rto_cap_epochs < data_fault.rto_epochs) {
      fail("data-fault rto_cap_epochs must be >= rto_epochs");
    }
    if (data_fault.max_retries < 1) {
      fail("data-fault max_retries must be >= 1");
    }
  }
}

std::string NetworkConfig::summary() const {
  std::ostringstream os;
  os << num_tors << " ToRs x " << ports_per_tor << " ports, "
     << to_string(topology) << ", " << to_string(scheduler) << ", "
     << port_rate().gbps() << " Gbps/port (speedup " << speedup << "), epoch "
     << epoch_length_ns() << " ns (" << predefined_slots() << " predefined + "
     << epoch.scheduled_slots << " scheduled slots)";
  if (control_fault.enabled) {
    os << ", lossy control plane (drop " << control_fault.request_drop << "/"
       << control_fault.grant_drop << "/" << control_fault.accept_drop
       << ", delay " << control_fault.delay_prob << ", dup "
       << control_fault.duplicate_prob
       << (control_fault.fallback ? ", fallback on)" : ")");
  }
  if (data_fault.enabled) {
    os << ", lossy data plane (drop " << data_fault.first_hop_drop << "/"
       << data_fault.relay_drop << "/" << data_fault.second_hop_drop
       << ", corrupt " << data_fault.corrupt_prob
       << (data_fault.arq ? ", arq on)" : ")");
  }
  return os.str();
}

}  // namespace negotiator
