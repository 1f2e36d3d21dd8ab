#include "core/variants/stateful.h"

#include <algorithm>
#include <span>

#include "common/assert.h"

namespace negotiator {

StatefulScheduler::StatefulScheduler(const NetworkConfig& config,
                                     const FlatTopology& topo, Rng rng)
    : NegotiatorScheduler(config, topo, rng),
      matrix_(static_cast<std::size_t>(topo.num_tors()) * topo.num_tors(), 0),
      reported_(static_cast<std::size_t>(topo.num_tors()) * topo.num_tors(),
                0) {}

Bytes& StatefulScheduler::matrix(TorId dst, TorId src) {
  return matrix_[static_cast<std::size_t>(dst) * topo_.num_tors() + src];
}

void StatefulScheduler::sample_requests(const DemandView& demand,
                                        const FaultPlane& /*faults*/) {
  const Bytes threshold = request_threshold_bytes();
  for (const TorId s : demand.active_sources()) {
    for (TorId d : demand.active_destinations(s)) {
      const Bytes pending = demand.pending_bytes(s, d);
      if (pending <= threshold) continue;
      Bytes& reported =
          reported_[static_cast<std::size_t>(s) * topo_.num_tors() + d];
      const Bytes arrived = demand.cumulative_arrived(s, d);
      RequestMsg r;
      r.src = s;
      r.size = pending;
      r.newly_arrived = std::max<Bytes>(0, arrived - reported);
      reported = arrived;
      PairOut& entry = outbox(s, d);
      entry.has_request = true;
      entry.request = r;
    }
  }
}

void StatefulScheduler::compute_grants(const DemandView& /*demand*/,
                                       const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> rx_eligible(static_cast<std::size_t>(ports));
  std::vector<RequestMsg> eligible_requests;
  if (inbox_requests_.empty()) return;
  for (const TorId d : inbox_requests_.owners()) {
    const std::span<const RequestMsg> requests =
        inbox_requests_.for_owner(d);
    if (requests.empty()) continue;
    eligible_requests.clear();
    for (const RequestMsg& r : requests) {
      Bytes& m = matrix(d, r.src);
      m += r.newly_arrived;
      // Self-healing: a live request proves the source has pending data; if
      // the matrix disagrees (drift from approximated sends), trust the
      // request's aggregate size.
      if (m <= 0 && r.size > 0) m = r.size;
      if (m > 0) eligible_requests.push_back(r);
    }
    if (eligible_requests.empty()) continue;
    for (PortId p = 0; p < ports; ++p) {
      rx_eligible[static_cast<std::size_t>(p)] = !faults.rx_excluded(d, p);
    }
    auto result = matching_.grant(d, eligible_requests, rx_eligible,
                                  epoch_capacity_bytes());
    epoch_grants_ += result.grants.size();
    for (auto& [src, g] : result.grants) {
      Bytes& m = matrix(d, src);
      const Bytes amount = std::min(m, epoch_capacity_bytes());
      m -= amount;  // tentative until the accept/reject notice arrives
      tentative_.push_back(Tentative{d, src, g.rx_port, amount, epoch_});
      outbox(d, src).grants.push_back(g);
    }
  }
}

void StatefulScheduler::consume_accept_inbox(const DemandView& /*demand*/) {
  // Accept notices from sources reconcile the tentative decrements: an
  // acceptance finalizes (drop the record), a rejection reverts the bytes.
  // A grant of epoch e is answered in the notices consumed at epoch e+2;
  // (src, rx_port) identifies the grant uniquely within an epoch.
  for (auto it = tentative_.begin(); it != tentative_.end();) {
    bool resolved = false;
    bool accepted = false;
    for (const AcceptMsg& a : inbox_accepts_.for_owner(it->dst)) {
      if (a.src == it->src && a.rx_port == it->rx_port) {
        resolved = true;
        accepted = a.accepted;
        break;
      }
    }
    // Unanswered records older than the round trip mean the grant or the
    // notice was lost; revert conservatively so demand is not forgotten.
    const bool stale = epoch_ - it->epoch >= 3;
    if (resolved || stale) {
      if ((resolved && !accepted) || (!resolved && stale)) {
        matrix(it->dst, it->src) += it->amount;
      }
      it = tentative_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace negotiator
