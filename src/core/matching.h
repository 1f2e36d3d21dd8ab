// NegotiaToR Matching (§3.2.1, Algorithm 1): the GRANT and ACCEPT steps,
// with the topology-dependent ring layout of Fig. 3(b)/(c):
//   - parallel network: one shared GRANT ring per destination ToR (any rx
//     port can hear any source, and sharing state across ports improves
//     fairness); a grant names an rx port, which pins the same-plane tx
//     port at the source;
//   - thin-clos: one GRANT ring per rx port over the 16 sources of that
//     port's group.
// ACCEPT uses one ring per tx port in both topologies.
//
// The selection policy generalizes the ring to the A.2.3 informative
// variants: kLargestSize picks the requester with the most pending bytes
// (decremented by one epoch's capacity per granted port), kLongestDelay the
// one with the largest weighted HoL delay (each requester granted once
// before anyone is granted twice).
//
// Hot-path note: ring eligibility and chosen-candidate lookups are O(1)
// through dense per-source / per-destination slot arrays (scratch members
// reset via touched lists), not linear rescans of the request set — the
// picks are byte-identical to the straightforward implementation (see
// tests/test_matching_equivalence.cpp).
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/messages.h"
#include "core/ring.h"
#include "topo/topology.h"

namespace negotiator {

enum class SelectionPolicy { kRoundRobin, kLargestSize, kLongestDelay };

class MatchingEngine {
 public:
  MatchingEngine(const FlatTopology& topo, SelectionPolicy policy, Rng& rng);

  struct GrantResult {
    /// (granted source, grant message) pairs to send back.
    std::vector<std::pair<TorId, GrantMsg>> grants;
    /// Which rx ports were allocated (size = ports_per_tor).
    std::vector<bool> port_used;
  };

  /// GRANT step at `dst`: allocates every eligible rx port to the pending
  /// (non-relay) requests. `epoch_capacity` is the data volume one match
  /// can move in an epoch (used by the kLargestSize policy).
  GrantResult grant(TorId dst, std::span<const RequestMsg> requests,
                    const std::vector<bool>& rx_eligible,
                    Bytes epoch_capacity);

  struct AcceptResult {
    std::vector<Match> matches;
    /// Which tx ports got matched (size = ports_per_tor).
    std::vector<bool> port_used;
  };

  /// ACCEPT step at `src`: picks at most one grant per eligible tx port.
  AcceptResult accept(TorId src, std::span<const GrantMsg> grants,
                      const std::vector<bool>& tx_eligible);

  SelectionPolicy policy() const { return policy_; }

 private:
  RoundRobinRing& grant_ring(TorId dst, PortId rx);
  RoundRobinRing& accept_ring(TorId src, PortId tx);

  /// True when (src -> dst) traffic can land on rx port `p` — always, in
  /// the parallel network; only for src's own group port in thin-clos.
  bool eligible_for_port(TorId src, PortId p) const {
    return rx_group_of_src_.empty() ||
           rx_group_of_src_[static_cast<std::size_t>(src)] == p;
  }

  const FlatTopology& topo_;
  SelectionPolicy policy_;
  // Parallel network: one grant ring per destination; thin-clos: one per
  // (destination, rx port).
  std::vector<RoundRobinRing> grant_rings_;
  std::vector<RoundRobinRing> accept_rings_;
  /// Thin-clos: the rx port (src -> anywhere) traffic lands on, resolved
  /// through the virtual topology interface once at construction. Empty
  /// for the parallel network (every port eligible).
  std::vector<PortId> rx_group_of_src_;

  // Scratch for the dense-index lookups, sized num_tors; entries are -1
  // outside a grant()/accept() call (reset via the touched list).
  std::vector<std::int32_t> slot_of_tor_;
  std::vector<TorId> touched_;
  // Scratch for accept()'s per-tx-port candidate chains.
  std::vector<std::int32_t> by_port_head_;
  std::vector<std::int32_t> by_port_tail_;
  std::vector<std::int32_t> next_in_port_;
};

}  // namespace negotiator
