// The NegotiaToR control plane (§3.2-§3.3): pipelined REQUEST / GRANT /
// ACCEPT over the in-band predefined phase.
//
// Per Fig. 4, epoch n's predefined phase carries request_n, grant_{n-1} and
// accept_{n-2}. Operationally, at the *start* of epoch e a ToR:
//   1. computes ACCEPTs from the grants delivered during epoch e-1 — these
//      become the matching used in epoch e's scheduled phase;
//   2. computes GRANTs from the requests delivered during epoch e-1;
//   3. samples its per-destination queues and emits new requests.
// All three message kinds are then carried by epoch e's predefined slots
// (deliver_pair), subject to link health. The minimum scheduling delay is
// therefore ~2 epochs, matching §3.3.1.
//
// Variants override the protected hooks; the base class implements plain
// NegotiaToR Matching with binary requests and, through the selection
// policy, the A.2.3 informative-request variants.
//
// Dirty-set invariants (the sparse epoch pipeline): every per-epoch loop
// here iterates a maintained set of ToRs with work, never 0..N-1 —
//  - compute_accepts/compute_grants walk InboxArena::owners(), marked by
//    deliver_pair's pushes and cleared by clear_inboxes();
//  - sample_requests walks DemandView::active_sources(), marked by the
//    fabric on the enqueue that fills a ToR's first queue and cleared on
//    the dequeue that drains its last;
//  - outbox() marks each written (from, to) pair once per epoch in
//    out_pairs_ (cleared by begin_epoch), which the fabric's sparse
//    predefined phase uses to visit only message-bearing connections.
// All sets iterate in ascending ToR order, so the processing order — and
// therefore the simulation output — is bit-identical to the historical
// dense scans (tests/test_seed_equivalence.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/control_channel.h"
#include "core/demand_view.h"
#include "core/fault_detector.h"
#include "core/inbox.h"
#include "core/matching.h"
#include "core/messages.h"
#include "topo/topology.h"

namespace negotiator {

class NegotiatorScheduler {
 public:
  NegotiatorScheduler(const NetworkConfig& config, const FlatTopology& topo,
                      Rng rng);
  virtual ~NegotiatorScheduler() = default;

  NegotiatorScheduler(const NegotiatorScheduler&) = delete;
  NegotiatorScheduler& operator=(const NegotiatorScheduler&) = delete;

  /// Runs the pipeline stages for epoch `epoch` (see header comment).
  virtual void begin_epoch(std::int64_t epoch, Nanos now,
                           const DemandView& demand, const FaultPlane& faults);

  /// Predefined-phase exchange for pair (src -> dst). When `ok` is false
  /// (link failure) the queued messages are lost. Inline: the fabric calls
  /// this for every predefined-phase slot connection. With a lossy control
  /// channel attached, every message instead runs the classify() gauntlet
  /// (drop / delay / duplicate) in deliver_pair_lossy; the channel-free
  /// path below is byte-identical to the historical exchange.
  void deliver_pair(TorId src, TorId dst, bool ok) {
    if (control_ != nullptr) {
      deliver_pair_lossy(src, dst, ok);
      return;
    }
    const std::size_t index =
        static_cast<std::size_t>(src) * topo_.num_tors() + dst;
    if (out_stamp_[index] != epoch_) return;
    if (!ok) return;
    const PairOut& entry = out_[index];
    if (entry.has_request) {
      inbox_requests_.push(dst, entry.request);
    }
    for (const RequestMsg& r : entry.relay_requests) {
      inbox_requests_.push(dst, r);
    }
    for (const GrantMsg& g : entry.grants) {
      inbox_grants_.push(dst, g);
    }
    if (entry.has_accept) {
      inbox_accepts_.push(dst, entry.accept);
    }
  }

  /// Attaches the lossy control channel (core/control_channel.h); the
  /// fabric owns it and calls ControlChannel::begin_epoch each epoch
  /// before the scheduler's begin_epoch. Null (default) keeps the
  /// exchange loss-free and draw-free.
  void set_control_channel(ControlChannel* channel) { control_ = channel; }

  /// Matching for this epoch's scheduled phase.
  const std::vector<Match>& matches() const { return matches_; }

  /// Ordered pairs (from, to) that hold at least one outgoing message for
  /// the current epoch — exactly the pairs whose out-stamp equals the
  /// current epoch. The fabric's sparse predefined phase visits only these
  /// connections (plus data-bearing pairs) instead of scanning all N^2.
  /// Dirty-set invariant: outbox() marks a pair the first time it is
  /// written in an epoch; begin_epoch() clears the list.
  std::span<const std::pair<TorId, TorId>> epoch_out_pairs() const {
    return out_pairs_;
  }

  /// Grants issued / matches accepted this epoch (Fig. 14 match ratio;
  /// accepts at epoch e answer the grants of epoch e-1).
  std::size_t epoch_grants() const { return epoch_grants_; }
  std::size_t epoch_accepts() const { return epoch_accepts_; }

 protected:
  /// Per-pair outgoing messages for the current epoch, stamp-invalidated
  /// instead of cleared (O(#messages) per epoch, not O(N^2)). The stamps
  /// live in a separate dense array (out_stamp_) so the per-slot delivery
  /// scan only touches 8 bytes per pair unless the pair actually has
  /// messages this epoch. A pair can carry several grants in one epoch: in
  /// the parallel network a destination may grant multiple rx ports to the
  /// same source (Fig. 3a).
  struct PairOut {
    bool has_request{false};
    bool has_accept{false};
    RequestMsg request;
    std::vector<GrantMsg> grants;
    /// Selective-relay establishment requests (A.2.2); a pair can carry a
    /// direct request and relay requests in the same epoch.
    std::vector<RequestMsg> relay_requests;
    AcceptMsg accept;
  };
  PairOut& outbox(TorId from, TorId to);

  virtual void compute_accepts(const DemandView& demand,
                               const FaultPlane& faults);
  virtual void compute_grants(const DemandView& demand,
                              const FaultPlane& faults);
  virtual void sample_requests(const DemandView& demand,
                               const FaultPlane& faults);
  /// Stateful-variant hook, runs before compute_grants.
  virtual void consume_accept_inbox(const DemandView& demand);

  /// Request threshold in bytes (§3.4.1: three piggyback payloads when
  /// piggybacking is on, otherwise any pending byte).
  Bytes request_threshold_bytes() const;
  /// Bytes one match can move during one scheduled phase.
  Bytes epoch_capacity_bytes() const;

  void clear_inboxes();

  /// Lossy-exchange slow path behind deliver_pair: per-message classify()
  /// with the fates applied — dropped messages vanish, delayed ones park
  /// in the delayed_* buffers (flushed into the inboxes at the top of
  /// begin_epoch once due), duplicated requests/grants push twice
  /// (duplicate accepts are counted by the channel but collapse at the
  /// receiver, which is idempotent).
  void deliver_pair_lossy(TorId src, TorId dst, bool ok);
  /// Moves due delayed messages into the inboxes, preserving insertion
  /// order per class. Called at the top of begin_epoch (before
  /// compute_accepts) so a message delayed k epochs is consumed exactly
  /// k epochs after its on-time siblings.
  void flush_delayed_messages();

  void deliver_request_lossy(TorId dst, const RequestMsg& msg);
  void deliver_grant_lossy(TorId dst, const GrantMsg& msg);
  void deliver_accept_lossy(TorId dst, const AcceptMsg& msg);

  const NetworkConfig& config_;
  const FlatTopology& topo_;
  MatchingEngine matching_;
  Rng rng_;

  std::int64_t epoch_{-1};
  Nanos now_{0};
  std::vector<Match> matches_;
  std::size_t epoch_grants_{0};
  std::size_t epoch_accepts_{0};

  std::vector<PairOut> out_;                  // N*N
  std::vector<std::int64_t> out_stamp_;       // N*N, epoch of last write
  std::vector<std::pair<TorId, TorId>> out_pairs_;  // pairs stamped this epoch
  // Per-epoch message arenas (one flat buffer each, O(1) clear; see
  // core/inbox.h). Owners: requests/accepts by destination, grants by the
  // granted source.
  InboxArena<RequestMsg> inbox_requests_;
  InboxArena<GrantMsg> inbox_grants_;
  InboxArena<AcceptMsg> inbox_accepts_;

  /// Lossy control channel (null = loss-free, the default). Owned by the
  /// fabric; variants consult it at their own exchange points too (the
  /// iterative scheduler's in-epoch staging).
  ControlChannel* control_{nullptr};

  /// Messages classified as delayed, waiting for their due epoch. A
  /// message sent during epoch e's predefined phase is normally consumed
  /// at begin_epoch(e + 1); delayed by k it carries due = e + 1 + k.
  template <typename T>
  struct Delayed {
    std::int64_t due;
    TorId owner;
    T msg;
  };
  // Only requests and accepts can usefully arrive late: demand is
  // persistent (§3.5) so a stale request is just a fresh one, and a stale
  // accept only feeds the stateful variant's reconciliation. Delayed
  // grants are discarded on classification — see deliver_grant_lossy.
  std::vector<Delayed<RequestMsg>> delayed_requests_;
  std::vector<Delayed<AcceptMsg>> delayed_accepts_;
};

/// Builds the scheduler variant requested by `config.scheduler`.
/// (kOblivious is a different fabric, not a NegotiatorScheduler.)
std::unique_ptr<NegotiatorScheduler> make_negotiator_scheduler(
    const NetworkConfig& config, const FlatTopology& topo, Rng rng);

}  // namespace negotiator
