// The buffered side of a ToR: per-destination priority queues plus an
// "active destination" index so schedulers can iterate only over
// destinations with pending data. Queue state is structure-of-arrays: one
// DestQueueSet holds every destination's FIFOs in a shared segment arena
// with flat per-(destination, level) index/byte/HoL arrays, so the fabric's
// per-destination sweeps (pending bytes, HoL ages, level picks) are
// contiguous loads.
#pragma once

#include <cstddef>
#include <optional>

#include "common/active_set.h"
#include "common/config.h"
#include "common/types.h"
#include "tor/dest_queue.h"
#include "workload/flow.h"

namespace negotiator {

class TorSwitch {
 public:
  TorSwitch(TorId id, int num_tors, const PiasConfig& pias);

  TorId id() const { return id_; }
  int num_tors() const { return store_.num_queues(); }

  /// Buffers a flow that the hosts below pushed up (flow.src == id()).
  void accept_flow(const Flow& flow, Nanos now);

  /// Buffers raw bytes towards `dst` at `level` (retransmits, relay input).
  void enqueue_bytes(TorId dst, FlowId flow, Bytes bytes, Nanos now,
                     int level);

  /// Draws one packet bound for `dst` (highest priority first). Inline:
  /// called once per transmitted packet.
  std::optional<QueuedPacket> dequeue_packet(TorId dst, Bytes max_payload) {
    check_dst(dst);
    auto packet = store_.dequeue_packet(dst, max_payload);
    if (packet) {
      total_pending_ -= packet->bytes;
      note_dequeued(dst);
    }
    return packet;
  }

  /// Draws up to `max_packets` packets bound for `dst` exactly as that many
  /// sequential dequeue_packet calls would, with one occupancy/active-set
  /// update. Returns the number drawn — the bulk drain path for coalesced
  /// delivery walks.
  std::size_t dequeue_span(TorId dst, Bytes max_payload,
                           std::size_t max_packets, QueuedPacket* out) {
    check_dst(dst);
    const std::size_t n = store_.dequeue_span(dst, max_payload, max_packets,
                                              out);
    for (std::size_t i = 0; i < n; ++i) total_pending_ -= out[i].bytes;
    if (n > 0) note_dequeued(dst);
    return n;
  }

  /// Draws one packet of only the lowest-priority data (selective relay).
  std::optional<QueuedPacket> dequeue_elephant_packet(TorId dst,
                                                      Bytes max_payload);

  /// Puts a packet back at the head of its queue (failed transmission).
  void requeue_front(TorId dst, const QueuedPacket& packet);

  Bytes pending_to(TorId dst) const { return store_.total_bytes(dst); }
  Bytes total_pending() const { return total_pending_; }

  // Flat per-destination queue queries (the DemandView reads).
  int levels() const { return store_.levels(); }
  Bytes bytes_at_level(TorId dst, int level) const {
    return store_.bytes_at_level(dst, level);
  }
  Nanos hol_enqueue_time(TorId dst, int level) const {
    return store_.hol_enqueue_time(dst, level);
  }
  Nanos weighted_hol_delay(TorId dst, Nanos now, double alpha) const {
    return store_.weighted_hol_delay(dst, now, alpha);
  }
  Nanos oldest_hol_enqueue(TorId dst) const {
    return store_.oldest_hol_enqueue(dst);
  }

  /// Destinations with pending data, ascending. Cheap to iterate; only
  /// mutated when a queue flips between empty and non-empty.
  const ActiveSet& active_destinations() const { return active_; }

  const PiasConfig& pias() const { return pias_; }

 private:
  void check_dst(TorId dst) const {
    NEG_ASSERT(dst >= 0 && dst < num_tors() && dst != id_, "bad destination");
  }
  /// Enqueue-side active tracking: activates `dst` iff its queue was empty
  /// before the enqueue. The dequeue paths deactivate on drain.
  void note_enqueued(TorId dst, bool was_empty) {
    if (was_empty) active_.insert(dst);
  }
  void note_dequeued(TorId dst) {
    if (store_.empty(dst)) active_.erase(dst);
  }

  TorId id_;
  PiasConfig pias_;
  DestQueueSet store_;
  ActiveSet active_;
  Bytes total_pending_{0};
};

}  // namespace negotiator
