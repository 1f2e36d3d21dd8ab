// Relay queues at an intermediate ToR: data received on behalf of another
// destination, awaiting its second hop. Plain FIFOs — the paper's priority
// mechanism "does not apply to data at intermediate nodes" (§4.1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/active_set.h"
#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

struct RelayChunk {
  FlowId flow;
  Bytes bytes;
  Nanos received_at;
  /// ARQ sequence number (see tor/host_transport.h). 0 with the transport
  /// disabled; seq-carrying chunks never coalesce across distinct seqs,
  /// so each one stays a retransmittable unit through its second hop.
  std::uint32_t seq{0};
};

/// Relay queues for one ToR, indexed by final destination.
///
/// Storage is one chunk arena per ToR: a free-list-recycled flat vector of
/// 32-byte nodes (grown on demand and kept), threaded into one singly
/// linked FIFO per destination. Each destination's FIFO is a packed
/// 16-byte header {head, tail, bytes}, so the byte count a fabric checks
/// before a dequeue and the head index the dequeue follows share a cache
/// line, and a new chunk for any destination reuses the most recently
/// freed (cache-warm) node. Occupancy is a TorBitmap, so marking or
/// clearing a destination costs one bit flip on the enqueue/drain path.
class RelayQueueSet {
 public:
  explicit RelayQueueSet(int num_tors);

  /// Inline: the oblivious fabric enqueues one chunk per spread packet —
  /// millions per run.
  void enqueue(TorId final_dst, FlowId flow, Bytes bytes, Nanos now,
               std::uint32_t seq = 0) {
    NEG_ASSERT(bytes > 0, "cannot relay zero bytes");
    Queue& q = queue(final_dst);
    if (q.tail < 0) {
      q.head = q.tail = alloc(flow, bytes, now, seq);
      active_.insert(final_dst);
    } else if (arena_[static_cast<std::size_t>(q.tail)].flow == flow &&
               arena_[static_cast<std::size_t>(q.tail)].seq == seq) {
      arena_[static_cast<std::size_t>(q.tail)].bytes += bytes;
    } else {
      // alloc may grow the arena: link through the index, not a reference.
      const std::int32_t node = alloc(flow, bytes, now, seq);
      arena_[static_cast<std::size_t>(q.tail)].next = node;
      q.tail = node;
    }
    q.bytes += bytes;
    total_bytes_ += bytes;
  }

  /// Ingests one chunk train (each chunk bound for its own final
  /// destination) at the train's arrival time `now`: n sequential
  /// enqueue() calls.
  void enqueue_span(const RelayTrainChunk* chunks, std::size_t n, Nanos now) {
    for (std::size_t i = 0; i < n; ++i) {
      enqueue(chunks[i].final_dst, chunks[i].flow, chunks[i].bytes, now,
              chunks[i].seq);
    }
  }

  /// At most `max_payload` bytes of one flow bound for `final_dst`.
  /// Inline: called once per second-hop packet.
  std::optional<RelayChunk> dequeue_packet(TorId final_dst,
                                           Bytes max_payload) {
    RelayChunk out;
    if (dequeue_span(final_dst, max_payload, 1, &out) == 0) {
      return std::nullopt;
    }
    return out;
  }

  /// Draws up to `max_packets` packets (each at most `max_payload` bytes of
  /// one flow) bound for `final_dst`, exactly as that many sequential
  /// dequeue_packet calls would — same packets, same partial takes — with
  /// one per-destination byte delta, one total update and one active-set
  /// check for the whole span. Returns the number drawn.
  std::size_t dequeue_span(TorId final_dst, Bytes max_payload,
                           std::size_t max_packets, RelayChunk* out) {
    NEG_ASSERT(max_payload > 0, "packet payload must be positive");
    Queue& q = queue(final_dst);
    Bytes taken = 0;
    std::size_t n = 0;
    while (n < max_packets && q.head >= 0) {
      Node& head = arena_[static_cast<std::size_t>(q.head)];
      const Bytes take = std::min(head.bytes, max_payload);
      // A seq-carrying chunk is an indivisible ARQ unit: it was sized at
      // most one payload at transmit time and never coalesces across
      // seqs, so the partial-take split below can only hit seq-0 chunks.
      NEG_ASSERT(head.seq == 0 || take == head.bytes,
                 "cannot split a seq-carrying relay chunk");
      out[n++] = RelayChunk{head.flow, take, head.received_at, head.seq};
      head.bytes -= take;
      taken += take;
      if (head.bytes == 0) {
        // Drained node: unlink the head and recycle its arena slot.
        const std::int32_t drained = q.head;
        q.head = head.next;
        head.next = free_head_;
        free_head_ = drained;
      }
    }
    if (n == 0) return 0;
    q.bytes -= taken;
    total_bytes_ -= taken;
    if (q.head < 0) {
      q.tail = -1;
      active_.erase(final_dst);
    }
    return n;
  }

  Bytes bytes_for(TorId final_dst) const { return queue(final_dst).bytes; }
  Bytes total_bytes() const { return total_bytes_; }
  bool empty_for(TorId final_dst) const { return bytes_for(final_dst) == 0; }

  /// Final destinations with parked bytes, walked ascending. Dirty-set
  /// invariant: enqueue() sets the destination's bit on the empty ->
  /// non-empty flip and dequeue_span() clears it on drain, each O(1); a
  /// full walk costs O(N/64 + active).
  const TorBitmap& active_destinations() const { return active_; }

 private:
  struct Node {
    FlowId flow;
    Bytes bytes;
    Nanos received_at;
    std::uint32_t seq;
    std::int32_t next;  // arena index of the next node; -1 at the tail
  };
  struct Queue {
    std::int32_t head{-1};  // arena index of the FIFO head; -1 when empty
    std::int32_t tail{-1};
    Bytes bytes{0};
  };

  Queue& queue(TorId final_dst) {
    return queues_[static_cast<std::size_t>(final_dst)];
  }
  const Queue& queue(TorId final_dst) const {
    return queues_[static_cast<std::size_t>(final_dst)];
  }

  std::int32_t alloc(FlowId flow, Bytes bytes, Nanos now, std::uint32_t seq) {
    if (free_head_ >= 0) {
      const std::int32_t node = free_head_;
      Node& slot = arena_[static_cast<std::size_t>(node)];
      free_head_ = slot.next;
      slot = Node{flow, bytes, now, seq, -1};
      return node;
    }
    arena_.push_back(Node{flow, bytes, now, seq, -1});
    return static_cast<std::int32_t>(arena_.size()) - 1;
  }

  std::vector<Queue> queues_;  // per final destination
  std::vector<Node> arena_;    // shared by all queues; free list recycles
  std::int32_t free_head_{-1};
  TorBitmap active_;
  Bytes total_bytes_{0};
};

}  // namespace negotiator
