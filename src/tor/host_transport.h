// End-host selective-repeat ARQ over the lossy data plane
// (core/data_channel.h): per-flow sequence numbering, receiver-side
// duplicate suppression over a reassembly bitmap, cumulative+selective
// acks returned on the host plane, and retransmit timers with
// exponential backoff riding the EventQueue calendar tier.
//
// Placement: the transport wraps every data transmission the fabrics
// make when DataFaultConfig::arq is on. on_transmit() stamps the chunk
// with the flow's next sequence number and tracks it as in flight;
// on_deliver() is consulted by the delivery flush before any flow credit
// happens (a duplicate or post-abandon copy is discarded there, so the
// FlowTable / goodput / host-plane paths only ever see each unit once);
// acks become effective one propagation delay after delivery and are
// drained by flush_acks() at epoch (negotiator) / slot (oblivious)
// boundaries and before any timer handling. An RTO expiry moves the
// flow's timed-out units to per-(src, dst) retransmit FIFOs that the
// fabrics serve *before* fresh queue data in their next slots for that
// pair — a retransmission is a first-hop transmission like any other
// (it redraws the channel and can be lost again).
//
// Timers are lazy, one armed timer per flow at most: a fire first
// flushes acks, re-derives the flow's earliest real deadline, and either
// re-arms (stale wakeup — not counted) or declares a genuine RTO: every
// timed-out unit moves to the retransmit FIFO, the flow's RTO doubles
// (rto_backoff) up to rto_cap_epochs, and max_retries consecutive
// expiries without ack progress abandon the flow's outstanding units
// (terminal, like a non-ARQ drop). Any ack progress resets the backoff.
// An expiry that finds an earlier retransmission of the flow still
// waiting in its FIFO proves congestion, not loss — the fabric has not
// yet attempted the repair (starved behind another flow's debt on the
// shared pair FIFO, or behind a downed link) — so it backs off and
// re-queues but does not count toward max_retries.
//
// Like the data channel, the transport follows the disabled-≡-never-
// constructed contract: with ARQ off it is never built, every chunk
// keeps seq 0, and all golden fingerprints are byte-identical.
//
// Determinism: the transport draws no randomness at all — its state is a
// pure function of the transmission/delivery/timer sequence the fabric
// feeds it, so fixed-seed runs are bit-identical.
//
// Memory: O(unresolved window + multi-copy retired units) per flow, not
// O(units ever sent). A flow stores its units as a window [base, end)
// with base <= cum_tx, the sender's cumulative ack. Every unit below
// cum_tx is settled for good: the receiver's contiguous watermark only
// passes units it delivered (an abandoned unit is never delivered, so it
// stops the watermark), and the ack carrying that watermark has resolved
// them all to acked. Nothing but a late duplicate copy can refer to such
// a unit again, so the acked prefix is retired once it is at least half
// the window, and the flow's vectors are freed outright when everything
// it sent is acked. A retired unit that was sent once has no copy left
// in the network; one sent more than once keeps a {idx, bytes} record,
// so a late duplicate still passes the unit-size check and is counted
// spurious. The ack queue, per-flow in-flight lists and retransmit FIFOs
// drop their consumed prefix once it is half their storage. A flow with
// an abandoned unit keeps its window from that unit on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace negotiator {

class HostTransport {
 public:
  /// `events` outlives the transport; timers are scheduled through it.
  HostTransport(const NetworkConfig& config, EventQueue* events);

  HostTransport(const HostTransport&) = delete;
  HostTransport& operator=(const HostTransport&) = delete;

  /// One unit handed back to the fabric for retransmission.
  struct RetxChunk {
    std::int32_t flow;
    TorId dst;
    Bytes bytes;
    std::uint32_t seq;
  };

  /// Registers one fresh transmission of `bytes` for `flow` (dense
  /// FlowTable index) and returns the wire sequence number to stamp into
  /// the chunk (1-based; 0 means "no transport"). Arms the flow's RTO
  /// timer if none is pending.
  std::uint32_t on_transmit(std::int32_t flow, TorId src, TorId dst,
                            Bytes bytes, Nanos now);

  /// Receiver side, consulted by the delivery flush before flow credit.
  /// Returns true when this is the unit's first arrival (credit it);
  /// false for a duplicate or post-abandon copy (discard — counted as
  /// spurious). Queues the unit's ack, effective one propagation delay
  /// after `now`.
  bool on_deliver(std::int32_t flow, std::uint32_t seq, Bytes bytes,
                  Nanos now);

  /// Drains every ack whose effective time is <= now into sender state.
  void flush_acks(Nanos now);

  /// Timer-expiry hook (EventSink::on_transport_timer forwards here).
  /// Returns true when the fire moved units into a retransmit FIFO —
  /// the fabric then re-gathers the pair for service.
  bool on_timer(std::int32_t flow, Nanos now);

  bool has_retx(TorId src, TorId dst) const {
    return retx_count_[pair_index(src, dst)] > 0;
  }
  /// Any pair out of `src` with retransmit work (oblivious busy-set).
  bool has_retx_from(TorId src) const {
    return retx_from_[static_cast<std::size_t>(src)] > 0;
  }
  /// Pops the next retransmittable unit for (src, dst) and re-marks it in
  /// flight at `now`. Requires has_retx(src, dst). The caller owns the
  /// physical transmission (channel classify + delivery staging).
  RetxChunk take_retx(TorId src, TorId dst, Nanos now);

  /// Visits every (src, dst) pair that currently has retransmit work —
  /// the fabric's epoch-start gather — compacting the drained pairs out
  /// of the active list as it goes.
  template <typename Fn>
  void for_each_retx_pair(Fn&& fn) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < retx_pairs_.size(); ++i) {
      const std::int32_t pair = retx_pairs_[i];
      if (retx_count_[static_cast<std::size_t>(pair)] > 0) {
        retx_pairs_[keep++] = pair;
        fn(static_cast<TorId>(pair / num_tors_),
           static_cast<TorId>(pair % num_tors_));
      } else {
        pair_listed_[static_cast<std::size_t>(pair)] = 0;
      }
    }
    retx_pairs_.resize(keep);
  }

  TorId flow_src(std::int32_t flow) const {
    return flows_[static_cast<std::size_t>(flow)].src;
  }
  TorId flow_dst(std::int32_t flow) const {
    return flows_[static_cast<std::size_t>(flow)].dst;
  }

  // Conservation ledger (engine/conservation_auditor.h). Every
  // transmitted unit is in exactly one bucket: unresolved (somewhere
  // between first transmit and its first arrival — in flight, parked at
  // a relay, dropped awaiting RTO, or queued for retransmit), delivered
  // (first copy credited), or abandoned.
  Bytes unresolved_bytes() const { return unresolved_bytes_; }
  Bytes delivered_bytes() const { return delivered_bytes_; }
  Bytes abandoned_bytes() const { return abandoned_bytes_; }
  /// Subset of unresolved sitting in retransmit FIFOs. The fabrics fold
  /// all of unresolved_bytes() into total_backlog() so drain loops keep
  /// simulated time moving while RTO timers are pending; this getter
  /// isolates the part already queued for a retransmit slot.
  Bytes retx_backlog_bytes() const { return retx_backlog_bytes_; }

  Bytes retransmitted_bytes() const { return retransmitted_bytes_; }
  std::int64_t spurious_retx() const { return spurious_retx_; }
  std::int64_t rto_fires() const { return rto_fires_; }
  std::int64_t max_backoff_reached() const { return max_backoff_reached_; }
  std::int64_t abandoned_units() const { return abandoned_units_; }

  /// Entries the transport stores, summed over every flow: window units,
  /// retired multi-copy records and in-flight entries, plus the ack queue
  /// (consumed FIFO prefixes not yet dropped included). A walk over all
  /// flows; tests use it to check the memory contract.
  std::size_t retained_units() const;

 private:
  /// Head-consumed FIFO: pops advance a head index, and the consumed
  /// prefix is dropped once it is at least half the storage, so storage
  /// stays within twice the live entries (amortised O(1) per pop).
  template <typename T>
  class Fifo {
   public:
    bool empty() const { return head_ == items_.size(); }
    /// Entries held: the live ones plus a not yet dropped consumed prefix.
    std::size_t stored() const { return items_.size(); }
    const T& front() const { return items_[head_]; }
    const T& back() const { return items_.back(); }
    void push_back(const T& item) { items_.push_back(item); }
    void pop_front() {
      if (++head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    /// Drops every entry and frees the storage.
    void release() {
      std::vector<T>().swap(items_);
      head_ = 0;
    }

   private:
    std::vector<T> items_;
    std::size_t head_{0};
  };

  enum UnitState : std::uint8_t {
    kInFlight,     // transmitted, awaiting ack
    kRetxPending,  // RTO expired, queued for a retransmit slot
    kAcked,        // sender saw the ack (terminal)
    kAbandoned,    // max_retries exceeded (terminal)
  };

  struct Unit {
    Bytes bytes;
    Nanos sent_at;
    std::uint16_t attempts{0};
    std::uint8_t state{kInFlight};
    bool delivered_rx{false};  // receiver reassembly bitmap
  };

  /// In-flight bookkeeping entry; stale once the unit left kInFlight or
  /// was retransmitted (sent_at moved) or retired — validity is
  /// re-checked lazily.
  struct InflightEntry {
    std::uint32_t idx;
    Nanos sent_at;
  };

  /// A retired unit that was sent more than once: a late copy may still
  /// arrive and must match the unit's size.
  struct RetiredUnit {
    std::uint32_t idx;
    Bytes bytes;
  };

  struct FlowState {
    TorId src{kInvalidTor};
    TorId dst{kInvalidTor};
    std::uint32_t base{0};    // units[i] is unit base + i (seq base + i + 1)
    std::vector<Unit> units;  // window [base, end); below base: retired
    std::vector<RetiredUnit> retired;  // multi-copy retired units, idx-sorted
    Fifo<InflightEntry> inflight;      // sent_at non-decreasing
    std::uint32_t cum_rx{0};  // receiver: units [0, cum_rx) delivered
    std::uint32_t cum_tx{0};  // sender: units [0, cum_tx) acked
    std::int32_t pending{0};  // units currently kRetxPending (FIFO-queued)
    Nanos rto{0};
    int retries{0};
    bool timer_armed{false};
  };

  struct Ack {
    Nanos effective;
    std::int32_t flow;
    std::uint32_t seq;
    std::uint32_t cum;  // receiver's cum_rx at delivery time
  };

  struct RetxEntry {
    std::int32_t flow;
    std::uint32_t idx;
  };

  std::size_t pair_index(TorId src, TorId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(num_tors_) +
           static_cast<std::size_t>(dst);
  }
  FlowState& flow_state(std::int32_t flow);
  static std::uint32_t end_idx(const FlowState& f) {
    return f.base + static_cast<std::uint32_t>(f.units.size());
  }
  /// Requires base <= idx < end_idx(f).
  static Unit& unit(FlowState& f, std::uint32_t idx) {
    return f.units[idx - f.base];
  }
  void arm_timer(FlowState& f, std::int32_t flow, Nanos when);
  /// Drops stale head entries; true when a valid head remains.
  bool prune_inflight(FlowState& f);
  /// Sender-side ack for one unit; true when it resolved a live unit.
  bool resolve_ack(FlowState& f, std::uint32_t idx);
  void queue_retx(FlowState& f, std::int32_t flow, std::uint32_t idx);
  void abandon_flow(FlowState& f);
  /// Drops the acked prefix [base, cum_tx) once it is at least half the
  /// window, keeping a record of each multi-copy unit in it.
  void retire_acked(FlowState& f);

  int num_tors_;
  Nanos prop_delay_ns_;
  Nanos base_rto_ns_;
  Nanos rto_cap_ns_;
  double backoff_;
  int max_retries_;
  EventQueue* events_;

  std::vector<FlowState> flows_;
  Fifo<Ack> acks_;  // effective-time ordered
  /// One retransmit FIFO per (src, dst), [src * N + dst]; entries may be
  /// stale (acked or abandoned while queued) and are skipped at pop —
  /// retx_count_ holds the live-entry truth.
  std::vector<Fifo<RetxEntry>> retx_;
  std::vector<std::int64_t> retx_count_;  // live entries per pair
  std::vector<std::int64_t> retx_from_;   // live entries per source ToR
  std::vector<std::int32_t> retx_pairs_;  // pairs possibly live (compacted)
  std::vector<std::uint8_t> pair_listed_;

  Bytes unresolved_bytes_{0};
  Bytes delivered_bytes_{0};
  Bytes abandoned_bytes_{0};
  Bytes retx_backlog_bytes_{0};
  Bytes retransmitted_bytes_{0};
  std::int64_t spurious_retx_{0};
  std::int64_t rto_fires_{0};
  std::int64_t max_backoff_reached_{0};
  std::int64_t abandoned_units_{0};
};

}  // namespace negotiator
