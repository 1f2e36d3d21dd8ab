#include "tor/host_transport.h"

#include <algorithm>


namespace negotiator {

HostTransport::HostTransport(const NetworkConfig& config, EventQueue* events)
    : num_tors_(config.num_tors),
      prop_delay_ns_(config.propagation_delay_ns),
      base_rto_ns_(static_cast<Nanos>(config.data_fault.rto_epochs *
                                      static_cast<double>(
                                          config.epoch_length_ns()))),
      rto_cap_ns_(static_cast<Nanos>(config.data_fault.rto_cap_epochs *
                                     static_cast<double>(
                                         config.epoch_length_ns()))),
      backoff_(config.data_fault.rto_backoff),
      max_retries_(config.data_fault.max_retries),
      events_(events),
      retx_(static_cast<std::size_t>(num_tors_) * num_tors_),
      retx_count_(static_cast<std::size_t>(num_tors_) * num_tors_, 0),
      retx_from_(static_cast<std::size_t>(num_tors_), 0),
      pair_listed_(static_cast<std::size_t>(num_tors_) * num_tors_, 0) {
  NEG_ASSERT(config.data_fault.enabled && config.data_fault.arq,
             "transport constructed with ARQ disabled");
  NEG_ASSERT(base_rto_ns_ > 0, "base RTO must be positive");
}

HostTransport::FlowState& HostTransport::flow_state(std::int32_t flow) {
  const auto i = static_cast<std::size_t>(flow);
  if (i >= flows_.size()) flows_.resize(i + 1);
  return flows_[i];
}

void HostTransport::arm_timer(FlowState& f, std::int32_t flow, Nanos when) {
  events_->schedule_transport_timer(when, TransportTimerEvent{flow});
  f.timer_armed = true;
}

std::uint32_t HostTransport::on_transmit(std::int32_t flow, TorId src,
                                         TorId dst, Bytes bytes, Nanos now) {
  NEG_ASSERT(bytes > 0, "cannot transmit zero bytes");
  FlowState& f = flow_state(flow);
  if (f.src == kInvalidTor) {
    f.src = src;
    f.dst = dst;
    f.rto = base_rto_ns_;
  }
  NEG_ASSERT(f.src == src && f.dst == dst, "flow endpoints changed");
  const std::uint32_t idx = end_idx(f);
  f.units.push_back(Unit{bytes, now, 1, kInFlight, false});
  unresolved_bytes_ += bytes;
  f.inflight.push_back(InflightEntry{idx, now});
  if (!f.timer_armed) arm_timer(f, flow, now + f.rto);
  return idx + 1;
}

bool HostTransport::on_deliver(std::int32_t flow, std::uint32_t seq,
                               Bytes bytes, Nanos now) {
  NEG_ASSERT(seq > 0, "delivery without a sequence number");
  FlowState& f = flow_state(flow);
  const std::uint32_t idx = seq - 1;
  if (idx < f.base) {
    // Retired: delivered and acked long ago. Only a unit sent more than
    // once can still have a copy in the network, and it left a record.
    const auto it = std::lower_bound(
        f.retired.begin(), f.retired.end(), idx,
        [](const RetiredUnit& r, std::uint32_t i) { return r.idx < i; });
    NEG_ASSERT(it != f.retired.end() && it->idx == idx,
               "second arrival of a retired single-copy unit");
    NEG_ASSERT(bytes == it->bytes, "partial delivery of an ARQ unit");
    ++spurious_retx_;
    return false;
  }
  NEG_ASSERT(idx < end_idx(f), "delivery for an unknown unit");
  Unit& u = unit(f, idx);
  // An ARQ unit is indivisible: a partial arrival means something split
  // a seq-carrying chunk in transit, which the conservation ledger
  // cannot represent.
  NEG_ASSERT(bytes == u.bytes, "partial delivery of an ARQ unit");
  if (u.delivered_rx || u.state == kAbandoned) {
    // Duplicate (a spurious retransmission's copy) or a copy of a unit
    // the sender already gave up on: the receiver discards it.
    ++spurious_retx_;
    return false;
  }
  u.delivered_rx = true;
  unresolved_bytes_ -= bytes;
  delivered_bytes_ += bytes;
  while (f.cum_rx < end_idx(f) && unit(f, f.cum_rx).delivered_rx) {
    ++f.cum_rx;
  }
  const Nanos effective = now + prop_delay_ns_;
  NEG_ASSERT(acks_.empty() || acks_.back().effective <= effective,
             "ack effective times must be non-decreasing");
  acks_.push_back(Ack{effective, flow, seq, f.cum_rx});
  return true;
}

bool HostTransport::resolve_ack(FlowState& f, std::uint32_t idx) {
  if (idx < f.base) return false;  // retired: acked before
  Unit& u = unit(f, idx);
  switch (u.state) {
    case kInFlight:
      u.state = kAcked;
      return true;
    case kRetxPending: {
      // Acked while waiting for a retransmit slot: the FIFO entry stays
      // behind as a stale record (skipped at pop); only counters move.
      u.state = kAcked;
      const std::size_t pair = pair_index(f.src, f.dst);
      --retx_count_[pair];
      --retx_from_[static_cast<std::size_t>(f.src)];
      --f.pending;
      retx_backlog_bytes_ -= u.bytes;
      return true;
    }
    case kAcked:
    case kAbandoned:
      return false;
  }
  return false;
}

void HostTransport::retire_acked(FlowState& f) {
  const std::size_t acked = f.cum_tx - f.base;
  if (acked == 0 || 2 * acked < f.units.size()) return;
  for (std::size_t i = 0; i < acked; ++i) {
    const Unit& u = f.units[i];
    if (u.attempts > 1) {
      f.retired.push_back(
          RetiredUnit{f.base + static_cast<std::uint32_t>(i), u.bytes});
    }
  }
  if (acked == f.units.size()) {
    // Everything sent is acked: every in-flight entry is stale too.
    std::vector<Unit>().swap(f.units);
    f.inflight.release();
  } else {
    f.units.erase(f.units.begin(),
                  f.units.begin() + static_cast<std::ptrdiff_t>(acked));
  }
  f.base = f.cum_tx;
}

void HostTransport::flush_acks(Nanos now) {
  while (!acks_.empty() && acks_.front().effective <= now) {
    const Ack a = acks_.front();
    acks_.pop_front();
    FlowState& f = flows_[static_cast<std::size_t>(a.flow)];
    bool progress = resolve_ack(f, a.seq - 1);
    // Cumulative part: everything below the receiver's contiguous
    // watermark is implicitly acked.
    for (std::uint32_t i = f.cum_tx; i < a.cum; ++i) {
      progress = resolve_ack(f, i) || progress;
    }
    f.cum_tx = std::max(f.cum_tx, a.cum);
    if (progress) {  // ack progress resets the backoff
      f.rto = base_rto_ns_;
      f.retries = 0;
    }
    retire_acked(f);
  }
}

bool HostTransport::prune_inflight(FlowState& f) {
  while (!f.inflight.empty()) {
    const InflightEntry& e = f.inflight.front();
    if (e.idx >= f.base) {
      const Unit& u = unit(f, e.idx);
      if (u.state == kInFlight && u.sent_at == e.sent_at) return true;
    }
    f.inflight.pop_front();  // stale: acked, abandoned, or re-sent since
  }
  return false;
}

void HostTransport::queue_retx(FlowState& f, std::int32_t flow,
                               std::uint32_t idx) {
  Unit& u = unit(f, idx);
  u.state = kRetxPending;
  const std::size_t pair = pair_index(f.src, f.dst);
  retx_[pair].push_back(RetxEntry{flow, idx});
  if (retx_count_[pair]++ == 0 && !pair_listed_[pair]) {
    pair_listed_[pair] = 1;
    retx_pairs_.push_back(static_cast<std::int32_t>(pair));
  }
  ++retx_from_[static_cast<std::size_t>(f.src)];
  ++f.pending;
  retx_backlog_bytes_ += u.bytes;
}

void HostTransport::abandon_flow(FlowState& f) {
  const std::size_t pair = pair_index(f.src, f.dst);
  for (Unit& u : f.units) {
    if (u.state == kAcked || u.state == kAbandoned) continue;
    if (u.state == kRetxPending) {
      --retx_count_[pair];
      --retx_from_[static_cast<std::size_t>(f.src)];
      --f.pending;
      retx_backlog_bytes_ -= u.bytes;
    }
    if (u.delivered_rx) {
      // Delivered, ack still in flight: the unit is resolved as far as
      // the ledger cares; fold it into acked so the late ack is a no-op.
      u.state = kAcked;
      continue;
    }
    u.state = kAbandoned;
    unresolved_bytes_ -= u.bytes;
    abandoned_bytes_ += u.bytes;
    ++abandoned_units_;
  }
}

bool HostTransport::on_timer(std::int32_t flow, Nanos now) {
  FlowState& f = flows_[static_cast<std::size_t>(flow)];
  f.timer_armed = false;
  flush_acks(now);
  if (!prune_inflight(f)) return false;  // everything resolved meanwhile
  const Nanos earliest = f.inflight.front().sent_at + f.rto;
  if (earliest > now) {
    // Stale wakeup: the deadline moved (ack progress or retransmission
    // since this timer was armed). Re-arm at the real deadline.
    arm_timer(f, flow, earliest);
    return false;
  }
  ++rto_fires_;
  if (f.rto >= rto_cap_ns_) ++max_backoff_reached_;
  // Escalate toward abandonment only when every earlier retransmission
  // has actually been attempted: an expiry with units still waiting in
  // the pair FIFO means the fabric never got to the repair (starved
  // behind another flow's debt or a downed link) — back off and re-queue,
  // but the fire proves nothing about loss.
  if (f.pending == 0 && ++f.retries > max_retries_) {
    abandon_flow(f);
    return false;
  }
  bool moved = false;
  while (prune_inflight(f)) {
    const InflightEntry e = f.inflight.front();
    if (e.sent_at + f.rto > now) break;  // later units have not expired
    queue_retx(f, flow, e.idx);
    f.inflight.pop_front();
    moved = true;
  }
  f.rto = std::min(
      rto_cap_ns_,
      static_cast<Nanos>(static_cast<double>(f.rto) * backoff_));
  if (prune_inflight(f)) {
    arm_timer(f, flow, f.inflight.front().sent_at + f.rto);
  }
  return moved;
}

HostTransport::RetxChunk HostTransport::take_retx(TorId src, TorId dst,
                                                  Nanos now) {
  const std::size_t pair = pair_index(src, dst);
  NEG_ASSERT(retx_count_[pair] > 0, "take_retx on a pair with no work");
  Fifo<RetxEntry>& fifo = retx_[pair];
  for (;;) {
    NEG_ASSERT(!fifo.empty(),
               "retx count says live entries but the FIFO is drained");
    const RetxEntry e = fifo.front();
    fifo.pop_front();
    FlowState& f = flows_[static_cast<std::size_t>(e.flow)];
    // Stale: retired, or otherwise resolved while queued.
    if (e.idx < f.base) continue;
    Unit& u = unit(f, e.idx);
    if (u.state != kRetxPending) continue;
    --retx_count_[pair];
    --retx_from_[static_cast<std::size_t>(src)];
    --f.pending;
    retx_backlog_bytes_ -= u.bytes;
    u.state = kInFlight;
    u.sent_at = now;
    ++u.attempts;
    f.inflight.push_back(InflightEntry{e.idx, now});
    retransmitted_bytes_ += u.bytes;
    if (!f.timer_armed) arm_timer(f, e.flow, now + f.rto);
    return RetxChunk{e.flow, f.dst, u.bytes, e.idx + 1};
  }
}

std::size_t HostTransport::retained_units() const {
  std::size_t n = acks_.stored();
  for (const FlowState& f : flows_) {
    n += f.units.size() + f.retired.size() + f.inflight.stored();
  }
  return n;
}

}  // namespace negotiator
