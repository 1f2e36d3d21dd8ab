#include "oblivious/oblivious_scheduler.h"

#include <algorithm>

#include "common/assert.h"
#include "stats/resilience_recorder.h"
#include "topo/topology_factory.h"

namespace negotiator {

ObliviousFabric::ObliviousFabric(const NetworkConfig& config,
                                 Nanos stats_window_ns)
    : config_(config),
      topo_(make_topology(config)),
      rotor_(config.topology, config.num_tors, config.ports_per_tor,
             config.epoch.guardband_ns + config.epoch.scheduled_slot_ns),
      goodput_(config.num_tors, stats_window_ns),
      links_(config.num_tors, config.ports_per_tor),
      spread_ptr_(static_cast<std::size_t>(config.num_tors), 0),
      busy_(config.num_tors),
      advertised_congested_(
          static_cast<std::size_t>(config.num_tors) * config.num_tors, 0),
      peers_believe_congested_(static_cast<std::size_t>(config.num_tors),
                               0) {
  config_.validate();
  tors_.reserve(static_cast<std::size_t>(config_.num_tors));
  relay_.reserve(static_cast<std::size_t>(config_.num_tors));
  for (TorId t = 0; t < config_.num_tors; ++t) {
    tors_.emplace_back(t, config_.num_tors, config_.pias);
    relay_.emplace_back(config_.num_tors);
  }
  sim_.set_sink(this);

  // Lossy data plane + end-host ARQ: private salted stream, never built
  // when disabled (zero draws — the oblivious goldens pin this). The
  // auditor arms like the negotiator's MatchingValidator: on
  // validate_matching, and always in debug/sanitizer builds.
  if (config_.data_fault.enabled) {
    data_ = std::make_unique<DataChannel>(
        config_.data_fault,
        make_salted_stream(config_.seed, kDataChannelSeedSalt));
    if (config_.data_fault.arq) {
      transport_ = std::make_unique<HostTransport>(config_, &sim_.events());
    }
    bool validate = config_.validate_matching;
#ifndef NDEBUG
    validate = true;
#endif
    if (validate) {
      auditor_ =
          std::make_unique<ConservationAuditor>(config_.data_fault.arq);
    }
  }

  const int cycle = rotor_.cycle_slots();
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  conn_table_.assign(static_cast<std::size_t>(cycle) * n * ports,
                     SlotConn{kInvalidTor, kInvalidPort, 0, 0});
  for (int slot = 0; slot < cycle; ++slot) {
    for (TorId s = 0; s < n; ++s) {
      for (PortId p = 0; p < ports; ++p) {
        const TorId m = rotor_.dst_of(s, p, slot);
        if (m == kInvalidTor) continue;
        const PortId rx = topo_->rx_port(s, p, m);
        conn_table_[(static_cast<std::size_t>(slot) * n + s) * ports + p] =
            SlotConn{m, rx,
                     static_cast<std::uint32_t>(
                         links_.raw_index(s, p, LinkDirection::kEgress)),
                     static_cast<std::uint32_t>(
                         links_.raw_index(m, rx, LinkDirection::kIngress))};
      }
    }
  }
}

void ObliviousFabric::add_flow(const Flow& flow) {
  NEG_ASSERT(flow.arrival >= sim_.now(), "flow arrives in the past");
  const int index = flow_table_.add(flow);
  sim_.events().schedule_flow_arrival(flow.arrival, index);
}

void ObliviousFabric::on_flow_arrival(const FlowArrivalEvent& e, Nanos now) {
  const Flow& f = flow_table_.flow(e.flow_index);
  Flow queued = f;
  queued.id = e.flow_index;  // queues carry the dense index
  tors_[static_cast<std::size_t>(f.src)].accept_flow(queued, now);
  busy_.insert(f.src);
  if (data_) injected_bytes_ += f.size;  // conservation ledger
}

void ObliviousFabric::on_link_toggle(const LinkToggleEvent& e, Nanos now) {
  if (e.fail) {
    links_.fail(e.tor, e.port, e.dir);
  } else {
    links_.repair(e.tor, e.port, e.dir);
  }
  if (resilience_) {
    resilience_->on_link_toggle(now, e.tor, e.port, e.dir, e.fail);
  }
}

void ObliviousFabric::on_relay_handoff(const RelayHandoffEvent& e,
                                       Nanos now) {
  relay_[static_cast<std::size_t>(e.intermediate)].enqueue(e.final_dst,
                                                           e.flow, e.bytes,
                                                           now);
  busy_.insert(e.intermediate);
}

void ObliviousFabric::on_relay_train(const RelayTrainEvent& e,
                                     const RelayTrainChunk* chunks,
                                     Nanos now) {
  // A slot train interleaves intermediates (chunks ride in the slot's
  // (src, port) scan order), so the unpack is per chunk — exactly the
  // per-event handoff body it replaces, minus the per-event queue
  // overhead. Per-chunk FIFO order at every intermediate is preserved
  // because the span keeps the order the per-chunk events fired in.
  for (std::uint32_t i = 0; i < e.count; ++i) {
    const RelayTrainChunk& c = chunks[i];
    relay_[static_cast<std::size_t>(c.intermediate)].enqueue(
        c.final_dst, c.flow, c.bytes, now, c.seq);
    busy_.insert(c.intermediate);
    if (data_) transit_bytes_ -= c.bytes;  // landed: in-transit -> parked
  }
}

void ObliviousFabric::on_transport_timer(const TransportTimerEvent& e,
                                         Nanos now) {
  NEG_ASSERT(transport_ != nullptr, "transport timer without a transport");
  if (transport_->on_timer(e.flow_index, now)) {
    // Retransmit work keeps the unit's source in the dirty set until a
    // rotor connection towards its destination comes around.
    busy_.insert(transport_->flow_src(e.flow_index));
  }
}

void ObliviousFabric::schedule_data_loss(Nanos start, Nanos end,
                                         double drop_floor) {
  if (data_) data_->add_loss_window(start, end, drop_floor);
}

void ObliviousFabric::set_resilience(ResilienceRecorder* recorder) {
  FabricSim::set_resilience(recorder);
  if (data_) data_->set_recorder(recorder);
  if (transport_) transport_->set_recorder(recorder);
}

void ObliviousFabric::schedule_link_event(Nanos when, TorId tor, PortId port,
                                          LinkDirection dir, bool fail) {
  sim_.events().schedule_link_toggle(when,
                                     LinkToggleEvent{tor, port, dir, fail});
}

TorId ObliviousFabric::next_spread_dst(TorId src, TorId exclude) {
  const auto& active =
      tors_[static_cast<std::size_t>(src)].active_destinations();
  if (active.empty()) return kInvalidTor;
  TorId& ptr = spread_ptr_[static_cast<std::size_t>(src)];
  // Bitmap successor scan instead of a binary search over the sorted
  // view: this runs once per potential spread, i.e. millions of times.
  TorId d = active.next_member_after(ptr);
  for (std::size_t step = 0; step < active.size() + 1; ++step) {
    if (d == kInvalidTor) d = active.first_member();  // wrap around
    if (d != exclude) {
      ptr = d;
      return d;
    }
    d = active.next_member_after(d);
  }
  return kInvalidTor;
}

void ObliviousFabric::run_slot(std::int64_t global_slot) {
  sim_.advance_to(rotor_.slot_start(global_slot));
  // Rotor slots are the oblivious fabric's epochs: the channel samples
  // its loss-window floor and the transport drains matured acks here.
  if (data_) data_->begin_epoch(sim_.now());
  if (transport_) transport_->flush_acks(sim_.now());
  const Bytes payload = config_.scheduled_payload_bytes();
  const Nanos arrival = rotor_.slot_end(global_slot) +
                        config_.propagation_delay_ns;
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  const int slot = static_cast<int>(global_slot % rotor_.cycle_slots());
  const bool healthy = links_.all_up();
  // Snapshot the dirty set: sources can go quiet mid-slot (queues drain),
  // and a conn of an already-quiet source replicates the dense scan's
  // no-op exactly. Nothing can *join* mid-slot — arrivals fired during
  // advance_to, and handoffs land after the slot ends. Ascending order ==
  // the dense scan's (src, port) order restricted to the busy subset.
  busy_scratch_.assign(busy_.begin(), busy_.end());
  const SlotConn* const slot_base =
      conn_table_.data() + static_cast<std::size_t>(slot) * n * ports;
  for (const TorId s : busy_scratch_) {
    TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
    RelayQueueSet& parked = relay_[static_cast<std::size_t>(s)];
    const SlotConn* const conns = slot_base + static_cast<std::size_t>(s) * ports;
    for (PortId p = 0; p < ports; ++p) {
      const SlotConn& c = conns[p];
      const TorId m = c.dst;
      if (m == kInvalidTor) continue;
      if (!healthy &&
          !(links_.up_raw(c.tx_link) && links_.up_raw(c.rx_link))) {
        continue;
      }
      // The connection's framing advertises the sender's relay occupancy
      // to the receiver (used to gate future spreading towards s). Only
      // the congested boolean is observable through room checks.
      const std::uint8_t cong = congested(s) ? 1 : 0;
      auto& advert = advertised_congested_[static_cast<std::size_t>(m) * n + s];
      if (advert != cong) {
        advert = cong;
        peers_believe_congested_[static_cast<std::size_t>(s)] +=
            cong ? 1 : -1;
      }
      // 0. A pending retransmission for (s, m) outranks everything the
      // slot could otherwise carry (selective repeat: the lost unit is
      // the pair's oldest debt). Retransmissions go direct — never back
      // through a relay queue.
      if (transport_ && transport_->has_retx(s, m)) {
        const HostTransport::RetxChunk r =
            transport_->take_retx(s, m, sim_.now());
        if (data_->classify(DataHopClass::kFirstHop, r.bytes).deliver) {
          delivery_build_.push_back(
              DeliveryRecord{static_cast<FlowId>(r.flow), m, r.bytes,
                             r.seq});
        }
        continue;
      }
      // 1. Second hop: deliver relayed data whose final destination is m.
      // The span dequeue mutates the relay queue inline (congestion
      // adverts later this slot must see the drain); the delivery's
      // downstream effects ride the slot's staged span.
      if (parked.bytes_for(m) > 0) {
        RelayChunk chunk;
        if (parked.dequeue_span(m, payload, 1, &chunk) == 1) {
          bool deliver = true;
          if (data_) {
            deliver = data_->classify(DataHopClass::kSecondHop, chunk.bytes)
                          .deliver;
          }
          if (deliver) {
            delivery_build_.push_back(
                DeliveryRecord{chunk.flow, m, chunk.bytes, chunk.seq});
          }
          continue;
        }
      }
      // 2. VLB spread: detour the next backlogged destination through m.
      //    When the round-robin pointer lands on m itself the data goes
      //    direct (the lucky 1/N case of uniform spreading).
      // Congestion control: no spreading into a full intermediate buffer —
      // the slot idles until m drains (pure VLB waits for credit; there is
      // no adaptive fall-back to direct transmission in the baseline).
      const bool room =
          advertised_congested_[static_cast<std::size_t>(s) * n + m] == 0;
      if (!room) continue;
      const TorId d = next_spread_dst(s, kInvalidTor);
      if (d == kInvalidTor) continue;
      if (d == m) {
        if (auto pkt = tor.dequeue_packet(m, payload)) {
          // The lucky 1/N direct case: a plain first-hop transmission.
          std::uint32_t seq = 0;
          if (transport_) {
            seq = transport_->on_transmit(
                static_cast<std::int32_t>(pkt->flow), s, m, pkt->bytes,
                sim_.now());
          }
          bool deliver = true;
          if (data_) {
            deliver = data_->classify(DataHopClass::kFirstHop, pkt->bytes)
                          .deliver;
          }
          if (deliver) {
            delivery_build_.push_back(
                DeliveryRecord{pkt->flow, m, pkt->bytes, seq});
          }
        }
        continue;
      }
      if (auto pkt = tor.dequeue_packet(d, payload)) {
        // VLB leg 1 rides the lossy channel too; a chunk lost here never
        // reaches the intermediate (ARQ retransmits it direct later).
        std::uint32_t seq = 0;
        if (transport_) {
          seq = transport_->on_transmit(static_cast<std::int32_t>(pkt->flow),
                                        s, d, pkt->bytes, sim_.now());
        }
        bool deliver = true;
        if (data_) {
          deliver =
              data_->classify(DataHopClass::kRelay, pkt->bytes).deliver;
        }
        if (deliver) {
          if (data_) transit_bytes_ += pkt->bytes;
          goodput_.record_relay_reception(m, pkt->bytes, arrival);
          // Batched data plane: the chunk rides this slot's train instead
          // of becoming its own calendar event — appended straight into
          // the event queue's arena (zero staging), in the scan order the
          // per-chunk events used to fire in.
          sim_.events().append_train_chunk(
              RelayTrainChunk{m, d, pkt->flow, pkt->bytes, seq});
        }
      }
    }
    update_busy(s);
  }
  // Close the slot: staged deliveries land as one span (deliveries book
  // before the train's relay receptions unpack — separate accumulators,
  // shared timestamp, so sums are unchanged), then everything appended
  // above leaves as one train event at the shared arrival time (a no-op
  // when nothing spread this slot).
  flush_deliveries(arrival);
  sim_.events().commit_train(arrival);
  // Cycle boundary == the oblivious fabric's epoch boundary.
  if (auditor_ && slot == rotor_.cycle_slots() - 1) {
    audit_conservation(global_slot / rotor_.cycle_slots());
  }
}

void ObliviousFabric::audit_conservation(std::int64_t cycle) {
  ConservationLedger l;
  l.injected = injected_bytes_;
  for (const TorSwitch& t : tors_) l.source_queued += t.total_pending();
  l.delivered = flow_table_.total_delivered();
  if (transport_) {
    l.arq_unresolved = transport_->unresolved_bytes();
    l.arq_delivered = transport_->delivered_bytes();
    l.arq_abandoned = transport_->abandoned_bytes();
  } else {
    for (const RelayQueueSet& r : relay_) l.relay_parked += r.total_bytes();
    l.in_transit = transit_bytes_;
    l.dropped = data_->dropped_bytes();
    l.corrupted = data_->corrupted_bytes();
  }
  auditor_->check(cycle, l);
}

void ObliviousFabric::flush_deliveries(Nanos arrival) {
  if (delivery_build_.empty()) return;
  if (transport_) {
    // Receiver-side ARQ filter: only a unit's first arrival is credited;
    // duplicates and copies of abandoned units vanish here.
    std::size_t keep = 0;
    for (const DeliveryRecord& r : delivery_build_) {
      if (transport_->on_deliver(static_cast<std::int32_t>(r.flow), r.seq,
                                 r.bytes, arrival)) {
        delivery_build_[keep++] = r;
      }
    }
    delivery_build_.resize(keep);
    if (delivery_build_.empty()) return;
  }
  const std::size_t n = delivery_build_.size();
  if (resilience_ && links_.failed_count() > 0) {
    Bytes degraded = 0;
    for (const DeliveryRecord& r : delivery_build_) degraded += r.bytes;
    resilience_->on_degraded_delivery(degraded);
  }
  flow_table_.credit_span(delivery_build_.data(), n, arrival, fct_);
  goodput_.record_delivery_span(delivery_build_.data(), n, arrival);
  deliveries_ += n;
  ++delivery_dispatches_;
  delivery_build_.clear();
}

void ObliviousFabric::run_until(Nanos t) {
  while (rotor_.slot_start(next_slot_) < t) {
    run_slot(next_slot_);
    ++next_slot_;
  }
  if (t > sim_.now()) sim_.advance_to(t);
}

Bytes ObliviousFabric::total_backlog() const {
  Bytes total = 0;
  for (const TorSwitch& t : tors_) total += t.total_pending();
  for (const RelayQueueSet& r : relay_) total += r.total_bytes();
  // See NegotiatorFabric::total_backlog: every unresolved ARQ unit keeps
  // the drain loops advancing simulated time until its RTO fires and the
  // retransmission lands.
  if (transport_) total += transport_->unresolved_bytes();
  return total;
}

}  // namespace negotiator
