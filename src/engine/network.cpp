#include "engine/network.h"

#include <algorithm>

#include "common/assert.h"
#include "oblivious/oblivious_scheduler.h"
#include "stats/resilience_recorder.h"
#include "topo/topology_factory.h"

namespace negotiator {

// ---------------------------------------------------------------- FlowTable

int FlowTable::add(const Flow& flow) {
  NEG_ASSERT(flow.size > 0, "flow must carry data");
  NEG_ASSERT(flow.src != flow.dst, "self flows not modelled");
  states_.push_back(State{flow, 0, false});
  return static_cast<int>(states_.size()) - 1;
}

const Flow& FlowTable::flow(int index) const {
  return states_[static_cast<std::size_t>(index)].flow;
}

bool FlowTable::done(int index) const {
  return states_[static_cast<std::size_t>(index)].done;
}

void FlowTable::credit(int index, Bytes bytes, Nanos arrival,
                       FctRecorder& fct) {
  State& s = states_[static_cast<std::size_t>(index)];
  NEG_ASSERT(!s.done, "delivery to a completed flow");
  s.delivered += bytes;
  total_delivered_ += bytes;
  NEG_ASSERT(s.delivered <= s.flow.size, "over-delivery");
  if (s.delivered == s.flow.size) {
    s.done = true;
    fct.record(FctSample{s.flow.id, s.flow.size, s.flow.arrival,
                         arrival - s.flow.arrival, s.flow.group});
  }
}

void FlowTable::credit_span(const DeliveryRecord* records, std::size_t n,
                            Nanos arrival, FctRecorder& fct) {
  completed_scratch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    State& s = states_[static_cast<std::size_t>(records[i].flow)];
    NEG_ASSERT(!s.done, "delivery to a completed flow");
    s.delivered += records[i].bytes;
    total_delivered_ += records[i].bytes;
    NEG_ASSERT(s.delivered <= s.flow.size, "over-delivery");
    if (s.delivered == s.flow.size) {
      s.done = true;
      completed_scratch_.push_back(
          FctSample{s.flow.id, s.flow.size, s.flow.arrival,
                    arrival - s.flow.arrival, s.flow.group});
    }
  }
  fct.record_span(completed_scratch_.data(), completed_scratch_.size());
}

// ---------------------------------------------------------------- FabricSim

namespace {

const NetworkConfig& validated(const NetworkConfig& config) {
  config.validate();
  return config;
}

}  // namespace

FabricSim::FabricSim(const NetworkConfig& config, Nanos stats_window_ns)
    : config_(validated(config)),
      topo_(make_topology(config_)),
      goodput_(config_.num_tors, stats_window_ns),
      links_(config_.num_tors, config_.ports_per_tor) {
  tors_.reserve(static_cast<std::size_t>(config_.num_tors));
  for (TorId t = 0; t < config_.num_tors; ++t) {
    tors_.emplace_back(t, config_.num_tors, config_.pias);
  }
  sim_.set_sink(this);
  if (config_.data_fault.enabled) {
    data_ = std::make_unique<DataChannel>(
        config_.data_fault,
        make_salted_stream(config_.seed, kDataChannelSeedSalt));
    if (config_.data_fault.arq) {
      transport_ = std::make_unique<HostTransport>(config_, &sim_.events());
    }
    if (checks_armed()) {
      auditor_ =
          std::make_unique<ConservationAuditor>(config_.data_fault.arq);
    }
  }
}

void FabricSim::add_flow(const Flow& flow) {
  NEG_ASSERT(flow.arrival >= sim_.now(), "flow arrives in the past");
  NEG_ASSERT(flow.src >= 0 && flow.src < config_.num_tors &&
                 flow.dst >= 0 && flow.dst < config_.num_tors,
             "flow endpoints out of range");
  const int index = flow_table_.add(flow);
  sim_.events().schedule_flow_arrival(flow.arrival, index);
}

const Flow& FabricSim::accept_arrival(int flow_index, Nanos now) {
  const Flow& f = flow_table_.flow(flow_index);
  Flow queued = f;
  queued.id = flow_index;
  tors_[static_cast<std::size_t>(f.src)].accept_flow(queued, now);
  if (data_) injected_bytes_ += f.size;  // conservation ledger
  return f;
}

void FabricSim::on_link_toggle(const LinkToggleEvent& e, Nanos now) {
  if (e.fail) {
    links_.fail(e.tor, e.port, e.dir);
  } else {
    links_.repair(e.tor, e.port, e.dir);
  }
  if (resilience_) {
    resilience_->on_link_toggle(now, e.tor, e.port, e.dir, e.fail);
  }
}

void FabricSim::schedule_link_event(Nanos when, TorId tor, PortId port,
                                    LinkDirection dir, bool fail) {
  sim_.events().schedule_link_toggle(when,
                                     LinkToggleEvent{tor, port, dir, fail});
}

void FabricSim::schedule_data_loss(Nanos start, Nanos end,
                                   double drop_floor) {
  if (data_) data_->add_loss_window(start, end, drop_floor);
}

void FabricSim::flush_deliveries(Nanos arrival) {
  if (delivery_build_.empty()) return;
  if (transport_) {
    // Receiver-side ARQ filter: only a unit's first arrival survives to
    // the effects below; duplicates and copies of abandoned units vanish
    // here.
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
  if (links_.failed_count() > 0) {
    for (const DeliveryRecord& r : delivery_build_) {
      degraded_delivered_bytes_ += r.bytes;
    }
  }
  flow_table_.credit_span(delivery_build_.data(), n, arrival, fct_);
  goodput_.record_delivery_span(delivery_build_.data(), n, arrival);
  on_span_landed(delivery_build_.data(), n, arrival);
  deliveries_ += n;
  ++delivery_dispatches_;
  delivery_build_.clear();
}

FabricCounters FabricSim::counters() const {
  FabricCounters c;
  c.events_executed = static_cast<std::int64_t>(events_executed());
  c.events_dispatched = static_cast<std::int64_t>(events_dispatched());
  c.deliveries = static_cast<std::int64_t>(deliveries_);
  c.delivery_dispatches = static_cast<std::int64_t>(delivery_dispatches_);
  c.degraded_delivered_bytes = degraded_delivered_bytes_;
  if (resilience_) {
    c.failures = resilience_->failures();
    c.repairs = resilience_->repairs();
    c.exclusions = resilience_->exclusions();
    c.inclusions = resilience_->inclusions();
    c.detection_count = resilience_->detection().count;
    c.detection_sum_ns = resilience_->detection().sum;
    c.recovery_count = resilience_->recovery().count;
    c.recovery_sum_ns = resilience_->recovery().sum;
  }
  if (data_) {
    c.data_dropped = data_->dropped();
    c.data_corrupted = data_->corrupted();
    c.data_dropped_bytes = data_->dropped_bytes();
    c.data_corrupted_bytes = data_->corrupted_bytes();
  }
  if (transport_) {
    c.retransmitted_bytes = transport_->retransmitted_bytes();
    c.spurious_retx = transport_->spurious_retx();
    c.rto_fires = transport_->rto_fires();
    c.max_backoff_reached = transport_->max_backoff_reached();
    c.abandoned_units = transport_->abandoned_units();
  }
  if (auditor_) c.conservation_checks = auditor_->checks();
  return c;
}

void FabricSim::audit_conservation(std::int64_t index) {
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
  auditor_->check(index, l);
}

Bytes FabricSim::total_backlog() const {
  Bytes total = 0;
  for (const TorSwitch& t : tors_) total += t.total_pending();
  for (const RelayQueueSet& r : relay_) total += r.total_bytes();
  // Every ARQ unit between first transmit and first arrival — in flight,
  // dropped and awaiting its RTO, or queued for a retransmit slot — is
  // backlog the fabric still owes service to: drain loops must keep
  // simulated time moving until the pending timers fire and the
  // retransmissions land. (Chunks parked at a relay are counted by the
  // relay sum too; the overlap is harmless for a drain signal.)
  if (transport_) total += transport_->unresolved_bytes();
  return total;
}

// --------------------------------------------------------- NegotiatorFabric

NegotiatorFabric::NegotiatorFabric(const NetworkConfig& config,
                                   Nanos stats_window_ns)
    : FabricSim(config, stats_window_ns),
      schedule_(config.topology, config.num_tors, config.ports_per_tor),
      timing_(config),
      relay_enabled_(config.scheduler ==
                     SchedulerKind::kNegotiatorSelectiveRelay),
      faults_(config.num_tors, config.ports_per_tor),
      arrived_(static_cast<std::size_t>(config.num_tors) * config.num_tors,
               0),
      predef_buckets_(static_cast<std::size_t>(schedule_.slots())),
      predef_gather_stamp_(
          static_cast<std::size_t>(config.num_tors) * config.num_tors, -1),
      dropped_heads_(static_cast<std::size_t>(config.num_tors), -1),
      dropped_stamp_(static_cast<std::size_t>(config.num_tors), -1),
      active_sources_(config.num_tors),
      relay_active_(config.num_tors) {
  Rng rng(config_.seed);
  if (relay_enabled_) {
    relay_.reserve(static_cast<std::size_t>(config_.num_tors));
    for (TorId t = 0; t < config_.num_tors; ++t) {
      relay_.emplace_back(config_.num_tors);
    }
    train_build_.resize(static_cast<std::size_t>(config_.num_tors));
  }
  if (config_.host_plane.enabled) {
    host_plane_ = std::make_unique<HostPlane>(
        config_.num_tors, config_.host_rate(), config_.host_plane);
    pause_advertised_.assign(static_cast<std::size_t>(config_.num_tors),
                             false);
  }
  scheduler_ = make_negotiator_scheduler(config_, *topo_, rng.fork());

  // Lossy control plane: the channel's stream derives from the run seed
  // with a fixed salt, NOT from the fork chain above — forking would
  // advance `rng` and shift the scheduler's stream, breaking every
  // loss-free golden. Disabled -> never constructed -> zero draws.
  if (config_.control_fault.enabled) {
    control_ = std::make_unique<ControlChannel>(
        config_.control_fault,
        make_salted_stream(config_.seed, kControlChannelSeedSalt));
    scheduler_->set_control_channel(control_.get());
    if (config_.control_fault.fallback) {
      fb_tx_stamp_.assign(static_cast<std::size_t>(config_.num_tors) *
                              config_.ports_per_tor,
                          -1);
      fb_rx_stamp_.assign(fb_tx_stamp_.size(), -1);
      fb_starved_.assign(static_cast<std::size_t>(config_.num_tors), 0);
    }
  }
  if (checks_armed()) {
    validator_ = std::make_unique<MatchingValidator>(*topo_);
  }

  // rx ports are destination-independent in both topologies (parallel:
  // plane-preserving rx == tx; thin-clos: rx pinned by the source's
  // block), so resolve them through the virtual interface once instead of
  // per slot in the predefined hot loop.
  rx_port_table_.assign(
      static_cast<std::size_t>(config_.num_tors) * config_.ports_per_tor,
      kInvalidPort);
  for (TorId s = 0; s < config_.num_tors; ++s) {
    for (PortId p = 0; p < config_.ports_per_tor; ++p) {
      for (TorId d = 0; d < config_.num_tors; ++d) {
        if (d == s || !topo_->reachable(s, p, d)) continue;
        rx_port_table_[static_cast<std::size_t>(s) * config_.ports_per_tor +
                       p] = topo_->rx_port(s, p, d);
        break;
      }
    }
  }
}

void NegotiatorFabric::on_flow_arrival(const FlowArrivalEvent& e, Nanos now) {
  const Flow& f = accept_arrival(e.flow_index, now);
  active_sources_.insert(f.src);
  arrived_[static_cast<std::size_t>(f.src) * config_.num_tors + f.dst] +=
      f.size;
  // A flow landing mid-predefined-phase can piggyback on its pair's
  // not-yet-passed connection(s) this very epoch, exactly like the dense
  // scan would have picked it up.
  if (in_predefined_phase_ && config_.piggyback) {
    gather_predefined_pair(f.src, f.dst);
  }
  // A flow landing mid-scheduled-phase refills its pair's queue:
  // reactivate any matches for (src, dst) that were dropped as drained.
  // Sorted reinsertion keeps live_matches_ ascending, i.e. the dense visit
  // order.
  if (in_scheduled_phase_ &&
      dropped_stamp_[static_cast<std::size_t>(f.src)] == epoch_) {
    std::int32_t* link = &dropped_heads_[static_cast<std::size_t>(f.src)];
    while (*link >= 0) {
      const std::int32_t index = *link;
      if (sched_matches_[static_cast<std::size_t>(index)].m.dst == f.dst) {
        *link = dropped_next_[static_cast<std::size_t>(index)];
        live_matches_.insert(
            std::lower_bound(live_matches_.begin(), live_matches_.end(),
                             index),
            index);
      } else {
        link = &dropped_next_[static_cast<std::size_t>(index)];
      }
    }
  }
}

void NegotiatorFabric::on_relay_train(const RelayTrainEvent& e,
                                      const RelayTrainChunk* chunks,
                                      Nanos now) {
  NEG_ASSERT(relay_enabled_, "relay train without selective relay");
  // The scheduled phase ships one train per (slot, intermediate), so a
  // span is normally a single run; the run loop keeps mixed spans correct
  // anyway. Each run lands through RelayQueueSet::enqueue_span.
  std::uint32_t i = 0;
  while (i < e.count) {
    const TorId inter = chunks[i].intermediate;
    std::uint32_t j = i + 1;
    while (j < e.count && chunks[j].intermediate == inter) ++j;
    relay_[static_cast<std::size_t>(inter)].enqueue_span(chunks + i, j - i,
                                                         now);
    relay_active_.insert(inter);
    i = j;
  }
  if (data_) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      transit_bytes_ -= chunks[k].bytes;  // landed: in-transit -> parked
    }
  }
}

void NegotiatorFabric::schedule_control_brownout(Nanos start, Nanos end,
                                                 double drop_floor) {
  // Tolerated without a channel (a loss-free fabric simply has no control
  // plane to brown out) so scenarios with brownout specs install cleanly
  // on any fabric, mirroring the base-class default.
  if (control_) control_->add_brownout(start, end, drop_floor);
}

FabricCounters NegotiatorFabric::counters() const {
  FabricCounters c = FabricSim::counters();
  c.total_matches = total_matches_;
  c.match_slots_offered = match_slots_offered_;
  c.match_slots_used = match_slots_used_;
  c.piggyback_packets = piggyback_packets_;
  c.blackholed_bytes = blackholed_bytes_;
  if (control_) {
    c.control_dropped = control_->dropped();
    c.control_delayed = control_->delayed();
    c.control_duplicated = control_->duplicated();
  }
  c.control_grants = control_grants_;
  c.control_accepts = control_accepts_;
  c.degraded_slots = degraded_slots_;
  c.fallback_bytes = fallback_bytes_;
  return c;
}

void NegotiatorFabric::on_transport_timer(const TransportTimerEvent& e,
                                          Nanos now) {
  NEG_ASSERT(transport_ != nullptr, "transport timer without a transport");
  if (transport_->on_timer(e.flow_index, now) && in_predefined_phase_) {
    // The fire moved units into a retransmit FIFO mid-predefined-phase:
    // re-gather the pair so a not-yet-passed connection can serve it this
    // very epoch (mirrors the mid-phase flow-arrival hook above).
    gather_predefined_pair(transport_->flow_src(e.flow_index),
                           transport_->flow_dst(e.flow_index));
  }
}

void NegotiatorFabric::on_span_landed(const DeliveryRecord* records,
                                      std::size_t n, Nanos arrival) {
  if (!host_plane_) return;
  // Same per-record order and shared timestamp as per-packet delivery, so
  // the receive-buffer trajectory is identical.
  for (std::size_t i = 0; i < n; ++i) {
    host_plane_->on_delivery(records[i].dst, records[i].bytes, arrival);
  }
}

void NegotiatorFabric::run_until(Nanos t) {
  while (timing_.epoch_start(epoch_) < t) run_epoch();
  // The last epoch may have carried the clock past t already.
  if (t > sim_.now()) sim_.advance_to(t);
}

void NegotiatorFabric::run_epoch() {
  sim_.advance_to(timing_.epoch_start(epoch_));
  if (host_plane_) {
    // Pause bits ride the previous predefined phase's dummy messages; the
    // epoch-start snapshot is what senders know this epoch.
    for (TorId t = 0; t < config_.num_tors; ++t) {
      pause_advertised_[static_cast<std::size_t>(t)] =
          host_plane_->rx_paused(t, sim_.now());
    }
  }
  if (control_) control_->begin_epoch(sim_.now());
  if (data_) data_->begin_epoch(sim_.now());
  if (transport_) transport_->flush_acks(sim_.now());
  scheduler_->begin_epoch(epoch_, sim_.now(), *this, faults_);
  if (validator_) {
    NEG_ASSERT(validator_->validate(scheduler_->matches(), epoch_),
               validator_->error().c_str());
  }

  // Match ratio (Fig. 14): the accepts of epoch e answer the grants issued
  // in epoch e-1.
  if (prev_epoch_grants_ > 0) {
    ratio_series_.push_back(static_cast<double>(scheduler_->epoch_accepts()) /
                            static_cast<double>(prev_epoch_grants_));
  }
  if (control_) {
    control_grants_ += static_cast<std::int64_t>(prev_epoch_grants_);
    control_accepts_ +=
        static_cast<std::int64_t>(scheduler_->epoch_accepts());
  }
  prev_epoch_grants_ = scheduler_->epoch_grants();

  run_predefined_phase();
  run_scheduled_phase();
  faults_.end_epoch(resilience_, sim_.now());
  if (auditor_) audit_conservation(epoch_);
  ++epoch_;
}

NegotiatorFabric::PredefConn NegotiatorFabric::resolve_predef_conn(
    TorId src, PortId tx, TorId dst) const {
  const PortId rx =
      rx_port_table_[static_cast<std::size_t>(src) * config_.ports_per_tor +
                     tx];
  return PredefConn{src,
                    tx,
                    dst,
                    rx,
                    static_cast<std::uint32_t>(
                        links_.raw_index(src, tx, LinkDirection::kEgress)),
                    static_cast<std::uint32_t>(
                        links_.raw_index(dst, rx, LinkDirection::kIngress))};
}

void NegotiatorFabric::gather_predefined_pair(TorId src, TorId dst) {
  const std::size_t index =
      static_cast<std::size_t>(src) * config_.num_tors + dst;
  if (predef_gather_stamp_[index] == epoch_) return;  // already bucketed
  predef_gather_stamp_[index] = epoch_;
  pair_conn_scratch_.clear();
  schedule_.pair_connections(src, dst, predef_rotation_, pair_conn_scratch_);
  for (const PredefinedSchedule::Connection& conn : pair_conn_scratch_) {
    if (conn.slot < predef_cursor_) continue;  // this slot already ran
    const PredefConn c = resolve_predef_conn(src, conn.tx_port, dst);
    auto& bucket = predef_buckets_[static_cast<std::size_t>(conn.slot)];
    // Keep the bucket sorted by (src, tx) — the dense scan's visit order.
    // Epoch-start gathering appends mostly in order; mid-phase arrivals
    // insert in place (rare).
    const auto pos = std::upper_bound(
        bucket.begin(), bucket.end(), c,
        [](const PredefConn& a, const PredefConn& b) {
          if (a.src != b.src) return a.src < b.src;
          return a.tx < b.tx;
        });
    bucket.insert(pos, c);
  }
}

void NegotiatorFabric::visit_predefined_conn(const PredefConn& c,
                                             bool healthy) {
  bool up = true;
  if (!healthy) {
    up = links_.up_raw(c.tx_link) && links_.up_raw(c.rx_link);
  }
  scheduler_->deliver_pair(c.src, c.dst, up);
  if (!healthy) {
    faults_.observe_ingress(c.dst, c.rx, up);
    faults_.observe_egress(c.src, c.tx, up);
  }
  // Bitmap membership == "queue non-empty": one bit read instead of a
  // pointer chase into the per-destination queue.
  TorSwitch& tor = tors_[static_cast<std::size_t>(c.src)];
  // Retransmissions outrank fresh piggyback data for the pair's slot
  // (selective repeat: the oldest lost unit is the flow's head of line).
  if (transport_ && up &&
      !(host_plane_ && pause_advertised_[static_cast<std::size_t>(c.dst)]) &&
      try_retransmit(c.src, c.dst, sim_.now())) {
    return;  // slot consumed by the retransmission
  }
  if (!config_.piggyback || !tor.active_destinations().contains(c.dst)) {
    return;
  }
  if (host_plane_ && pause_advertised_[static_cast<std::size_t>(c.dst)]) {
    return;  // §3.6.5: withhold data towards a paused receiver
  }
  if (up) {
    auto pkt = tor.dequeue_packet(c.dst, config_.piggyback_payload_bytes());
    NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
    ++piggyback_packets_;
    sync_source_activity(c.src);
    transmit_direct(pkt->flow, c.src, c.dst, pkt->bytes, sim_.now());
  } else if (!faults_.tx_excluded(c.src, c.tx) &&
             !faults_.rx_excluded(c.dst, c.rx)) {
    // Undetected failure: the packet is transmitted into a dark fibre
    // and retransmitted by the upper layer — model as a wasted slot
    // with the bytes back at the queue head.
    auto pkt = tor.dequeue_packet(c.dst, config_.piggyback_payload_bytes());
    if (pkt) {
      tor.requeue_front(c.dst, *pkt);
      blackholed_bytes_ += pkt->bytes;
    }
  }
}

void NegotiatorFabric::run_predefined_slot_dense(int slot) {
  // Unhealthy slot: the fault detector must observe every connection, so
  // resolve the full N×P slot on the fly (this path only runs while links
  // are down or the fault plane is settling).
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  for (TorId s = 0; s < n; ++s) {
    for (PortId p = 0; p < ports; ++p) {
      const TorId d = schedule_.dst_of(s, p, slot, predef_rotation_);
      if (d == kInvalidTor) continue;
      visit_predefined_conn(resolve_predef_conn(s, p, d), /*healthy=*/false);
    }
  }
}

void NegotiatorFabric::run_predefined_phase() {
  // Stride-17 rotation: with 16 slots per port, a +1 step would keep a
  // pair on the same physical link for 16 consecutive epochs, so a failed
  // link would black the pair out for long stretches. A co-prime stride
  // moves every pair to a different link every epoch (§3.6.1: "a pair of
  // ToRs [exchanges] scheduling messages through multiple port-to-port
  // links ... in subsequent epochs").
  predef_rotation_ =
      config_.rotate_predefined_rule
          ? static_cast<int>((epoch_ * 17) & 0x3fffffff)
          : 0;

  // Gather the epoch's interesting pairs: control messages first, then
  // piggyback-data pairs. Cost is O(messages + active pairs), not O(N^2).
  predef_cursor_ = 0;
  in_predefined_phase_ = true;
  for (auto& bucket : predef_buckets_) bucket.clear();
  for (const auto& [from, to] : scheduler_->epoch_out_pairs()) {
    gather_predefined_pair(from, to);
  }
  if (config_.piggyback) {
    for (const TorId s : active_sources_) {
      const TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
      for (const TorId d : tor.active_destinations()) {
        gather_predefined_pair(s, d);
      }
    }
  }
  if (transport_) {
    // Pairs with retransmit work ride predefined connections even when
    // piggyback is off — a retransmission is owed a slot regardless of
    // how the original unit was transmitted.
    transport_->for_each_retx_pair(
        [this](TorId s, TorId d) { gather_predefined_pair(s, d); });
  }

  for (int slot = 0; slot < timing_.predefined_slots(); ++slot) {
    predef_cursor_ = slot;
    sim_.advance_to(timing_.predefined_slot_start(epoch_, slot));
    const Nanos data_end = timing_.predefined_slot_data_end(epoch_, slot);
    // A slot's link events fired during advance_to, so health is stable
    // within the slot: on an all-up fabric with a quiescent fault plane,
    // per-pair health reads and all-healthy observations are skipped (see
    // FaultPlane::quiescent()).
    const bool healthy = links_.all_up() && faults_.quiescent();
    if (!healthy) {
      run_predefined_slot_dense(slot);
    } else {
      for (const PredefConn& c :
           predef_buckets_[static_cast<std::size_t>(slot)]) {
        visit_predefined_conn(c, /*healthy=*/true);
      }
    }
    // Close the slot: every piggyback delivery staged above shares this
    // arrival time, so the whole slot lands as one span.
    flush_deliveries(data_end + config_.propagation_delay_ns);
  }
  in_predefined_phase_ = false;
}

void NegotiatorFabric::prepare_fallback_epoch() {
  const int ports = config_.ports_per_tor;
  for (const ActiveMatch& a : sched_matches_) {
    fb_tx_stamp_[static_cast<std::size_t>(a.m.src) * ports + a.m.tx_port] =
        epoch_;
    fb_rx_stamp_[static_cast<std::size_t>(a.m.dst) * ports + a.m.rx_port] =
        epoch_;
  }
  // Candidate sources: active (pending direct data) but matched on no tx
  // port for kFallbackStarvationEpochs consecutive epochs. A one-epoch gap
  // is normal stateless-scheduling slack — rescuing it would steal the
  // head-of-line bytes the next epoch's grant is about to carry and waste
  // that grant on a drained queue. Persistent starvation is the control-
  // loss signature the fallback exists for. Ascending, so the per-slot
  // spread order is deterministic.
  fb_sources_.clear();
  for (TorId s = 0; s < config_.num_tors; ++s) {
    bool matched = false;
    for (PortId p = 0; p < ports; ++p) {
      if (fb_tx_stamp_[static_cast<std::size_t>(s) * ports + p] == epoch_) {
        matched = true;
        break;
      }
    }
    auto& starved = fb_starved_[static_cast<std::size_t>(s)];
    if (!matched && active_sources_.contains(s)) {
      ++starved;
    } else {
      starved = 0;
    }
    if (starved >= kFallbackStarvationEpochs) fb_sources_.push_back(s);
  }
}

void NegotiatorFabric::run_fallback_slot() {
  const Bytes payload = config_.scheduled_payload_bytes();
  const int ports = config_.ports_per_tor;
  // The rotor rule for a fixed (slot, rotation) is a port-to-port
  // matching, so fallback senders never collide with each other; the
  // epoch stamps exclude the ports real matches booked.
  const int slot =
      static_cast<int>(sched_slot_counter_ % schedule_.slots());
  const bool healthy = links_.all_up();
  bool sent = false;
  for (const TorId s : fb_sources_) {
    TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
    if (tor.active_destinations().empty()) continue;  // drained mid-phase
    for (PortId p = 0; p < ports; ++p) {
      if (fb_tx_stamp_[static_cast<std::size_t>(s) * ports + p] == epoch_) {
        continue;
      }
      const TorId d = schedule_.dst_of(s, p, slot, predef_rotation_);
      if (d == kInvalidTor) continue;
      const PortId rx =
          rx_port_table_[static_cast<std::size_t>(s) * ports + p];
      if (fb_rx_stamp_[static_cast<std::size_t>(d) * ports + rx] == epoch_) {
        continue;
      }
      if (!tor.active_destinations().contains(d)) continue;
      if (host_plane_ && pause_advertised_[static_cast<std::size_t>(d)]) {
        continue;  // §3.6.5: withhold data towards a paused receiver
      }
      if (!healthy &&
          !(links_.up_raw(links_.raw_index(s, p, LinkDirection::kEgress)) &&
            links_.up_raw(
                links_.raw_index(d, rx, LinkDirection::kIngress)))) {
        continue;
      }
      auto pkt = tor.dequeue_packet(d, payload);
      NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
      sync_source_activity(s);
      transmit_direct(pkt->flow, s, d, pkt->bytes, sim_.now());
      fallback_bytes_ += pkt->bytes;
      sent = true;
    }
  }
  if (sent) ++degraded_slots_;
}

void NegotiatorFabric::run_scheduled_phase() {
  const Bytes payload = config_.scheduled_payload_bytes();
  const Nanos prop = config_.propagation_delay_ns;

  sched_matches_.clear();
  sched_matches_.reserve(scheduler_->matches().size());
  for (const Match& m : scheduler_->matches()) {
    sched_matches_.push_back(ActiveMatch{
        m, m.relay ? m.relay_volume : 0,
        static_cast<std::uint32_t>(
            links_.raw_index(m.src, m.tx_port, LinkDirection::kEgress)),
        static_cast<std::uint32_t>(
            links_.raw_index(m.dst, m.rx_port, LinkDirection::kIngress))});
  }
  total_matches_ += static_cast<std::int64_t>(sched_matches_.size());
  match_slots_offered_ += static_cast<std::int64_t>(sched_matches_.size()) *
                          timing_.scheduled_slots();

  live_matches_.resize(sched_matches_.size());
  for (std::size_t i = 0; i < live_matches_.size(); ++i) {
    live_matches_[i] = static_cast<std::int32_t>(i);
  }
  dropped_next_.assign(sched_matches_.size(), -1);
  // Relay matches (and relay-enabled fabrics generally) are never dropped:
  // parked second-hop data refills without a flow arrival, so the
  // reactivation hook would miss them.
  const bool may_drop = !relay_enabled_;
  in_scheduled_phase_ = true;

  const bool fallback =
      control_ != nullptr && config_.control_fault.fallback;
  if (fallback) prepare_fallback_epoch();

  for (int slot = 0; slot < timing_.scheduled_slots(); ++slot) {
    sim_.advance_to(timing_.scheduled_slot_start(epoch_, slot));
    const Nanos arrival = timing_.scheduled_slot_end(epoch_, slot) + prop;
    const bool healthy = links_.all_up();
    std::size_t keep = 0;
    for (std::size_t r = 0; r < live_matches_.size(); ++r) {
      const std::int32_t index = live_matches_[r];
      ActiveMatch& a = sched_matches_[static_cast<std::size_t>(index)];
      const Match& m = a.m;
      TorSwitch& tor = tors_[static_cast<std::size_t>(m.src)];
      if (!healthy &&
          !(links_.up_raw(a.tx_link) && links_.up_raw(a.rx_link))) {
        live_matches_[keep++] = index;
        continue;
      }
      // 0. A pending retransmission for the matched pair outranks fresh
      // data (selective repeat: the lost unit is the pair's oldest debt).
      // The match stays live — its queue state is unchanged.
      if (transport_ && try_retransmit(m.src, m.dst, sim_.now())) {
        ++match_slots_used_;
        live_matches_[keep++] = index;
        continue;
      }
      // 1. Direct data for the matched destination. The pending check is a
      // plain counter read — most slots of an over-scheduled match find a
      // drained queue (§3.5); such matches are dropped from the live list
      // until an arrival for their pair reactivates them.
      if (tor.active_destinations().contains(m.dst)) {
        auto pkt = tor.dequeue_packet(m.dst, payload);
        NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
        ++match_slots_used_;
        sync_source_activity(m.src);
        transmit_direct(pkt->flow, m.src, m.dst, pkt->bytes, sim_.now());
        live_matches_[keep++] = index;
        continue;
      }
      if (may_drop) {
        // Park the match on its source's dropped chain; the arrival hook
        // restores it (at its original position) if the pair refills.
        auto& stamp = dropped_stamp_[static_cast<std::size_t>(m.src)];
        auto& head = dropped_heads_[static_cast<std::size_t>(m.src)];
        if (stamp != epoch_) {
          stamp = epoch_;
          head = -1;
        }
        dropped_next_[static_cast<std::size_t>(index)] = head;
        head = index;
        continue;
      }
      // 2. Second-hop relayed data parked at this ToR for the destination.
      // The span dequeue keeps the relay queue live (same-slot reads see
      // the drain) while the delivery effects ride the slot's span.
      {
        RelayQueueSet& parked = relay_[static_cast<std::size_t>(m.src)];
        if (parked.bytes_for(m.dst) > 0) {
          RelayChunk chunk;
          const std::size_t got =
              parked.dequeue_span(m.dst, payload, 1, &chunk);
          NEG_ASSERT(got == 1, "pending relay yielded no chunk");
          sync_relay_activity(m.src);
          deliver_second_hop(chunk, m.dst);
          live_matches_[keep++] = index;
          continue;
        }
      }
      // 3. First-hop relay: push elephant bytes towards the intermediate.
      if (m.relay && a.relay_remaining > 0) {
        const Bytes cap = std::min(payload, a.relay_remaining);
        if (auto pkt = tor.dequeue_elephant_packet(m.relay_final_dst, cap)) {
          a.relay_remaining -= pkt->bytes;
          sync_source_activity(m.src);
          if (const auto seq =
                  send_first_hop_relay(pkt->flow, m.src, m.relay_final_dst,
                                       pkt->bytes, sim_.now())) {
            // Batched data plane: the chunk joins this slot's train
            // towards the intermediate m.dst; the train ships once when
            // the slot closes (same arrival time, same per-chunk order at
            // the receiver's FIFO as the per-chunk events it replaces).
            auto& train = train_build_[static_cast<std::size_t>(m.dst)];
            if (train.empty()) train_touched_.push_back(m.dst);
            train.push_back(RelayTrainChunk{m.dst, m.relay_final_dst,
                                            pkt->flow, pkt->bytes, *seq});
          }
        }
      }
      // Otherwise the link idles this slot: the cost of stateless
      // scheduling when the queue emptied before the accept (§3.5).
      live_matches_[keep++] = index;
    }
    live_matches_.resize(keep);
    // Graceful degradation: unmatched sources spread via the rotor rule
    // after the matched traffic of the slot, sharing its delivery span.
    if (fallback) {
      run_fallback_slot();
      ++sched_slot_counter_;
    }
    // Close the slot: deliveries flush first (the goodput meter books
    // delivered bytes before relay receptions, matching the per-packet
    // order the span replaces), then one train event per intermediate.
    flush_deliveries(arrival);
    for (const TorId inter : train_touched_) {
      auto& train = train_build_[static_cast<std::size_t>(inter)];
      goodput_.record_relay_train(inter, train.data(), train.size(), arrival);
      sim_.events().schedule_relay_train(
          arrival, train.data(), static_cast<std::uint32_t>(train.size()));
      train.clear();
    }
    train_touched_.clear();
  }
  in_scheduled_phase_ = false;
}

// DemandView --------------------------------------------------------------

Bytes NegotiatorFabric::pending_bytes(TorId src, TorId dst) const {
  return tors_[static_cast<std::size_t>(src)].pending_to(dst);
}

Bytes NegotiatorFabric::elephant_bytes(TorId src, TorId dst) const {
  const TorSwitch& tor = tors_[static_cast<std::size_t>(src)];
  return tor.bytes_at_level(dst, tor.levels() - 1);
}

Nanos NegotiatorFabric::weighted_hol_delay(TorId src, TorId dst, Nanos now,
                                           double alpha) const {
  return tors_[static_cast<std::size_t>(src)].weighted_hol_delay(dst, now,
                                                                 alpha);
}

Nanos NegotiatorFabric::oldest_hol_enqueue(TorId src, TorId dst) const {
  return tors_[static_cast<std::size_t>(src)].oldest_hol_enqueue(dst);
}

Bytes NegotiatorFabric::cumulative_arrived(TorId src, TorId dst) const {
  return arrived_[static_cast<std::size_t>(src) * config_.num_tors + dst];
}

Bytes NegotiatorFabric::relay_pending(TorId tor, TorId final_dst) const {
  if (!relay_enabled_) return 0;
  return relay_[static_cast<std::size_t>(tor)].bytes_for(final_dst);
}

Bytes NegotiatorFabric::relay_queue_total(TorId tor) const {
  if (!relay_enabled_) return 0;
  return relay_[static_cast<std::size_t>(tor)].total_bytes();
}

const ActiveSet& NegotiatorFabric::relay_active_destinations(
    TorId tor) const {
  static const ActiveSet kEmpty;
  if (!relay_enabled_) return kEmpty;
  return relay_[static_cast<std::size_t>(tor)].active_destinations();
}

const ActiveSet& NegotiatorFabric::relay_active_sources() const {
  return relay_active_;
}

const ActiveSet& NegotiatorFabric::active_destinations(TorId src) const {
  return tors_[static_cast<std::size_t>(src)].active_destinations();
}

const ActiveSet& NegotiatorFabric::active_sources() const {
  return active_sources_;
}

bool NegotiatorFabric::rx_paused(TorId tor) const {
  // Grant-time gating uses the destination's own (current) buffer state —
  // the pause decision is local to the destination ToR.
  if (!host_plane_) return false;
  return host_plane_->rx_paused(tor, sim_.now());
}

// ------------------------------------------------------------- make_fabric

std::unique_ptr<FabricSim> make_fabric(const NetworkConfig& config,
                                       Nanos stats_window_ns) {
  config.validate();
  if (config.scheduler == SchedulerKind::kOblivious) {
    return std::make_unique<ObliviousFabric>(config, stats_window_ns);
  }
  return std::make_unique<NegotiatorFabric>(config, stats_window_ns);
}

}  // namespace negotiator
