// The simulated fabric: epoch-driven execution of control plane, data
// plane, and statistics. FabricSim is the core both implementations share;
// each adds its own slot walk — the NegotiaToR fabric (two-phase epochs,
// §3.3) defined here and the traffic-oblivious rotor fabric (Sirius-style
// baseline) in oblivious/oblivious_scheduler.h.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "core/control_channel.h"
#include "core/data_channel.h"
#include "core/demand_view.h"
#include "core/epoch.h"
#include "core/fault_detector.h"
#include "core/matching_validator.h"
#include "core/negotiator_scheduler.h"
#include "engine/conservation_auditor.h"
#include "sim/simulation.h"
#include "stats/fabric_counters.h"
#include "stats/fct_recorder.h"
#include "stats/goodput_meter.h"
#include "topo/link_state.h"
#include "topo/predefined_schedule.h"
#include "topo/topology.h"
#include "tor/host_plane.h"
#include "tor/host_transport.h"
#include "tor/relay_queue.h"
#include "tor/tor_switch.h"
#include "workload/flow.h"

namespace negotiator {

class ResilienceRecorder;  // stats/resilience_recorder.h

/// Tracks per-flow delivery progress and closes FCT samples.
class FlowTable {
 public:
  /// Registers a flow, returning its dense internal index.
  int add(const Flow& flow);
  const Flow& flow(int index) const;
  /// Credits `bytes` arriving at the destination at `arrival`; records the
  /// FCT sample when the flow completes.
  void credit(int index, Bytes bytes, Nanos arrival, FctRecorder& fct);
  /// Credits a slot's coalesced delivery span in record order — identical
  /// per-record arithmetic to n credit() calls (a flow may appear several
  /// times in one span), but flows completed by the span land in `fct` as
  /// one bulk append instead of one round trip per packet.
  void credit_span(const DeliveryRecord* records, std::size_t n,
                   Nanos arrival, FctRecorder& fct);
  std::size_t size() const { return states_.size(); }
  bool done(int index) const;
  /// Total bytes credited across every flow (conservation ledger).
  Bytes total_delivered() const { return total_delivered_; }

 private:
  struct State {
    Flow flow;
    Bytes delivered{0};
    bool done{false};
  };
  std::vector<State> states_;
  std::vector<FctSample> completed_scratch_;  // per-span staging
  Bytes total_delivered_{0};
};

/// The fabric core both implementations share (§4.1: same ToRs, PIAS
/// queues, links and data plane; only the scheduling differs). It owns the
/// config, topology, clock, source and relay queues, flow table, stats,
/// link state, the per-slot delivery span and the optional lossy data
/// plane (channel, ARQ transport, conservation auditor). A subclass adds
/// its own slot walk (run_until) and scheduler state, and handles flow
/// arrivals, relay trains and ARQ timers for its dirty sets.
class FabricSim : private EventSink {
 public:
  virtual ~FabricSim() = default;
  // The event queue and the ARQ transport hold pointers into the fabric.
  FabricSim(const FabricSim&) = delete;
  FabricSim& operator=(const FabricSim&) = delete;

  /// Registers a flow arriving at `flow.arrival` (>= now).
  void add_flow(const Flow& flow);
  void add_flows(const std::vector<Flow>& flows) {
    for (const Flow& f : flows) add_flow(f);
  }

  /// Advances simulated time to `t` (whole epochs/slots are processed).
  virtual void run_until(Nanos t) = 0;
  Nanos now() const { return sim_.now(); }

  FctRecorder& fct() { return fct_; }
  GoodputMeter& goodput() { return goodput_; }
  LinkState& links() { return links_; }
  const NetworkConfig& config() const { return config_; }

  /// Bytes still queued anywhere in the fabric.
  Bytes total_backlog() const;

  /// Logical (per-chunk) events executed by the simulation clock so far
  /// (perf accounting for bench_perf_engine; representation-independent,
  /// so it survives event-batching refactors).
  std::uint64_t events_executed() const { return sim_.events().executed(); }

  /// Physical queue pops behind events_executed(): one batched chunk
  /// train counts once here but per chunk above, so executed/dispatched
  /// is the data plane's mean batching factor.
  std::uint64_t events_dispatched() const {
    return sim_.events().dispatched();
  }

  /// Final-destination packet deliveries that rode a coalesced per-slot
  /// delivery span so far (second-hop relay + direct data).
  std::uint64_t deliveries() const { return deliveries_; }

  /// Coalesced delivery walks flushed so far (at most one per slot);
  /// deliveries() / delivery_dispatches() is the delivery-side batching
  /// factor — the second-hop mirror of events/dispatches on the enqueue
  /// side.
  std::uint64_t delivery_dispatches() const { return delivery_dispatches_; }

  // Fixed at the serial walk; kept only for perfbench/negbench.cpp.
  int sim_threads() const { return 1; }
  std::uint64_t sharded_slots() const { return 0; }

  /// Per-epoch accepts/grants ratio (Fig. 14); empty for the oblivious
  /// fabric, which has no matching step.
  virtual std::vector<double> match_ratio_series() const { return {}; }

  /// Schedules a link failure (fail=true) or repair at absolute time
  /// `when`.
  void schedule_link_event(Nanos when, TorId tor, PortId port,
                           LinkDirection dir, bool fail);

  /// Schedules a control-plane brownout window [start, end) with an
  /// absolute message-drop floor (engine/fault_scenario.h,
  /// ControlBrownoutSpec). Default no-op: fabrics without a lossy control
  /// channel — the oblivious baseline, or a negotiator fabric with
  /// control_fault disabled — tolerate brownout scenarios silently.
  virtual void schedule_control_brownout(Nanos /*start*/, Nanos /*end*/,
                                         double /*drop_floor*/) {}

  /// Schedules a data-plane loss window [start, end) with an absolute
  /// chunk-drop floor (engine/fault_scenario.h, DataLossSpec). A no-op
  /// when the data channel is disabled: such a fabric tolerates data-loss
  /// scenarios silently — same contract as brownouts above.
  void schedule_data_loss(Nanos start, Nanos end, double drop_floor);

  /// Ports currently excluded by the fault-detection plane (counted per
  /// direction; 0 for fabrics without detection, e.g. the oblivious
  /// baseline, and for an idle fault plane).
  virtual int excluded_ports() const { return 0; }

  /// Attaches an optional link-fault timeline (see
  /// stats/resilience_recorder.h). The recorder must outlive the fabric
  /// or be detached with set_resilience(nullptr); attaching one changes
  /// no simulated behaviour.
  void set_resilience(ResilienceRecorder* recorder) { resilience_ = recorder; }

  /// Every count the fabric and its components keep, read from each
  /// count's owner (stats/fabric_counters.h).
  virtual FabricCounters counters() const;

  /// Lossy data channel (null when data_fault is disabled).
  const DataChannel* data_channel() const { return data_.get(); }
  /// End-host ARQ transport (null unless data_fault.enabled && .arq).
  const HostTransport* host_transport() const { return transport_.get(); }
  /// Byte-conservation auditor (null unless armed; see
  /// engine/conservation_auditor.h).
  const ConservationAuditor* conservation_auditor() const {
    return auditor_.get();
  }

 protected:
  /// Validates `config` and builds the shared core. Lossy data plane +
  /// end-host ARQ use a private salted stream, never the fabric's fork
  /// chain, and are never built when disabled (zero draws — every
  /// loss-free golden pins this).
  FabricSim(const NetworkConfig& config, Nanos stats_window_ns);

  /// Invariant checkers (MatchingValidator, ConservationAuditor) arm on
  /// config.validate_matching, and always in debug/sanitizer builds.
  bool checks_armed() const {
#ifndef NDEBUG
    return true;
#else
    return config_.validate_matching;
#endif
  }

  /// Queues an arriving flow at its source ToR (queues carry the dense
  /// FlowTable index; the external id only appears in reported samples)
  /// and books it in the conservation ledger. Returns the flow.
  const Flow& accept_arrival(int flow_index, Nanos now);

  /// Parks one final-destination delivery on the current slot's span. The
  /// dequeue already happened (queue state must stay live for same-slot
  /// reads); the flow credit / FCT / goodput effects ride the span and
  /// land in flush_deliveries in staged order.
  void stage_delivery(FlowId flow, TorId dst, Bytes bytes,
                      std::uint32_t seq = 0) {
    delivery_build_.push_back(DeliveryRecord{flow, dst, bytes, seq});
  }
  /// Transmits one fresh direct (first-hop) packet through the lossy data
  /// plane: stamps the ARQ seq (when the transport is on), draws the
  /// channel fate, and stages the delivery when the chunk survives.
  /// Without a data channel this is exactly stage_delivery. `src` is the
  /// transmitting ToR (the ARQ unit's retransmit origin).
  void transmit_direct(FlowId flow, TorId src, TorId dst, Bytes bytes,
                       Nanos now) {
    std::uint32_t seq = 0;
    if (transport_) {
      seq = transport_->on_transmit(static_cast<std::int32_t>(flow), src,
                                    dst, bytes, now);
    }
    if (data_ && !data_->classify(DataHopClass::kFirstHop, bytes).deliver) {
      return;  // lost in flight (ARQ will retransmit)
    }
    stage_delivery(flow, dst, bytes, seq);
  }
  /// One retransmission attempt for pair (src, dst), if the transport has
  /// work queued there; returns true when a slot was consumed. A
  /// retransmission goes direct, never back through a relay queue, and
  /// redraws the channel: it can be lost again (the timer re-covers it).
  bool try_retransmit(TorId src, TorId dst, Nanos now) {
    if (!transport_ || !transport_->has_retx(src, dst)) return false;
    const HostTransport::RetxChunk r = transport_->take_retx(src, dst, now);
    if (data_->classify(DataHopClass::kFirstHop, r.bytes).deliver) {
      stage_delivery(r.flow, dst, r.bytes, r.seq);
    }
    return true;
  }
  /// Second VLB hop: a chunk dequeued from a relay queue towards its
  /// final destination `dst` draws its fate and, surviving, is staged.
  void deliver_second_hop(const RelayChunk& chunk, TorId dst) {
    if (data_ &&
        !data_->classify(DataHopClass::kSecondHop, chunk.bytes).deliver) {
      return;
    }
    stage_delivery(chunk.flow, dst, chunk.bytes, chunk.seq);
  }
  /// First VLB hop of a chunk bound for `final_dst` via an intermediate:
  /// the ARQ unit is the chunk itself (a retransmission after a loss on
  /// either leg goes direct to `final_dst`). Returns the seq to stamp on
  /// a surviving chunk, which counts as in transit until its train lands;
  /// nullopt when the relay hop lost it.
  std::optional<std::uint32_t> send_first_hop_relay(FlowId flow, TorId src,
                                                    TorId final_dst,
                                                    Bytes bytes, Nanos now) {
    std::uint32_t seq = 0;
    if (transport_) {
      seq = transport_->on_transmit(static_cast<std::int32_t>(flow), src,
                                    final_dst, bytes, now);
    }
    if (data_) {
      if (!data_->classify(DataHopClass::kRelay, bytes).deliver) {
        return std::nullopt;
      }
      transit_bytes_ += bytes;
    }
    return seq;
  }

  /// Lands the staged span as one coalesced walk at the slot's shared
  /// `arrival`: the receiver-side ARQ filter, degraded-delivery
  /// accounting, credit_span (bulk FCT completion), record_delivery_span
  /// (per-destination deltas), then on_span_landed for fabric-specific
  /// effects, in staged order.
  void flush_deliveries(Nanos arrival);
  /// Per-span hook after the shared delivery effects (the negotiator's
  /// §3.6.5 host-plane drain); default no-op.
  virtual void on_span_landed(const DeliveryRecord* /*records*/,
                              std::size_t /*n*/, Nanos /*arrival*/) {}

  /// Assembles the boundary ledger and runs the auditor; `index` is the
  /// epoch (negotiator) or rotor cycle (oblivious) being closed.
  void audit_conservation(std::int64_t index);

  NetworkConfig config_;
  std::unique_ptr<FlatTopology> topo_;
  Simulation sim_;
  std::vector<TorSwitch> tors_;
  /// Parked second-hop data, one set per ToR: always built by the
  /// oblivious fabric, only by the selective-relay negotiator variant.
  std::vector<RelayQueueSet> relay_;
  FlowTable flow_table_;
  FctRecorder fct_;
  GoodputMeter goodput_;
  LinkState links_;

  /// Per-slot delivery span: records staged in dequeue order, flushed
  /// once per slot. Counters feed deliveries_per_dispatch in
  /// bench_perf_engine.
  std::vector<DeliveryRecord> delivery_build_;
  std::uint64_t deliveries_{0};
  std::uint64_t delivery_dispatches_{0};

  // --- Lossy data plane (core/data_channel.h + tor/host_transport.h) ---
  //
  // Absent (the default) every data path is byte-identical to a
  // channel-free build. The transport exists only when data_fault.arq is
  // also set; the auditor arms with checks_armed() whenever the channel
  // exists. The channel samples loss windows per negotiator epoch or
  // rotor slot; the auditor runs at each epoch or cycle boundary.
  std::unique_ptr<DataChannel> data_;
  std::unique_ptr<HostTransport> transport_;
  std::unique_ptr<ConservationAuditor> auditor_;
  /// Ledger counters maintained only when data_ exists.
  Bytes injected_bytes_{0};
  Bytes transit_bytes_{0};  // relay train chunks not yet landed

  /// Bytes delivered while at least one link was down.
  Bytes degraded_delivered_bytes_{0};
  ResilienceRecorder* resilience_{nullptr};

 private:
  void on_link_toggle(const LinkToggleEvent& e, Nanos now) final;
};

/// NegotiaToR fabric: predefined + scheduled phases per epoch.
class NegotiatorFabric final : public FabricSim, public DemandView {
 public:
  /// `stats_window_ns` > 0 enables per-ToR bandwidth time series.
  explicit NegotiatorFabric(const NetworkConfig& config,
                            Nanos stats_window_ns = 0);

  void run_until(Nanos t) override;
  std::vector<double> match_ratio_series() const override {
    return ratio_series_;
  }
  void schedule_control_brownout(Nanos start, Nanos end,
                                 double drop_floor) override;
  int excluded_ports() const override { return faults_.excluded_count(); }
  FabricCounters counters() const override;

  // DemandView:
  Bytes pending_bytes(TorId src, TorId dst) const override;
  Bytes elephant_bytes(TorId src, TorId dst) const override;
  Nanos weighted_hol_delay(TorId src, TorId dst, Nanos now,
                           double alpha) const override;
  Nanos oldest_hol_enqueue(TorId src, TorId dst) const override;
  Bytes cumulative_arrived(TorId src, TorId dst) const override;
  Bytes relay_pending(TorId tor, TorId final_dst) const override;
  Bytes relay_queue_total(TorId tor) const override;
  const ActiveSet& relay_active_destinations(TorId tor) const override;
  const ActiveSet& relay_active_sources() const override;
  const ActiveSet& active_destinations(TorId src) const override;
  const ActiveSet& active_sources() const override;
  bool rx_paused(TorId tor) const override;

  /// §3.6.5 host plane, when enabled in the config (else nullptr).
  HostPlane* host_plane() { return host_plane_.get(); }

  const EpochTiming& timing() const { return timing_; }
  std::int64_t current_epoch() const { return epoch_; }

  /// Scheduled-phase utilization: match-slots offered, match-slots that
  /// carried a packet, piggyback packets sent.
  std::int64_t match_slots_offered() const { return match_slots_offered_; }
  std::int64_t match_slots_used() const { return match_slots_used_; }
  std::int64_t piggyback_packets() const { return piggyback_packets_; }

  /// Lossy control channel (null when control_fault is disabled).
  const ControlChannel* control_channel() const { return control_.get(); }
  /// Scheduled slots in which the oblivious fallback delivered data, and
  /// the bytes it moved (0 unless control_fault.fallback).
  std::int64_t degraded_slots() const { return degraded_slots_; }
  Bytes fallback_bytes() const { return fallback_bytes_; }

 private:
  // EventSink: typed events scheduled on the simulation clock.
  void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override;
  void on_relay_train(const RelayTrainEvent& e, const RelayTrainChunk* chunks,
                      Nanos now) override;
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override;
  /// §3.6.5: the host plane drains each landed delivery, in span order.
  void on_span_landed(const DeliveryRecord* records, std::size_t n,
                      Nanos arrival) override;

  void run_epoch();
  void run_predefined_phase();
  void run_scheduled_phase();

  /// Graceful degradation under control-plane loss (config-gated by
  /// control_fault.fallback): sources whose negotiation yielded no match
  /// this epoch spread one payload per free tx port per scheduled slot
  /// using the predefined (rotor) round-robin rule — direct hits only, on
  /// port pairs not booked by any real match and with both links up. The
  /// global scheduled-slot counter cycles the rule so an unmatched source
  /// reaches every destination over consecutive slots.
  void run_fallback_slot();
  /// Epoch setup for the fallback: books matched tx/rx ports and snapshots
  /// the unmatched-but-active source list (ascending, deterministic).
  void prepare_fallback_epoch();

  /// Maintains active_sources_ / relay_active_ after a queue mutation at
  /// `tor` (dirty-set invariant: the fabric marks on fill, clears on
  /// drain; schedulers only read).
  void sync_source_activity(TorId tor) {
    if (tors_[static_cast<std::size_t>(tor)].active_destinations().empty()) {
      active_sources_.erase(tor);
    } else {
      active_sources_.insert(tor);
    }
  }
  void sync_relay_activity(TorId tor) {
    if (relay_[static_cast<std::size_t>(tor)].total_bytes() > 0) {
      relay_active_.insert(tor);
    } else {
      relay_active_.erase(tor);
    }
  }

  PredefinedSchedule schedule_;
  EpochTiming timing_;
  bool relay_enabled_;  // selective-relay variant: relay_ is built
  FaultPlane faults_;
  std::unique_ptr<NegotiatorScheduler> scheduler_;
  std::int64_t epoch_{0};
  std::size_t prev_epoch_grants_{0};
  std::vector<double> ratio_series_;
  std::vector<Bytes> arrived_;  // [src * N + dst], cumulative (stateful)
  std::int64_t total_matches_{0};
  std::int64_t match_slots_offered_{0};
  std::int64_t match_slots_used_{0};
  std::int64_t piggyback_packets_{0};
  std::unique_ptr<HostPlane> host_plane_;
  /// Pause state advertised to senders during the previous predefined
  /// phase; refreshed once per epoch.
  std::vector<bool> pause_advertised_;

  /// One live predefined-phase connection, fully resolved, so the slot
  /// loop reads flat records instead of re-deriving dst/rx/link health
  /// indices through virtual calls.
  struct PredefConn {
    TorId src;
    PortId tx;
    TorId dst;
    PortId rx;
    std::uint32_t tx_link;  // LinkState raw index, egress at (src, tx)
    std::uint32_t rx_link;  // LinkState raw index, ingress at (dst, rx)
  };

  // --- Sparse predefined phase (the demand-driven epoch pipeline) ---
  //
  // Instead of scanning all slots×N×P connections (O(N^2) per epoch), each
  // epoch gathers only the *interesting* pairs — pairs with outgoing
  // control messages (scheduler_->epoch_out_pairs()) plus pairs with
  // piggyback data (active_sources_ × their active destinations) — and
  // resolves each pair's connection(s) under this epoch's rotation via
  // PredefinedSchedule::pair_connections, bucketed per slot and sorted by
  // (src, tx) so the visit order matches the dense scan exactly.
  //
  // Dirty-set invariants:
  //  - who marks: gather_predefined_pair() (at epoch start, and from
  //    on_flow_arrival for flows landing mid-phase), stamped once per pair
  //    per epoch in predef_gather_stamp_;
  //  - who clears: run_predefined_phase() resets the buckets each epoch;
  //  - a slot whose links are unhealthy falls back to the dense scan so
  //    the fault detector still observes every connection.

  /// Resolves one predefined connection's rx port and link indices — the
  /// single definition the sparse gather and the dense fallback share.
  PredefConn resolve_predef_conn(TorId src, PortId tx, TorId dst) const;
  /// Adds pair (src, dst)'s connections for the current epoch/rotation to
  /// the per-slot buckets (only slots still ahead of the cursor).
  void gather_predefined_pair(TorId src, TorId dst);
  /// Dense fallback for one slot: visits all N×P connections (unhealthy
  /// slots, where every link must be observed).
  void run_predefined_slot_dense(int slot);
  /// Visits one resolved connection (shared by sparse and dense paths).
  /// Deliveries are staged; the slot's close flushes them as one span.
  void visit_predefined_conn(const PredefConn& c, bool healthy);

  std::vector<std::vector<PredefConn>> predef_buckets_;  // one per slot
  std::vector<std::int64_t> predef_gather_stamp_;  // [src*N+dst] -> epoch
  int predef_rotation_{0};        // rotation of the epoch being gathered
  int predef_cursor_{0};          // slot currently being processed
  bool in_predefined_phase_{false};
  std::vector<PredefinedSchedule::Connection> pair_conn_scratch_;

  // --- Scheduled-phase live-match list ---
  //
  // An over-scheduled match spends most of its 30 slots with a drained
  // queue (§3.5). Instead of re-checking every match every slot, the phase
  // iterates a compact ascending index list of *live* matches; a match
  // whose queue is found empty is dropped from the list and reactivated —
  // at its original position, preserving the dense visit order exactly —
  // only when a flow for its (src, dst) pair arrives mid-phase. Only the
  // plain-negotiator path drops (relay matches and relay-enabled fabrics
  // keep full iteration: their other data sources refill invisibly).
  struct ActiveMatch {
    Match m;
    Bytes relay_remaining;
    std::uint32_t tx_link;  // LinkState raw index, egress
    std::uint32_t rx_link;  // LinkState raw index, ingress
  };
  std::vector<ActiveMatch> sched_matches_;     // this epoch's matches
  bool in_scheduled_phase_{false};
  std::vector<std::int32_t> live_matches_;     // ascending indices, compacted
  std::vector<std::int32_t> dropped_heads_;    // [src] -> chain head
  std::vector<std::int64_t> dropped_stamp_;    // [src] -> epoch of that head
  std::vector<std::int32_t> dropped_next_;     // [match index] -> next in chain

  /// rx port of a transmission leaving (src, tx) — destination-independent
  /// in both topologies, precomputed once. Every port reaches some ToR:
  /// validate() rejects thin-clos blocks of a single ToR.
  std::vector<PortId> rx_port_table_;  // [src * ports_per_tor + tx]

  /// Dirty sets of ToRs with pending direct data / parked relay bytes.
  ActiveSet active_sources_;
  ActiveSet relay_active_;

  /// Per-slot chunk-train assembly for the selective-relay variant: the
  /// scheduled phase's first-hop relay chunks accumulate per intermediate
  /// (in match-visit order) and leave as one RelayTrainEvent per
  /// (slot, intermediate) when the slot closes. Empty unless
  /// relay_enabled_.
  std::vector<std::vector<RelayTrainChunk>> train_build_;  // [intermediate]
  std::vector<TorId> train_touched_;

  // --- Lossy control plane (core/control_channel.h) ---
  //
  // Owned here, consulted by the scheduler at its exchange points. Absent
  // (the default) every path above is byte-identical to a channel-free
  // build — the goldens pin this.
  std::unique_ptr<ControlChannel> control_;
  /// Per-epoch matching invariant checks (core/matching_validator.h);
  /// created when config.validate_matching is set, and always in
  /// !NDEBUG builds.
  std::unique_ptr<MatchingValidator> validator_;

  // Fallback state (empty unless control_fault.fallback):
  /// Epochs a source must stay active-but-unmatched before the fallback
  /// engages for it (see prepare_fallback_epoch).
  static constexpr int kFallbackStarvationEpochs = 2;
  std::vector<std::int64_t> fb_tx_stamp_;  // [src*P+tx] -> booked epoch
  std::vector<std::int64_t> fb_rx_stamp_;  // [dst*P+rx] -> booked epoch
  std::vector<int> fb_starved_;            // consecutive unmatched epochs
  std::vector<TorId> fb_sources_;          // persistently starved sources
  std::int64_t sched_slot_counter_{0};     // global, cycles the rotor rule
  std::int64_t degraded_slots_{0};
  Bytes fallback_bytes_{0};
  /// Run totals of prev_epoch_grants_ / epoch_accepts, summed only while
  /// the lossy control channel exists.
  std::int64_t control_grants_{0};
  std::int64_t control_accepts_{0};
  /// Bytes sent into a dark, not-yet-excluded link and requeued
  /// (§3.6.1 wasted slots).
  Bytes blackholed_bytes_{0};
};

/// Builds the fabric matching `config.scheduler` (NegotiaToR family or the
/// traffic-oblivious baseline). Validates the config.
std::unique_ptr<FabricSim> make_fabric(const NetworkConfig& config,
                                       Nanos stats_window_ns = 0);

}  // namespace negotiator
