// Unit contract for the end-host selective-repeat ARQ
// (tor/host_transport.h): sequence numbering, duplicate suppression,
// cumulative+selective ack resolution, lazy RTO timers with exponential
// backoff, retransmit FIFO round-trips, abandonment, and the
// conservation-ledger bucket moves, the bounded-state contract (only the
// unacknowledged window is kept) — plus full-fabric integration runs
// proving ARQ delivers everything under moderate loss on both fabrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "sim/event_queue.h"
#include "stats/resilience_recorder.h"
#include "tor/host_transport.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig arq_config(std::uint64_t seed = 1) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = SchedulerKind::kNegotiator;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.seed = seed;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  return cfg;
}

/// The transport's own base RTO, derived exactly as the constructor does.
Nanos base_rto(const NetworkConfig& cfg) {
  return static_cast<Nanos>(cfg.data_fault.rto_epochs *
                            static_cast<double>(cfg.epoch_length_ns()));
}

TEST(HostTransport, SequenceNumbersAreDenseOneBasedAndPerFlow) {
  NetworkConfig cfg = arq_config();
  EventQueue q;
  HostTransport t(cfg, &q);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, 0), 1u);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 200, 10), 2u);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 300, 20), 3u);
  EXPECT_EQ(t.on_transmit(7, 3, 4, 400, 30), 1u) << "flows are independent";
  EXPECT_EQ(t.flow_src(0), 1);
  EXPECT_EQ(t.flow_dst(0), 2);
  EXPECT_EQ(t.flow_src(7), 3);
  EXPECT_EQ(t.unresolved_bytes(), 1'000);
  EXPECT_EQ(t.delivered_bytes(), 0);
}

TEST(HostTransport, DuplicateDeliveryIsSuppressedAndCountedSpurious) {
  NetworkConfig cfg = arq_config();
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 500, 0);
  EXPECT_TRUE(t.on_deliver(0, 1, 500, 100)) << "first arrival credits";
  EXPECT_FALSE(t.on_deliver(0, 1, 500, 200)) << "duplicate discards";
  EXPECT_EQ(t.spurious_retx(), 1);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 500);
}

TEST(HostTransport, CumulativeAckResolvesEverythingBelowTheWatermark) {
  NetworkConfig cfg = arq_config();
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 100, 0);
  // Deliver out of order: 2 first (selective), then 1 (cumulative jumps
  // to 2), then 3.
  EXPECT_TRUE(t.on_deliver(0, 2, 100, 50));
  EXPECT_TRUE(t.on_deliver(0, 1, 100, 60));
  EXPECT_TRUE(t.on_deliver(0, 3, 100, 70));
  t.flush_acks(70 + prop);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 300);
  // Everything acked: a later timer wakeup finds nothing in flight.
  EXPECT_FALSE(t.on_timer(0, 70 + prop + 10 * base_rto(cfg)));
  EXPECT_EQ(t.rto_fires(), 0);
}

TEST(HostTransport, StaleWakeupReArmsWithoutCountingAFire) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);        // timer armed for t=rto
  t.on_transmit(0, 1, 2, 100, rto / 2);  // younger unit, no new timer
  // The first unit's copy arrives; its ack is effective before the fire.
  EXPECT_TRUE(t.on_deliver(0, 1, 100, rto / 2));
  ASSERT_GT(rto, rto / 2 + prop) << "test premise: ack lands pre-fire";
  // Fire at the original deadline: the ack resolved unit 1, unit 2's
  // deadline is rto/2 + rto — still in the future, so the wakeup is
  // stale and must not count.
  EXPECT_FALSE(t.on_timer(0, rto));
  EXPECT_EQ(t.rto_fires(), 0);
  EXPECT_FALSE(t.has_retx(1, 2));
  // The re-armed timer fires at the real deadline: genuine RTO.
  EXPECT_TRUE(t.on_timer(0, rto / 2 + rto));
  EXPECT_EQ(t.rto_fires(), 1);
  EXPECT_TRUE(t.has_retx(1, 2));
}

TEST(HostTransport, RtoRoundTripsThroughTheRetxFifo) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  t.set_recorder(&rec);
  t.on_transmit(0, 1, 2, 700, 0);
  EXPECT_TRUE(t.on_timer(0, rto)) << "genuine RTO moves the unit";
  EXPECT_EQ(t.rto_fires(), 1);
  EXPECT_TRUE(t.has_retx(1, 2));
  EXPECT_TRUE(t.has_retx_from(1));
  EXPECT_EQ(t.retx_backlog_bytes(), 700);
  EXPECT_EQ(t.unresolved_bytes(), 700) << "still unresolved while queued";

  const HostTransport::RetxChunk r = t.take_retx(1, 2, rto + 10);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.dst, 2);
  EXPECT_EQ(r.bytes, 700);
  EXPECT_EQ(r.seq, 1u) << "a retransmission reuses the unit's seq";
  EXPECT_FALSE(t.has_retx(1, 2));
  EXPECT_EQ(t.retx_backlog_bytes(), 0);
  EXPECT_EQ(t.retransmitted_bytes(), 700);
  EXPECT_EQ(rec.retransmitted_bytes(), 700);
  EXPECT_EQ(rec.rto_fires(), 1);

  // The retransmitted copy lands: first arrival, normal credit.
  EXPECT_TRUE(t.on_deliver(0, r.seq, r.bytes, rto + 500));
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 700);
  EXPECT_EQ(t.spurious_retx(), 0);
}

TEST(HostTransport, BackoffDoublesUpToTheCap) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.rto_epochs = 1.0;
  cfg.data_fault.rto_backoff = 2.0;
  cfg.data_fault.rto_cap_epochs = 4.0;
  cfg.data_fault.max_retries = 100;
  const Nanos e = base_rto(cfg);  // rto_epochs = 1 -> one epoch
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  // Fire 1 at t=e (rto = e), retransmit; rto doubles to 2e.
  EXPECT_TRUE(t.on_timer(0, e));
  t.take_retx(1, 2, e);
  // Fire 2 at e + 2e; rto doubles to 4e (= cap).
  EXPECT_TRUE(t.on_timer(0, 3 * e));
  t.take_retx(1, 2, 3 * e);
  EXPECT_EQ(t.max_backoff_reached(), 0) << "cap not hit yet";
  // Fire 3 at 3e + 4e: the flow sits at the cap now.
  EXPECT_TRUE(t.on_timer(0, 7 * e));
  EXPECT_EQ(t.rto_fires(), 3);
  EXPECT_EQ(t.max_backoff_reached(), 1);
}

TEST(HostTransport, AckProgressResetsTheBackoff) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.rto_epochs = 1.0;
  cfg.data_fault.rto_backoff = 2.0;
  cfg.data_fault.rto_cap_epochs = 64.0;
  const Nanos e = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  EXPECT_TRUE(t.on_timer(0, e));  // rto -> 2e
  t.take_retx(1, 2, e);
  // The retransmitted copy arrives; ack progress resets rto to base.
  EXPECT_TRUE(t.on_deliver(0, 1, 100, e + 10));
  t.flush_acks(e + 10 + prop);
  // A new unit now times out after the *base* rto again, not 2e.
  const Nanos t2 = 10 * e;
  t.on_transmit(0, 1, 2, 100, t2);
  EXPECT_TRUE(t.on_timer(0, t2 + e))
      << "a backed-off rto would make this wakeup stale";
  EXPECT_EQ(t.rto_fires(), 2);
}

TEST(HostTransport, MaxRetriesAbandonsTheFlow) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.max_retries = 2;
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 900, 0);
  EXPECT_TRUE(t.on_timer(0, rto));  // retries = 1
  t.take_retx(1, 2, rto);
  EXPECT_TRUE(t.on_timer(0, rto + 2 * rto));  // retries = 2
  t.take_retx(1, 2, 3 * rto);
  // Third consecutive expiry without progress exceeds max_retries.
  EXPECT_FALSE(t.on_timer(0, 3 * rto + 4 * rto));
  EXPECT_EQ(t.abandoned_units(), 1);
  EXPECT_EQ(t.abandoned_bytes(), 900);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_FALSE(t.has_retx(1, 2));
  // A copy of the abandoned unit straggling in is discarded.
  EXPECT_FALSE(t.on_deliver(0, 1, 900, 100 * rto));
  EXPECT_EQ(t.spurious_retx(), 1);
}

TEST(HostTransport, StarvedRetransmissionsDoNotCountTowardAbandonment) {
  // A flow whose queued retransmissions the fabric has not yet served
  // (starved behind another flow's debt on the shared pair FIFO) must
  // not burn through max_retries: its expiries prove congestion, not
  // loss. With max_retries = 1 the flow survives arbitrarily many
  // expiries while a unit sits in the FIFO, and still abandons on the
  // second *attempted-and-lost* round.
  NetworkConfig cfg = arq_config();
  cfg.data_fault.max_retries = 1;
  cfg.data_fault.rto_backoff = 1.0;  // fixed RTO keeps the timeline simple
  cfg.data_fault.rto_cap_epochs = cfg.data_fault.rto_epochs;
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  // Two units: the first expiry queues only unit 1 (unit 2 is younger);
  // every later expiry finds unit 1 still waiting in the FIFO.
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 200, rto / 2);
  EXPECT_TRUE(t.on_timer(0, rto));  // genuine: queues unit 1, retries = 1
  for (int round = 2; round <= 6; ++round) {
    // Unit 2 (and later re-expiries) keep firing, but unit 1 was never
    // taken — none of these count toward max_retries.
    t.on_timer(0, round * rto);
  }
  EXPECT_EQ(t.abandoned_units(), 0) << "starved expiries must not abandon";
  EXPECT_TRUE(t.has_retx(1, 2));
  // The fabric finally serves the pair; both units go back in flight.
  while (t.has_retx(1, 2)) t.take_retx(1, 2, 6 * rto);
  // Both retransmissions are lost too: the next expiry is round two of
  // attempted-and-lost, which exceeds max_retries = 1 and abandons.
  EXPECT_FALSE(t.on_timer(0, 7 * rto + 1));
  EXPECT_EQ(t.abandoned_units(), 2);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.abandoned_bytes(), 300);
}

TEST(HostTransport, LateArrivalCancelsAQueuedRetransmission) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  // Two pairs with pending retransmissions.
  t.on_transmit(0, 0, 1, 100, 0);
  t.on_transmit(1, 2, 3, 200, 0);
  EXPECT_TRUE(t.on_timer(0, rto));
  EXPECT_TRUE(t.on_timer(1, rto));
  EXPECT_EQ(t.retx_backlog_bytes(), 300);
  // Flow 0's original copy arrives late; the ack cancels its queued
  // retransmission (the FIFO entry goes stale in place).
  EXPECT_TRUE(t.on_deliver(0, 1, 100, rto + 1));
  t.flush_acks(rto + 1 + prop);
  EXPECT_FALSE(t.has_retx(0, 1));
  EXPECT_EQ(t.retx_backlog_bytes(), 200);
  // The pair gather visits only the live pair and compacts the rest out.
  int visited = 0;
  t.for_each_retx_pair([&](TorId s, TorId d) {
    ++visited;
    EXPECT_EQ(s, 2);
    EXPECT_EQ(d, 3);
  });
  EXPECT_EQ(visited, 1);
}

TEST(HostTransport, RetxFifoIsServedInOrderAcrossFlowsOfAPair) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(3, 1, 2, 200, 0);  // same (src, dst) pair
  EXPECT_TRUE(t.on_timer(0, rto));
  EXPECT_TRUE(t.on_timer(3, rto));
  EXPECT_EQ(t.take_retx(1, 2, rto).flow, 0);
  EXPECT_EQ(t.take_retx(1, 2, rto).flow, 3);
  EXPECT_FALSE(t.has_retx(1, 2));
}

TEST(HostTransport, LongFlowRetainsOnlyItsUnackedWindow) {
  // One 10,000-unit flow, one unit sent per tick, each copy arriving
  // kDelay ticks later. Every 101st unit's first copy is lost, and every
  // 1010th unit's retransmission is lost too, so the flow goes through
  // genuine RTO fires, backoff and repeated retransmission. The state the
  // transport holds must stay bounded by the unacknowledged window (plus
  // one record per retransmitted unit), not grow with the flow's length.
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  constexpr Nanos kTicksPerRto = 32;
  constexpr Nanos kDelay = 4;  // ticks from transmission to arrival
  constexpr std::uint32_t kUnits = 10'000;
  constexpr Bytes kBytes = 1'115;
  const Nanos dt = rto / kTicksPerRto;
  ASSERT_LT((kDelay + 1) * dt + prop, rto)
      << "test premise: an undropped unit is acked before its RTO";
  EventQueue q;
  HostTransport t(cfg, &q);

  std::uint32_t dropped_units = 0;
  for (std::uint32_t seq = 1; seq <= kUnits; ++seq) {
    if (seq % 101 == 0) ++dropped_units;
  }
  // A lost unit stalls the cumulative ack for at most one RTO, one
  // backed-off RTO, the delivery delay and the ack's propagation (less
  // than an RTO by the premise above); one fresh unit goes out per tick
  // meanwhile, and the acked prefix is retired lazily (at half the
  // window), which at most doubles what is stored.
  constexpr std::size_t kWindow = 2 * (4 * kTicksPerRto + kDelay + 2);

  std::vector<std::pair<Nanos, std::uint32_t>> arrivals;  // (tick, seq)
  std::vector<std::uint32_t> attempts(kUnits + 1, 0);
  std::size_t max_retained = 0;
  for (Nanos tick = 0; tick < kUnits + 8 * kTicksPerRto; ++tick) {
    const Nanos now = tick * dt;
    t.flush_acks(now);
    if (tick > 0) t.on_timer(0, now);  // stale wakeups are not counted
    auto send = [&](std::uint32_t seq) {
      const bool lost = (attempts[seq] == 0 && seq % 101 == 0) ||
                        (attempts[seq] == 1 && seq % 1010 == 0);
      ++attempts[seq];
      if (!lost) arrivals.emplace_back(tick + kDelay, seq);
    };
    while (t.has_retx(1, 2)) send(t.take_retx(1, 2, now).seq);
    if (tick < kUnits) send(t.on_transmit(0, 1, 2, kBytes, now));
    std::size_t keep = 0;
    for (const auto& a : arrivals) {
      if (a.first == tick) {
        EXPECT_TRUE(t.on_deliver(0, a.second, kBytes, now));
      } else {
        arrivals[keep++] = a;
      }
    }
    arrivals.resize(keep);
    max_retained = std::max(max_retained, t.retained_units());
  }

  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), kUnits * kBytes);
  EXPECT_EQ(t.abandoned_bytes(), 0);
  EXPECT_EQ(t.spurious_retx(), 0);
  EXPECT_GE(t.rto_fires(), dropped_units);
  EXPECT_EQ(t.retransmitted_bytes(),
            (dropped_units + kUnits / 1010) * kBytes);
  EXPECT_LE(max_retained, 3 * kWindow + dropped_units)
      << "units, in-flight entries and acks are each bounded by the "
         "window; retired records by the retransmitted units";
  EXPECT_LT(max_retained, kUnits / 10) << "state must not track flow length";
  // Fully acked: only the records of retransmitted units remain.
  EXPECT_EQ(t.retained_units(), dropped_units);
}

TEST(HostTransport, LateCopyOfARetiredRetransmittedUnitIsSpurious) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 500, 0);
  EXPECT_TRUE(t.on_timer(0, rto));  // the original copy is only delayed
  const HostTransport::RetxChunk r = t.take_retx(1, 2, rto);
  EXPECT_TRUE(t.on_deliver(0, r.seq, r.bytes, rto + 10));
  t.flush_acks(rto + 10 + prop);
  EXPECT_EQ(t.retained_units(), 1u) << "only the multi-copy record is left";
  // The delayed original lands after its unit was retired.
  EXPECT_FALSE(t.on_deliver(0, 1, 500, 2 * rto));
  EXPECT_EQ(t.spurious_retx(), 1);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 500);
  // The flow keeps numbering past its retired prefix.
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, 3 * rto), 2u);
  EXPECT_TRUE(t.on_deliver(0, 2, 100, 3 * rto + 10));
  EXPECT_EQ(t.delivered_bytes(), 600);
}

TEST(HostTransportDeathTest, SecondArrivalOfARetiredSingleCopyUnitAborts) {
  NetworkConfig cfg = arq_config();
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 500, 0);
  EXPECT_TRUE(t.on_deliver(0, 1, 500, 10));
  t.flush_acks(10 + prop);
  EXPECT_EQ(t.retained_units(), 0u) << "a sent-once unit leaves no record";
  // The unit was sent once and has arrived: no copy can be left.
  EXPECT_DEATH(t.on_deliver(0, 1, 500, 20),
               "second arrival of a retired single-copy unit");
}

/// Integration bar (both fabrics): at moderate loss, ARQ re-delivers every
/// dropped chunk — after a drain period every flow completes, nothing is
/// abandoned, and the ledger returns to zero unresolved bytes. The
/// conservation auditor is armed throughout (validate_matching).
void run_arq_recovers(SchedulerKind kind, std::uint64_t seed) {
  constexpr Nanos kArrivals = 200'000;
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = kind;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = seed;
  cfg.validate_matching = true;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  cfg.data_fault.first_hop_drop = 0.05;
  cfg.data_fault.relay_drop = 0.05;
  cfg.data_fault.second_hop_drop = 0.05;
  cfg.data_fault.corrupt_prob = 0.01;

  Runner runner(cfg);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  runner.fabric().set_resilience(&rec);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(cfg.seed));
  const auto flows = gen.generate(0, kArrivals);
  runner.add_flows(flows);
  const RunResult r = runner.run(8 * kArrivals, kArrivals / 4);

  EXPECT_EQ(r.completed, flows.size()) << "ARQ must recover every flow";
  EXPECT_EQ(r.backlog, 0);
  const FabricSim& fabric = runner.fabric();
  const HostTransport* t = fabric.host_transport();
  ASSERT_NE(t, nullptr);
  EXPECT_GT(rec.data_dropped(), 0) << "the channel really dropped chunks";
  EXPECT_GT(t->retransmitted_bytes(), 0);
  EXPECT_GT(t->rto_fires(), 0);
  EXPECT_EQ(t->abandoned_bytes(), 0);
  EXPECT_EQ(t->unresolved_bytes(), 0) << "drained: nothing left in flight";
  EXPECT_EQ(rec.retransmitted_bytes(), t->retransmitted_bytes());
  EXPECT_EQ(rec.rto_fires(), t->rto_fires());
  ASSERT_NE(fabric.conservation_auditor(), nullptr);
  EXPECT_GT(fabric.conservation_auditor()->checks(), 0);
}

TEST(HostTransport, ArqRecoversEveryFlowOnTheNegotiatorFabric) {
  run_arq_recovers(SchedulerKind::kNegotiator, 71);
}

TEST(HostTransport, ArqRecoversEveryFlowOnTheObliviousFabric) {
  run_arq_recovers(SchedulerKind::kOblivious, 72);
}

}  // namespace
}  // namespace negotiator
