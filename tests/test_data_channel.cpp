// Unit contract for the lossy data plane (core/data_channel.h): the
// per-chunk draw-order and loss-window semantics, bit-identity of a
// zero-rate channel with a channel-free build (both fabrics), per-hop-
// class independence, the data counts the fabric's counters snapshot
// reads from the channel, and the byte-conservation auditor's ledger
// across lossy runs without ARQ.
// tests/test_host_transport.cpp covers the end-host ARQ layered on top.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/config.h"
#include "common/rng.h"
#include "core/data_channel.h"
#include "engine/conservation_auditor.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "stats/fabric_counters.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

constexpr Nanos kDuration = 200'000;

DataFaultConfig lossy_data(double drop, double corrupt = 0.0) {
  DataFaultConfig f;
  f.enabled = true;
  f.first_hop_drop = drop;
  f.relay_drop = drop;
  f.second_hop_drop = drop;
  f.corrupt_prob = corrupt;
  return f;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Full-output fingerprint (FCT samples + summary), same recipe as the
/// golden table in test_seed_equivalence.cpp.
std::uint64_t run_fingerprint(const NetworkConfig& cfg,
                              RunResult* out = nullptr,
                              FabricCounters* counters = nullptr) {
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  const RunResult r = runner.run(kDuration, kDuration / 4);
  if (out != nullptr) *out = r;
  if (counters != nullptr) *counters = runner.fabric().counters();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const FctSample& s : runner.fabric().fct().samples()) {
    h = fnv_mix(h, static_cast<std::uint64_t>(s.flow));
    h = fnv_mix(h, static_cast<std::uint64_t>(s.fct));
  }
  h = fnv_mix(h, static_cast<std::uint64_t>(r.completed));
  h = fnv_mix(h, static_cast<std::uint64_t>(r.backlog));
  h = fnv_mix(h, runner.fabric().events_executed());
  return h;
}

NetworkConfig base_config(std::uint64_t seed,
                          SchedulerKind kind = SchedulerKind::kNegotiator) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = kind;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = seed;
  cfg.validate_matching = true;
  return cfg;
}

// A channel with every probability at zero classifies every chunk as
// delivered, and its draws come from a private salted stream — so the
// simulation must be byte-identical to one with the model disabled.
TEST(DataChannel, ZeroRateChannelIsBitIdenticalToDisabled) {
  for (const SchedulerKind kind :
       {SchedulerKind::kNegotiator, SchedulerKind::kOblivious}) {
    NetworkConfig off = base_config(81, kind);
    NetworkConfig on = base_config(81, kind);
    on.data_fault.enabled = true;  // all rates zero
    EXPECT_EQ(run_fingerprint(off), run_fingerprint(on))
        << to_string(kind);
  }
}

TEST(DataChannel, LossyRunsAreDeterministic) {
  NetworkConfig cfg = base_config(82);
  cfg.data_fault = lossy_data(0.1, 0.02);
  const std::uint64_t a = run_fingerprint(cfg);
  const std::uint64_t b = run_fingerprint(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 83;
  EXPECT_NE(a, run_fingerprint(cfg)) << "seed does not reach the channel";
}

// Draw-order contract, leg 2: a corrupt-only channel (drop = 0,
// corrupt_prob = 1) discards every chunk via the receiver checksum and
// never counts a drop.
TEST(DataChannel, CorruptOnlyChannelDiscardsByChecksum) {
  DataFaultConfig f = lossy_data(0.0, 1.0);
  DataChannel channel(f, make_salted_stream(5, kDataChannelSeedSalt));
  channel.begin_epoch(0);
  for (int i = 0; i < 100; ++i) {
    const DataChannel::Fate fate =
        channel.classify(static_cast<DataHopClass>(i % 3), 1'000);
    EXPECT_FALSE(fate.deliver);
    EXPECT_TRUE(fate.corrupted);
  }
  EXPECT_EQ(channel.dropped(), 0);
  EXPECT_EQ(channel.corrupted(), 100);
  EXPECT_EQ(channel.classified(), 100);
  EXPECT_EQ(channel.corrupted_bytes(), 100'000);
  EXPECT_EQ(channel.dropped_bytes(), 0);
}

TEST(DataChannel, LossWindowRaisesTheFloorOnlyInsideTheWindow) {
  DataFaultConfig f;
  f.enabled = true;  // all base rates zero
  DataChannel channel(f, make_salted_stream(11, kDataChannelSeedSalt));
  channel.add_loss_window(1'000, 2'000, 1.0);
  channel.add_loss_window(1'500, 1'600, 0.5);  // overlapping; max wins

  channel.begin_epoch(500);
  EXPECT_EQ(channel.loss_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(DataHopClass::kFirstHop, 100).deliver);
  }
  channel.begin_epoch(1'500);
  EXPECT_EQ(channel.loss_floor(), 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(channel.classify(DataHopClass::kRelay, 100).deliver);
  }
  channel.begin_epoch(2'000);  // [start, end): the end epoch is healthy
  EXPECT_EQ(channel.loss_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(DataHopClass::kSecondHop, 100).deliver);
  }
  EXPECT_EQ(channel.dropped(), 50);
  EXPECT_EQ(channel.classified(), 150);
}

// Each hop class carries its own base rate: a first-hop-only blackout
// must never touch relay or second-hop chunks.
TEST(DataChannel, HopClassRatesAreIndependent) {
  DataFaultConfig f;
  f.enabled = true;
  f.first_hop_drop = 1.0;
  DataChannel channel(f, make_salted_stream(17, kDataChannelSeedSalt));
  channel.begin_epoch(0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(channel.classify(DataHopClass::kFirstHop, 100).deliver);
    EXPECT_TRUE(channel.classify(DataHopClass::kRelay, 100).deliver);
    EXPECT_TRUE(channel.classify(DataHopClass::kSecondHop, 100).deliver);
  }
  EXPECT_EQ(channel.dropped(), 40);
  EXPECT_EQ(channel.classified(), 120);
  EXPECT_EQ(channel.dropped_bytes(), 4'000);
}

// Each data count is stored once, by the channel: the counters snapshot
// and its JSON (schema_version first) carry those counts.
TEST(DataChannel, CountersCarryTheChannelsOwnCounts) {
  NetworkConfig cfg = base_config(13);
  cfg.data_fault = lossy_data(0.4, 0.2);
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  runner.run(kDuration);
  const DataChannel* channel = runner.fabric().data_channel();
  ASSERT_NE(channel, nullptr);
  const FabricCounters c = runner.fabric().counters();
  const std::string json = to_json(c);
  EXPECT_EQ(json.find("{\"schema_version\": 3, "), 0u)
      << "schema_version must lead the object: " << json;
  const std::tuple<const char*, std::int64_t, std::int64_t> rows[] = {
      {"data_dropped", c.data_dropped, channel->dropped()},
      {"data_corrupted", c.data_corrupted, channel->corrupted()},
      {"data_dropped_bytes", c.data_dropped_bytes, channel->dropped_bytes()},
      {"data_corrupted_bytes", c.data_corrupted_bytes,
       channel->corrupted_bytes()},
  };
  for (const auto& [key, snapshot, own] : rows) {
    EXPECT_GT(own, 0) << key;
    EXPECT_EQ(snapshot, own) << key;
    std::string field = "\"";
    field.append(key).append("\": ").append(std::to_string(own)) += ',';
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
  EXPECT_EQ(c.retransmitted_bytes, 0) << "no ARQ, no retransmissions";
}

// Without ARQ, dropped bytes are gone for good: the conservation auditor
// must still balance the ledger (injected = stranded + in flight +
// delivered + dropped + corrupted) at every epoch boundary. The auditor
// is armed because validate_matching is set.
TEST(DataChannel, ConservationLedgerBalancesWithoutArq) {
  NetworkConfig cfg = base_config(84);
  cfg.data_fault = lossy_data(0.05, 0.01);
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  runner.run(kDuration, kDuration / 4);
  const FabricSim& fabric = runner.fabric();
  ASSERT_NE(fabric.data_channel(), nullptr);
  ASSERT_NE(fabric.conservation_auditor(), nullptr);
  EXPECT_EQ(fabric.host_transport(), nullptr) << "ARQ off -> no transport";
  EXPECT_GT(fabric.data_channel()->dropped(), 0);
  EXPECT_GT(fabric.conservation_auditor()->checks(), 0);
}

TEST(DataChannel, ConservationLedgerBalancesOnTheObliviousFabric) {
  NetworkConfig cfg = base_config(85, SchedulerKind::kOblivious);
  cfg.data_fault = lossy_data(0.05);
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  runner.run(kDuration, kDuration / 4);
  const FabricSim& fabric = runner.fabric();
  ASSERT_NE(fabric.data_channel(), nullptr);
  ASSERT_NE(fabric.conservation_auditor(), nullptr);
  EXPECT_GT(fabric.data_channel()->dropped(), 0);
  EXPECT_GT(fabric.conservation_auditor()->checks(), 0);
}

// Loss is loss: at a fixed seed and horizon, a lossy run can never
// complete more flows than the lossless twin, and the counters must show
// the dropped bytes.
TEST(DataChannel, DropsStrictlyHurtWithoutArq) {
  NetworkConfig clean = base_config(86);
  RunResult clean_result;
  run_fingerprint(clean, &clean_result);

  NetworkConfig lossy_cfg = base_config(86);
  lossy_cfg.data_fault = lossy_data(0.3);
  RunResult lossy_result;
  FabricCounters c;
  run_fingerprint(lossy_cfg, &lossy_result, &c);

  EXPECT_LT(lossy_result.completed, clean_result.completed);
  EXPECT_GT(c.data_dropped, 0);
  EXPECT_GT(c.data_dropped_bytes, 0);
  EXPECT_EQ(c.retransmitted_bytes, 0) << "no ARQ, no retransmissions";
}

}  // namespace
}  // namespace negotiator
