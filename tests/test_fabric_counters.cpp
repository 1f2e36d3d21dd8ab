// The counters snapshot (stats/fabric_counters.h): the shared JSON writer
// round-trips key by key, and on both fabrics the snapshot carries exactly
// the counts its owners keep — the lossy data channel, the end-host ARQ
// transport and the conservation auditor.
#include "stats/fabric_counters.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "engine/network.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

using KeyValue = std::pair<std::string, std::int64_t>;

/// Parses a one-line JSON object whose values are all integers, keeping
/// the key order.
std::vector<KeyValue> parse_flat_object(const std::string& json) {
  std::vector<KeyValue> out;
  const char* p = json.c_str();  // at '{', then at each ',' or the '}'
  char key[64];
  long long value = 0;
  int used = 0;
  while (std::sscanf(p + 1, " \"%63[^\"]\": %lld%n", key, &value, &used) ==
         2) {
    out.emplace_back(key, value);
    p += 1 + used;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_STREQ(p, "}") << json;
  return out;
}

TEST(FabricCounters, JsonRoundTripsKeyByKey) {
  FabricCounters written;
  std::int64_t value = 0;
  for (const CounterField& f : kCounterFields) {
    value += 0x100000001LL;  // distinct per field, wider than 32 bits
    written.*f.member = value;
  }
  const std::string json =
      to_json(written, {{"scenarios", 7}, {"injected_bytes", 123}});
  const std::vector<KeyValue> fields = parse_flat_object(json);
  ASSERT_EQ(fields.size(), 3 + std::size(kCounterFields)) << json;
  EXPECT_EQ(fields[0], KeyValue("schema_version",
                                FabricCounters::kSchemaVersion));
  EXPECT_EQ(fields[1], KeyValue("scenarios", 7));
  EXPECT_EQ(fields[2], KeyValue("injected_bytes", 123));
  FabricCounters read;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    EXPECT_EQ(fields[3 + i].first, kCounterFields[i].name);
    read.*kCounterFields[i].member = fields[3 + i].second;
  }
  EXPECT_EQ(read, written);
}

TEST(FabricCounters, SumIsFieldWise) {
  FabricCounters a;
  a.rto_fires = 3;
  a.exclusions = 2;
  FabricCounters b = a;
  b.inclusions = 5;
  b += a;
  EXPECT_EQ(b.rto_fires, 6);
  EXPECT_EQ(b.exclusion_churn(), 9);
}

// Both fabrics under a lossy data plane with ARQ: every data, ARQ and
// audit count in the snapshot is the one its owner keeps.
class CountersParity : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CountersParity, SnapshotEqualsEachOwnersCount) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = GetParam();
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = 61;
  cfg.validate_matching = true;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  cfg.data_fault.first_hop_drop = 0.05;
  cfg.data_fault.relay_drop = 0.05;
  cfg.data_fault.second_hop_drop = 0.05;
  cfg.data_fault.corrupt_prob = 0.01;
  auto fabric = make_fabric(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(cfg.seed));
  fabric->add_flows(gen.generate(0, 200'000));
  fabric->run_until(200'000);

  const DataChannel* channel = fabric->data_channel();
  const HostTransport* transport = fabric->host_transport();
  const ConservationAuditor* auditor = fabric->conservation_auditor();
  ASSERT_NE(channel, nullptr);
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(auditor, nullptr);
  const FabricCounters c = fabric->counters();
  EXPECT_GT(c.data_dropped, 0);
  EXPECT_GT(c.rto_fires, 0);
  EXPECT_EQ(c.data_dropped, channel->dropped());
  EXPECT_EQ(c.data_corrupted, channel->corrupted());
  EXPECT_EQ(c.data_dropped_bytes, channel->dropped_bytes());
  EXPECT_EQ(c.data_corrupted_bytes, channel->corrupted_bytes());
  EXPECT_EQ(c.retransmitted_bytes, transport->retransmitted_bytes());
  EXPECT_EQ(c.spurious_retx, transport->spurious_retx());
  EXPECT_EQ(c.rto_fires, transport->rto_fires());
  EXPECT_EQ(c.max_backoff_reached, transport->max_backoff_reached());
  EXPECT_EQ(c.abandoned_units, transport->abandoned_units());
  EXPECT_EQ(c.conservation_checks, auditor->checks());
  // No link faults and no lossy control plane in this run.
  EXPECT_EQ(c.blackholed_bytes + c.degraded_delivered_bytes + c.failures, 0);
  EXPECT_EQ(c.control_dropped + c.control_grants, 0);
}

INSTANTIATE_TEST_SUITE_P(BothFabrics, CountersParity,
                         ::testing::Values(SchedulerKind::kNegotiator,
                                           SchedulerKind::kOblivious),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace negotiator
