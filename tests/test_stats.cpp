#include <gtest/gtest.h>

#include "stats/fct_recorder.h"
#include "stats/goodput_meter.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/table.h"

namespace negotiator {
namespace {

TEST(Percentile, BasicsAndEdges) {
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 50), 5.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
}

TEST(Percentile, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(FctRecorder, MiceVsAllSeparation) {
  FctRecorder rec;
  rec.record({1, 1'000, 0, 5'000, 0});        // mouse
  rec.record({2, 1'000'000, 0, 900'000, 0});  // elephant
  EXPECT_EQ(rec.mice_summary().count, 1u);
  EXPECT_EQ(rec.all_summary().count, 2u);
  EXPECT_DOUBLE_EQ(rec.mice_summary().mean_ns, 5'000.0);
}

TEST(FctRecorder, MeasureFromSkipsWarmup) {
  FctRecorder rec;
  rec.record({1, 1'000, 10, 5'000, 0});
  rec.record({2, 1'000, 200, 7'000, 0});
  rec.set_measure_from(100);
  EXPECT_EQ(rec.mice_summary().count, 1u);
  EXPECT_DOUBLE_EQ(rec.mice_summary().mean_ns, 7'000.0);
}

TEST(FctRecorder, GroupFiltering) {
  FctRecorder rec;
  rec.record({1, 1'000, 0, 1'000, 0});
  rec.record({2, 1'000, 0, 2'000, 1});
  rec.record({3, 1'000, 0, 3'000, 1});
  EXPECT_EQ(rec.mice_summary(1).count, 2u);
  EXPECT_DOUBLE_EQ(rec.mice_summary(1).mean_ns, 2'500.0);
  EXPECT_EQ(rec.mice_fcts(0).size(), 1u);
}

TEST(FctRecorder, P99TracksTail) {
  // 99 fast flows + 2 slow: nearest-rank p99 of 101 samples is the 100th
  // smallest, i.e. a slow one.
  FctRecorder rec;
  for (int i = 0; i < 99; ++i) rec.record({i, 100, 0, 10, 0});
  rec.record({99, 100, 0, 1'000'000, 0});
  rec.record({100, 100, 0, 1'000'000, 0});
  EXPECT_DOUBLE_EQ(rec.mice_summary().p99_ns, 1'000'000.0);
  EXPECT_DOUBLE_EQ(rec.mice_summary().max_ns, 1'000'000.0);
}

TEST(GoodputMeter, NormalizedGoodput) {
  GoodputMeter g(2);
  g.set_measure_interval(0, 1'000);
  // 2 ToRs at 400 Gbps = 100'000 B capacity over 1 us.
  g.record_delivery(0, 30'000, 500);
  g.record_delivery(1, 20'000, 999);
  EXPECT_DOUBLE_EQ(g.normalized_goodput(Rate::from_gbps(400)), 0.5);
}

TEST(GoodputMeter, MeasureIntervalExcludesOutside) {
  GoodputMeter g(1);
  g.set_measure_interval(100, 200);
  g.record_delivery(0, 1'000, 50);    // before
  g.record_delivery(0, 2'000, 150);   // inside
  g.record_delivery(0, 4'000, 200);   // at end (exclusive)
  EXPECT_EQ(g.delivered_bytes(), 2'000);
}

TEST(GoodputMeter, RelayTrackedSeparately) {
  GoodputMeter g(2);
  g.set_measure_interval(0, 100);
  g.record_delivery(0, 500, 10);
  g.record_relay_reception(1, 700, 10);
  EXPECT_EQ(g.delivered_bytes(), 500);
  EXPECT_EQ(g.relay_bytes(), 700);
}

TEST(GoodputMeter, WindowSeries) {
  GoodputMeter g(2, /*window=*/100);
  g.record_delivery(0, 10, 50);
  g.record_delivery(0, 20, 150);
  g.record_delivery(0, 30, 199);
  ASSERT_GE(g.tor_window_series(0).size(), 2u);
  EXPECT_EQ(g.tor_window_series(0)[0], 10);
  EXPECT_EQ(g.tor_window_series(0)[1], 50);
  EXPECT_TRUE(g.tor_window_series(1).empty());
}

TEST(EmpiricalCdf, FractionBelow) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 10; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
}

TEST(EmpiricalCdf, PointsAreMonotone) {
  EmpiricalCdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(i * 7 % 97);
  const auto pts = cdf.points(20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].value, pts[i - 1].value);
    EXPECT_GT(pts[i].cdf, pts[i - 1].cdf);
  }
  EXPECT_DOUBLE_EQ(pts.back().cdf, 1.0);
}

TEST(ConsoleTable, RendersAlignedRows) {
  ConsoleTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(ConsoleTable, NumFormatting) {
  EXPECT_EQ(ConsoleTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::num(10.0, 0), "10");
}

TEST(FctRecorder, RecordSpanMatchesSequentialRecords) {
  FctRecorder bulk;
  FctRecorder seq;
  std::vector<FctSample> samples;
  for (int i = 0; i < 25; ++i) {
    samples.push_back(FctSample{i, 1'000 * (i + 1), i * 10,
                                500 + 13 * i, i % 3});
  }
  bulk.record_span(samples.data(), 10);
  bulk.record_span(samples.data() + 10, samples.size() - 10);
  bulk.record_span(samples.data(), 0);  // empty span is a no-op
  for (const FctSample& s : samples) seq.record(s);
  ASSERT_EQ(bulk.completed(), seq.completed());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(bulk.samples()[i].flow, seq.samples()[i].flow);
    EXPECT_EQ(bulk.samples()[i].fct, seq.samples()[i].fct);
    EXPECT_EQ(bulk.samples()[i].arrival, seq.samples()[i].arrival);
  }
  const FctSummary a = bulk.all_summary();
  const FctSummary b = seq.all_summary();
  EXPECT_DOUBLE_EQ(a.p99_ns, b.p99_ns);
  EXPECT_DOUBLE_EQ(a.mean_ns, b.mean_ns);
}

TEST(GoodputMeter, DeliverySpanMatchesSequentialDeliveries) {
  // One slot's span: every record shares the arrival time; the span form
  // must land identical totals and identical per-ToR window series, with
  // arbitrary interleaving of destinations inside the span.
  GoodputMeter bulk(4, /*window=*/100);
  GoodputMeter seq(4, /*window=*/100);
  bulk.set_measure_interval(50, 10'000);
  seq.set_measure_interval(50, 10'000);
  const DeliveryRecord slot_a[] = {
      {1, 0, 300}, {2, 2, 150}, {3, 0, 75}, {4, 3, 220}, {5, 2, 10}};
  const DeliveryRecord slot_b[] = {{6, 1, 40}, {7, 1, 60}};
  bulk.record_delivery_span(slot_a, 5, 120);
  bulk.record_delivery_span(slot_b, 2, 260);
  bulk.record_delivery_span(slot_a, 0, 300);  // empty span is a no-op
  for (const DeliveryRecord& r : slot_a) {
    seq.record_delivery(r.dst, r.bytes, 120);
  }
  for (const DeliveryRecord& r : slot_b) {
    seq.record_delivery(r.dst, r.bytes, 260);
  }
  EXPECT_EQ(bulk.delivered_bytes(), seq.delivered_bytes());
  for (TorId dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(bulk.tor_window_series(dst), seq.tor_window_series(dst))
        << "dst " << dst;
  }
}

TEST(GoodputMeter, DeliverySpanRespectsMeasureInterval) {
  GoodputMeter bulk(2);
  GoodputMeter seq(2);
  bulk.set_measure_interval(100, 200);
  seq.set_measure_interval(100, 200);
  const DeliveryRecord records[] = {{1, 0, 500}, {2, 1, 700}};
  bulk.record_delivery_span(records, 2, 99);   // before the interval
  bulk.record_delivery_span(records, 2, 150);  // inside
  bulk.record_delivery_span(records, 2, 200);  // at the exclusive end
  for (const Nanos when : {Nanos{99}, Nanos{150}, Nanos{200}}) {
    for (const DeliveryRecord& r : records) {
      seq.record_delivery(r.dst, r.bytes, when);
    }
  }
  EXPECT_EQ(bulk.delivered_bytes(), seq.delivered_bytes());
  EXPECT_EQ(bulk.delivered_bytes(), 1'200);
}

}  // namespace
}  // namespace negotiator
