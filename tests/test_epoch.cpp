#include "core/epoch.h"

#include <gtest/gtest.h>

namespace negotiator {
namespace {

TEST(EpochTiming, PaperDefaults) {
  NetworkConfig c;
  EpochTiming t(c);
  EXPECT_EQ(t.predefined_slots(), 16);
  EXPECT_EQ(t.scheduled_slots(), 30);
  EXPECT_EQ(t.predefined_phase_length(), 960);
  EXPECT_EQ(t.epoch_length(), 3'660);
}

TEST(EpochTiming, SlotBoundaries) {
  NetworkConfig c;
  EpochTiming t(c);
  EXPECT_EQ(t.epoch_start(0), 0);
  EXPECT_EQ(t.epoch_start(2), 7'320);
  EXPECT_EQ(t.predefined_slot_start(0, 0), 0);
  EXPECT_EQ(t.predefined_slot_start(0, 1), 60);
  EXPECT_EQ(t.predefined_slot_data_end(0, 0), 60);
  EXPECT_EQ(t.scheduled_phase_start(0), 960);
  EXPECT_EQ(t.scheduled_slot_start(0, 0), 960);
  EXPECT_EQ(t.scheduled_slot_end(0, 0), 1'050);
  EXPECT_EQ(t.scheduled_slot_end(0, 29), 3'660);
}

TEST(EpochTiming, SecondEpochOffsets) {
  NetworkConfig c;
  EpochTiming t(c);
  EXPECT_EQ(t.predefined_slot_start(1, 0), 3'660);
  EXPECT_EQ(t.scheduled_slot_start(1, 0), 3'660 + 960);
}

TEST(EpochTiming, EpochContaining) {
  NetworkConfig c;
  EpochTiming t(c);
  EXPECT_EQ(t.epoch_containing(0), 0);
  EXPECT_EQ(t.epoch_containing(3'659), 0);
  EXPECT_EQ(t.epoch_containing(3'660), 1);
  EXPECT_EQ(t.epoch_containing(36'600), 10);
}

TEST(EpochTiming, LongerGuardbandStretchesEpoch) {
  NetworkConfig c;
  c.epoch.guardband_ns = 100;
  EpochTiming t(c);
  EXPECT_EQ(t.predefined_phase_length(), 16 * 150);
  EXPECT_EQ(t.epoch_length(), 16 * 150 + 30 * 90);
}

TEST(EpochTiming, ZeroScheduledSlotsDegeneratesToRoundRobin) {
  NetworkConfig c;
  c.epoch.scheduled_slots = 0;
  EpochTiming t(c);
  EXPECT_EQ(t.epoch_length(), t.predefined_phase_length());
}

}  // namespace
}  // namespace negotiator
