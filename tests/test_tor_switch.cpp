#include "tor/tor_switch.h"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

namespace negotiator {
namespace {

Flow make_flow(FlowId id, TorId src, TorId dst, Bytes size, Nanos arrival) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  return f;
}

TEST(TorSwitch, AcceptFlowUpdatesDemand) {
  TorSwitch tor(0, 8, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 3, 5'000, 10), 10);
  EXPECT_EQ(tor.pending_to(3), 5'000);
  EXPECT_EQ(tor.total_pending(), 5'000);
  EXPECT_EQ(tor.active_destinations().size(), 1u);
  EXPECT_TRUE(tor.active_destinations().contains(3));
}

TEST(TorSwitch, ActiveDestinationsTrackDrain) {
  TorSwitch tor(0, 8, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 3, 1'000, 0), 0);
  tor.accept_flow(make_flow(2, 0, 5, 1'000, 0), 0);
  EXPECT_EQ(tor.active_destinations().size(), 2u);
  while (tor.dequeue_packet(3, 600)) {
  }
  EXPECT_FALSE(tor.active_destinations().contains(3));
  EXPECT_TRUE(tor.active_destinations().contains(5));
}

TEST(TorSwitch, PiasOrderAcrossFlows) {
  TorSwitch tor(0, 4, PiasConfig{});
  // Elephant first, then a mouse to the same destination.
  tor.accept_flow(make_flow(1, 0, 2, 100'000, 0), 0);
  tor.accept_flow(make_flow(2, 0, 2, 800, 5), 5);
  // First packet: elephant's first 1KB segment (level 0, earlier).
  auto p1 = tor.dequeue_packet(2, 1'115);
  EXPECT_EQ(p1->flow, 1);
  // Next level-0 data is the mouse — it overtakes the elephant's levels 1-2.
  auto p2 = tor.dequeue_packet(2, 1'115);
  EXPECT_EQ(p2->flow, 2) << "mouse must overtake the elephant body";
}

TEST(TorSwitch, ElephantDequeueLeavesMice) {
  TorSwitch tor(0, 4, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 2, 50'000, 0), 0);
  auto pkt = tor.dequeue_elephant_packet(2, 1'115);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->level, 2);
  EXPECT_EQ(tor.bytes_at_level(2, 0), 1'000);
}

TEST(TorSwitch, RequeueFrontRestores) {
  TorSwitch tor(0, 4, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 2, 1'000, 0), 0);
  auto pkt = tor.dequeue_packet(2, 600);
  tor.requeue_front(2, *pkt);
  EXPECT_EQ(tor.pending_to(2), 1'000);
  EXPECT_TRUE(tor.active_destinations().contains(2));
}

TEST(TorSwitch, RejectsForeignFlows) {
  TorSwitch tor(0, 4, PiasConfig{});
  EXPECT_DEATH(tor.accept_flow(make_flow(1, 2, 3, 100, 0), 0),
               "flow does not originate here");
}

TEST(TorSwitch, TotalPendingConserved) {
  TorSwitch tor(1, 16, PiasConfig{});
  Bytes total = 0;
  for (int i = 0; i < 64; ++i) {
    const TorId dst = static_cast<TorId>(i % 16 == 1 ? 2 : i % 16);
    const Bytes size = 997 * (i + 1);
    tor.accept_flow(make_flow(i, 1, dst, size, i), i);
    total += size;
  }
  EXPECT_EQ(tor.total_pending(), total);
  for (TorId d = 0; d < 16; ++d) {
    if (d == tor.id()) continue;
    while (auto p = tor.dequeue_packet(d, 1'115)) total -= p->bytes;
  }
  EXPECT_EQ(total, 0);
  EXPECT_EQ(tor.total_pending(), 0);
  EXPECT_TRUE(tor.active_destinations().empty());
}

TEST(ActiveSet, SortedViewAndMembership) {
  ActiveSet set(8);
  set.insert(5);
  set.insert(2);
  set.insert(7);
  set.insert(2);  // duplicate is a no-op
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(3));
  std::vector<TorId> seen(set.begin(), set.end());
  EXPECT_EQ(seen, (std::vector<TorId>{2, 5, 7}));
  set.erase(5);
  EXPECT_FALSE(set.contains(5));
  seen.assign(set.begin(), set.end());
  EXPECT_EQ(seen, (std::vector<TorId>{2, 7}));
}

TEST(ActiveSet, SuccessorQueriesScanTheBitmap) {
  ActiveSet set(16);
  for (TorId t : {3, 8, 12}) set.insert(t);
  EXPECT_EQ(set.first_member(), 3);
  EXPECT_EQ(set.next_member_after(3), 8);
  EXPECT_EQ(set.next_member_after(0), 3);
  EXPECT_EQ(set.next_member_after(-1), 3);
  EXPECT_EQ(set.next_member_after(12), kInvalidTor);
  EXPECT_EQ(set.next_member_after(15), kInvalidTor);
  set.erase(8);
  EXPECT_EQ(set.next_member_after(3), 12);
  // Across word boundaries.
  ActiveSet wide(200);
  wide.insert(1);
  wide.insert(130);
  EXPECT_EQ(wide.next_member_after(1), 130);
  EXPECT_EQ(wide.next_member_after(130), kInvalidTor);
  EXPECT_EQ(ActiveSet(8).first_member(), kInvalidTor);

  // The bitmap on its own: members on both sides of every word boundary,
  // inserted out of order, walk back ascending.
  static_assert(std::forward_iterator<TorBitmap::const_iterator>);
  TorBitmap bits(200);
  const std::vector<TorId> members{0, 1, 63, 64, 65, 127, 128, 130, 191, 199};
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    EXPECT_TRUE(bits.insert(*it));
  }
  EXPECT_FALSE(bits.insert(64)) << "duplicate";
  EXPECT_EQ(bits.size(), members.size());
  EXPECT_EQ(std::vector<TorId>(bits.begin(), bits.end()), members);
  EXPECT_EQ(bits.first_member(), 0);
  EXPECT_EQ(bits.next_member_after(1), 63);
  EXPECT_EQ(bits.next_member_after(63), 64);
  EXPECT_EQ(bits.next_member_after(65), 127);
  EXPECT_EQ(bits.next_member_after(130), 191);
  EXPECT_EQ(bits.next_member_after(199), kInvalidTor);
  // Empty a whole word (64..127) and the first member: the walk skips it.
  for (TorId t : {0, 64, 65, 127}) EXPECT_TRUE(bits.erase(t));
  EXPECT_FALSE(bits.erase(2)) << "not a member";
  EXPECT_FALSE(bits.erase(500)) << "past the capacity";
  EXPECT_EQ(std::vector<TorId>(bits.begin(), bits.end()),
            (std::vector<TorId>{1, 63, 128, 130, 191, 199}));
  EXPECT_EQ(bits.next_member_after(63), 128);
  EXPECT_EQ(bits.size(), 6u);
  const TorBitmap none(200);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_EQ(none.first_member(), kInvalidTor);
  const TorBitmap unsized;
  EXPECT_TRUE(unsized.begin() == unsized.end());
}

}  // namespace
}  // namespace negotiator
