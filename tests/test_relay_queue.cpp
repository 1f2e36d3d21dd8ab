#include "tor/relay_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"

namespace negotiator {
namespace {

TEST(RelayQueue, StartsEmpty) {
  RelayQueueSet r(8);
  EXPECT_EQ(r.total_bytes(), 0);
  EXPECT_TRUE(r.empty_for(3));
  EXPECT_FALSE(r.dequeue_packet(3, 1'000).has_value());
}

TEST(RelayQueue, PerDestinationIsolation) {
  RelayQueueSet r(8);
  r.enqueue(1, 10, 500, 0);
  r.enqueue(2, 11, 700, 0);
  EXPECT_EQ(r.bytes_for(1), 500);
  EXPECT_EQ(r.bytes_for(2), 700);
  EXPECT_EQ(r.total_bytes(), 1'200);
  EXPECT_FALSE(r.dequeue_packet(3, 1'000).has_value());
}

TEST(RelayQueue, FifoOrderNoPrioritization) {
  // §4.1: priority queues do not apply at intermediate nodes.
  RelayQueueSet r(4);
  r.enqueue(0, 100, 1'000, 0);  // elephant chunk arrives first
  r.enqueue(0, 200, 100, 1);    // mouse behind it
  EXPECT_EQ(r.dequeue_packet(0, 2'000)->flow, 100)
      << "FIFO: the mouse must wait behind the elephant chunk";
}

TEST(RelayQueue, PacketBounded) {
  RelayQueueSet r(4);
  r.enqueue(0, 1, 5'000, 0);
  const auto chunk = r.dequeue_packet(0, 1'115);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->bytes, 1'115);
  EXPECT_EQ(r.bytes_for(0), 3'885);
}

TEST(RelayQueue, SameFlowChunksCoalesce) {
  RelayQueueSet r(4);
  r.enqueue(0, 1, 500, 0);
  r.enqueue(0, 1, 500, 5);
  const auto chunk = r.dequeue_packet(0, 2'000);
  EXPECT_EQ(chunk->bytes, 1'000);
  EXPECT_TRUE(r.empty_for(0));
}

TEST(RelayQueue, TotalsConserved) {
  RelayQueueSet r(4);
  Bytes in = 0;
  for (int i = 0; i < 100; ++i) {
    r.enqueue(i % 4, i, 137 + i, i);
    in += 137 + i;
  }
  Bytes out = 0;
  for (TorId d = 0; d < 4; ++d) {
    while (auto c = r.dequeue_packet(d, 1'000)) out += c->bytes;
  }
  EXPECT_EQ(in, out);
  EXPECT_EQ(r.total_bytes(), 0);
}

// --- Arena store vs a deque-per-destination reference model ---

/// The relay-queue contract in its plainest form: one std::deque of chunks
/// per final destination, a same-flow same-seq tail merge on enqueue and
/// partial takes from the head on dequeue.
class RelayModel {
 public:
  explicit RelayModel(int num_tors)
      : queues_(static_cast<std::size_t>(num_tors)) {}

  void enqueue(TorId dst, FlowId flow, Bytes bytes, Nanos now,
               std::uint32_t seq) {
    auto& q = queues_[static_cast<std::size_t>(dst)];
    if (!q.empty() && q.back().flow == flow && q.back().seq == seq) {
      q.back().bytes += bytes;
    } else {
      q.push_back(RelayChunk{flow, bytes, now, seq});
    }
  }

  std::vector<RelayChunk> dequeue(TorId dst, Bytes max_payload,
                                  std::size_t max_packets) {
    auto& q = queues_[static_cast<std::size_t>(dst)];
    std::vector<RelayChunk> out;
    while (out.size() < max_packets && !q.empty()) {
      RelayChunk& head = q.front();
      const Bytes take = std::min(head.bytes, max_payload);
      out.push_back(RelayChunk{head.flow, take, head.received_at, head.seq});
      head.bytes -= take;
      if (head.bytes == 0) q.pop_front();
    }
    return out;
  }

  Bytes bytes_for(TorId dst) const {
    Bytes sum = 0;
    for (const RelayChunk& c : queues_[static_cast<std::size_t>(dst)]) {
      sum += c.bytes;
    }
    return sum;
  }
  std::size_t chunks_for(TorId dst) const {
    return queues_[static_cast<std::size_t>(dst)].size();
  }

 private:
  std::vector<std::deque<RelayChunk>> queues_;
};

TEST(RelayQueue, ArenaMatchesDequeReferenceModel) {
  // Random interleaved enqueue / enqueue_span / dequeue_span traffic across
  // many destinations. Few flows make same-flow tails common (coalescing);
  // drains of one destination free nodes the next enqueue elsewhere reuses
  // (free list shared across destinations); seq-0 chunks larger than the
  // payload force partial takes, while seq-carrying units stay at most one
  // payload so they never split — as the ARQ transport sizes them. Each
  // step also walks the occupancy bitmap, at one bitmap word (16 ToRs) and
  // across four (200 ToRs).
  for (const int kTors : {16, 200}) {
    SCOPED_TRACE(::testing::Message() << kTors << " ToRs");
    const Bytes kPayload = 1'000;
    RelayQueueSet arena(kTors);
    RelayModel model(kTors);
    Rng rng(20'240'613);
    std::uint32_t next_seq = 1;
    std::size_t drained_nodes = 0;
    std::size_t partial_takes = 0;
    std::size_t coalesced = 0;
    auto draw_chunk = [&](TorId& dst, FlowId& flow, Bytes& bytes,
                          std::uint32_t& seq) {
      dst = static_cast<TorId>(rng.next_below(kTors));
      flow = static_cast<FlowId>(rng.next_below(4));
      if (rng.next_below(3) == 0) {
        // A seq-carrying unit: a fresh seq, or a repeat of the last one so
        // the same-seq tail merge is exercised too.
        seq = rng.next_below(2) == 0 ? next_seq++ : next_seq - 1;
        bytes = 1 + static_cast<Bytes>(rng.next_below(kPayload / 2));
      } else {
        seq = 0;
        bytes = 1 + static_cast<Bytes>(rng.next_below(3 * kPayload));
      }
    };
    for (int step = 0; step < 20'000; ++step) {
      const std::int64_t op = rng.next_below(10);
      const Nanos now = step;
      if (op < 4) {
        TorId dst;
        FlowId flow;
        Bytes bytes;
        std::uint32_t seq;
        draw_chunk(dst, flow, bytes, seq);
        const std::size_t before = model.chunks_for(dst);
        // A seq-carrying unit merged past one payload would become
        // splittable; the transport never produces that, so neither do we.
        if (seq != 0 && before > 0 && model.bytes_for(dst) + bytes > kPayload) {
          seq = next_seq++;
        }
        arena.enqueue(dst, flow, bytes, now, seq);
        model.enqueue(dst, flow, bytes, now, seq);
        if (before > 0 && model.chunks_for(dst) == before) ++coalesced;
      } else if (op < 6) {
        std::vector<RelayTrainChunk> train;
        const int n = 1 + static_cast<int>(rng.next_below(10));
        for (int i = 0; i < n; ++i) {
          RelayTrainChunk c{/*intermediate=*/0, 0, 0, 0, 0};
          draw_chunk(c.final_dst, c.flow, c.bytes, c.seq);
          if (c.seq != 0) c.seq = next_seq++;
          train.push_back(c);
        }
        arena.enqueue_span(train.data(), train.size(), now);
        for (const RelayTrainChunk& c : train) {
          model.enqueue(c.final_dst, c.flow, c.bytes, now, c.seq);
        }
      } else {
        const TorId dst = static_cast<TorId>(rng.next_below(kTors));
        const std::size_t max_packets =
            1 + static_cast<std::size_t>(rng.next_below(6));
        const std::size_t chunks_before = model.chunks_for(dst);
        RelayChunk got[6];
        const std::size_t n =
            arena.dequeue_span(dst, kPayload, max_packets, got);
        const std::vector<RelayChunk> want =
            model.dequeue(dst, kPayload, max_packets);
        ASSERT_EQ(n, want.size()) << "step " << step;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i].flow, want[i].flow) << "step " << step;
          ASSERT_EQ(got[i].bytes, want[i].bytes) << "step " << step;
          ASSERT_EQ(got[i].received_at, want[i].received_at) << "step " << step;
          ASSERT_EQ(got[i].seq, want[i].seq) << "step " << step;
        }
        drained_nodes += chunks_before - model.chunks_for(dst);
        partial_takes += n - (chunks_before - model.chunks_for(dst));
      }
      Bytes total = 0;
      std::vector<TorId> occupied;
      for (TorId d = 0; d < kTors; ++d) {
        ASSERT_EQ(arena.bytes_for(d), model.bytes_for(d))
            << "step " << step << " dst " << d;
        ASSERT_EQ(arena.active_destinations().contains(d),
                  model.chunks_for(d) > 0)
            << "step " << step << " dst " << d;
        if (model.chunks_for(d) > 0) occupied.push_back(d);
        total += model.bytes_for(d);
      }
      ASSERT_EQ(arena.total_bytes(), total) << "step " << step;
      const TorBitmap& active = arena.active_destinations();
      ASSERT_EQ(std::vector<TorId>(active.begin(), active.end()), occupied)
          << "step " << step;
      ASSERT_EQ(active.size(), occupied.size()) << "step " << step;
    }
    // The run must actually have covered the cases it claims to.
    EXPECT_GT(drained_nodes, 1'000u) << "free-list reuse";
    EXPECT_GT(partial_takes, 1'000u);
    EXPECT_GT(coalesced, 100u);
    EXPECT_GT(next_seq, 1'000u) << "seq-carrying units";
  }
}

// --- Bulk train ingest (enqueue_span) ---

TEST(RelayQueue, EnqueueSpanMatchesSequentialEnqueues) {
  // Property: bulk span ingest must be observationally identical to
  // per-chunk enqueue — same totals, same per-destination bytes, same
  // drain order, same coalescing — across random trains.
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    RelayQueueSet bulk(6);
    RelayQueueSet seq(6);
    Nanos now = 0;
    for (int train = 0; train < 8; ++train) {
      std::vector<RelayTrainChunk> chunks;
      const int n = 1 + static_cast<int>(rng.next_below(12));
      for (int i = 0; i < n; ++i) {
        chunks.push_back(RelayTrainChunk{
            /*intermediate=*/0, static_cast<TorId>(rng.next_below(6)),
            static_cast<FlowId>(rng.next_below(5)),
            static_cast<Bytes>(1 + rng.next_below(1'000))});
      }
      bulk.enqueue_span(chunks.data(), chunks.size(), now);
      for (const RelayTrainChunk& c : chunks) {
        seq.enqueue(c.final_dst, c.flow, c.bytes, now);
      }
      now += 100;
    }
    ASSERT_EQ(bulk.total_bytes(), seq.total_bytes()) << "round " << round;
    for (TorId d = 0; d < 6; ++d) {
      ASSERT_EQ(bulk.bytes_for(d), seq.bytes_for(d)) << "round " << round;
      ASSERT_EQ(bulk.active_destinations().contains(d),
                seq.active_destinations().contains(d))
          << "round " << round;
      while (true) {
        auto a = bulk.dequeue_packet(d, 512);
        auto b = seq.dequeue_packet(d, 512);
        ASSERT_EQ(a.has_value(), b.has_value()) << "round " << round;
        if (!a) break;
        ASSERT_EQ(a->flow, b->flow) << "round " << round;
        ASSERT_EQ(a->bytes, b->bytes) << "round " << round;
        ASSERT_EQ(a->received_at, b->received_at) << "round " << round;
      }
    }
  }
}

TEST(RelayQueue, EnqueueSpanCoalescesIntoTheFifoTail) {
  RelayQueueSet r(4);
  r.enqueue(2, 7, 100, 0);
  const RelayTrainChunk chunks[] = {
      {0, 2, 7, 50},   // merges into the tail chunk of flow 7
      {0, 2, 7, 25},   // still the same tail
      {0, 2, 9, 10},   // new chunk
      {0, 1, 9, 30},   // different destination
  };
  r.enqueue_span(chunks, 4, 5);
  EXPECT_EQ(r.bytes_for(2), 185);
  EXPECT_EQ(r.bytes_for(1), 30);
  auto head = r.dequeue_packet(2, 10'000);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->flow, 7);
  EXPECT_EQ(head->bytes, 175) << "all three flow-7 chunks coalesced";
  EXPECT_EQ(head->received_at, 0) << "coalescing keeps the first arrival";
}

TEST(RelayQueue, EnqueueSpanEmptyIsANoOp) {
  RelayQueueSet r(4);
  r.enqueue_span(nullptr, 0, 0);
  EXPECT_EQ(r.total_bytes(), 0);
}

TEST(RelayQueue, DequeueSpanMatchesSequentialDequeues) {
  // The drain-side mirror of the enqueue_span equivalence: a span of up to
  // k packets must be exactly what k sequential dequeue_packet calls yield
  // — same flows, same partial takes, same reception stamps, same counter
  // and active-set trajectory.
  const int kTors = 6;
  RelayQueueSet bulk(kTors);
  RelayQueueSet seq(kTors);
  Rng rng(42);
  for (int i = 0; i < 300; ++i) {
    const TorId dst = static_cast<TorId>(rng.next_below(kTors));
    const FlowId flow = static_cast<FlowId>(rng.next_below(20));
    const Bytes bytes = 1 + rng.next_below(3'000);
    bulk.enqueue(dst, flow, bytes, i);
    seq.enqueue(dst, flow, bytes, i);
  }
  RelayChunk span[8];
  for (int round = 0; round < 600; ++round) {
    const TorId dst = static_cast<TorId>(rng.next_below(kTors));
    const Bytes payload = 1 + rng.next_below(1'200);
    const std::size_t max_packets =
        1 + static_cast<std::size_t>(rng.next_below(8));
    const std::size_t n = bulk.dequeue_span(dst, payload, max_packets, span);
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = seq.dequeue_packet(dst, payload);
      ASSERT_TRUE(want.has_value()) << "round " << round;
      EXPECT_EQ(span[i].flow, want->flow);
      EXPECT_EQ(span[i].bytes, want->bytes);
      EXPECT_EQ(span[i].received_at, want->received_at);
    }
    if (n < max_packets) {
      EXPECT_FALSE(seq.dequeue_packet(dst, payload).has_value());
    }
    ASSERT_EQ(bulk.bytes_for(dst), seq.bytes_for(dst));
    ASSERT_EQ(bulk.total_bytes(), seq.total_bytes());
    ASSERT_EQ(bulk.active_destinations().contains(dst),
              seq.active_destinations().contains(dst));
  }
}

}  // namespace
}  // namespace negotiator
