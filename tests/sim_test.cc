// Unit tests for the discrete-event simulation kernel and network model.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/payload.h"
#include "src/sim/simulation.h"
#include "src/sim/topology.h"
#include "src/util/bufpool.h"
#include "src/util/hotpath.h"

namespace bftbase {
namespace {

class RecordingNode : public SimNode {
 public:
  void OnMessage(NodeId from, const Bytes& payload) override {
    messages.emplace_back(from, payload);
  }
  std::vector<std::pair<NodeId, Bytes>> messages;
};

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim(1);
  std::vector<int> order;
  sim.After(Simulation::kNoOwner, 300, [&] { order.push_back(3); });
  sim.After(Simulation::kNoOwner, 100, [&] { order.push_back(1); });
  sim.After(Simulation::kNoOwner, 200, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  Simulation sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.After(Simulation::kNoOwner, 50, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulation, CancelledTimerDoesNotFire) {
  Simulation sim(1);
  bool fired = false;
  TimerId id = sim.After(Simulation::kNoOwner, 100, [&] { fired = true; });
  sim.Cancel(id);
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim(1);
  int count = 0;
  sim.After(Simulation::kNoOwner, 100, [&] { ++count; });
  sim.After(Simulation::kNoOwner, 900, [&] { ++count; });
  sim.RunUntil(500);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.Now(), 500);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, DeadlineChecksSkipCancelledHeadTimers) {
  // A cancelled timer at the head of the queue must not count as the next
  // event: if the deadline check read its time, the Step() that prunes it
  // would then run the live event far past the deadline.
  Simulation sim(1);
  int fired = 0;
  TimerId cancelled = sim.After(Simulation::kNoOwner, 100, [&] { ++fired; });
  sim.After(Simulation::kNoOwner, 900, [&] { ++fired; });
  sim.Cancel(cancelled);
  sim.RunUntil(500);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 500);
  EXPECT_FALSE(sim.RunUntilTrue([&] { return fired > 0; }, 800));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.RunUntilTrue([&] { return fired > 0; }, 1000));
  EXPECT_EQ(sim.Now(), 900);
}

TEST(Simulation, ChargeCpuSerializesNode) {
  Simulation sim(1);
  std::vector<SimTime> run_times;
  // Two events for node 7 at the same instant; the first charges 500us of
  // CPU, so the second must start only after it finishes.
  sim.After(7, 100, [&] {
    run_times.push_back(sim.Now());
    sim.ChargeCpu(500);
  });
  sim.After(7, 100, [&] { run_times.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(run_times.size(), 2u);
  EXPECT_EQ(run_times[0], 100);
  EXPECT_EQ(run_times[1], 600);
}

TEST(Simulation, DifferentNodesRunConcurrently) {
  Simulation sim(1);
  std::vector<SimTime> run_times;
  sim.After(1, 100, [&] {
    run_times.push_back(sim.Now());
    sim.ChargeCpu(500);
  });
  sim.After(2, 100, [&] { run_times.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(run_times.size(), 2u);
  EXPECT_EQ(run_times[0], 100);
  EXPECT_EQ(run_times[1], 100);  // node 2 is not blocked by node 1
}

TEST(Network, DeliversWithLatency) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("hello")); });
  sim.RunUntilIdle();
  ASSERT_EQ(receiver.messages.size(), 1u);
  EXPECT_EQ(receiver.messages[0].first, 1);
  EXPECT_EQ(ToString(receiver.messages[0].second), "hello");
  EXPECT_GE(sim.Now(), sim.cost().MessageLatency(5));
}

TEST(Network, SenderCpuDelaysDeparture) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  SimTime arrival_without_cpu = 0;
  {
    Simulation sim2(1);
    RecordingNode r2;
    sim2.AddNode(2, &r2);
    sim2.After(1, 0, [&] { sim2.network().Send(1, 2, ToBytes("x")); });
    sim2.RunUntilIdle();
    arrival_without_cpu = sim2.Now();
  }
  sim.After(1, 0, [&] {
    sim.ChargeCpu(1000);  // crypto work before the send
    sim.network().Send(1, 2, ToBytes("x"));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now(), arrival_without_cpu + 1000);
}

TEST(Network, IsolationDropsBothDirections) {
  Simulation sim(1);
  RecordingNode a;
  RecordingNode b;
  sim.AddNode(1, &a);
  sim.AddNode(2, &b);
  sim.network().Isolate(2);
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("to-isolated")); });
  sim.After(2, 0, [&] { sim.network().Send(2, 1, ToBytes("from-isolated")); });
  sim.RunUntilIdle();
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(sim.network().messages_dropped(), 2u);

  sim.network().Heal(2);
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("healed")); });
  sim.RunUntilIdle();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(Network, BlockedLinkIsSymmetricAndSpecific) {
  Simulation sim(1);
  RecordingNode a;
  RecordingNode b;
  RecordingNode c;
  sim.AddNode(1, &a);
  sim.AddNode(2, &b);
  sim.AddNode(3, &c);
  sim.network().BlockLink(1, 2);
  sim.After(1, 0, [&] {
    sim.network().Send(1, 2, ToBytes("blocked"));
    sim.network().Send(1, 3, ToBytes("open"));
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(c.messages.size(), 1u);
}

TEST(Network, DropProbabilityDropsSome) {
  Simulation sim(123);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.network().SetDropProbability(0.5);
  for (int i = 0; i < 200; ++i) {
    sim.After(1, i, [&] { sim.network().Send(1, 2, ToBytes("m")); });
  }
  sim.RunUntilIdle();
  EXPECT_GT(receiver.messages.size(), 50u);
  EXPECT_LT(receiver.messages.size(), 150u);
}

TEST(Network, InterceptorCanDropAndMutate) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.network().SetInterceptor([](NodeId, NodeId, Bytes& payload) {
    if (!payload.empty() && payload[0] == 'd') {
      return false;  // drop
    }
    if (!payload.empty()) {
      payload[0] = 'X';  // mutate
    }
    return true;
  });
  sim.After(1, 0, [&] {
    sim.network().Send(1, 2, ToBytes("drop me"));
    sim.network().Send(1, 2, ToBytes("mutate me"));
  });
  sim.RunUntilIdle();
  ASSERT_EQ(receiver.messages.size(), 1u);
  EXPECT_EQ(ToString(receiver.messages[0].second), "Xutate me");
}

TEST(Network, FullDropDeliversNothing) {
  // Regression for the send-counting bug: with 100% loss the network used to
  // report traffic as "sent" even though nothing ever arrived. The stats now
  // split offered/delivered/dropped, and delivered must be exactly zero.
  Simulation sim(42);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.network().SetDropProbability(1.0);
  for (int i = 0; i < 100; ++i) {
    sim.After(1, i, [&] { sim.network().Send(1, 2, ToBytes("lost")); });
  }
  sim.RunUntilIdle();
  EXPECT_TRUE(receiver.messages.empty());
  EXPECT_EQ(sim.network().messages_offered(), 100u);
  EXPECT_EQ(sim.network().messages_delivered(), 0u);
  EXPECT_EQ(sim.network().messages_dropped(), 100u);
  EXPECT_EQ(sim.network().bytes_delivered(), 0u);
  EXPECT_EQ(sim.network().bytes_offered(), 100u * 4u);
}

TEST(Network, StatsSplitOfferedDeliveredDropped) {
  Simulation sim(1);
  RecordingNode a;
  RecordingNode b;
  sim.AddNode(1, &a);
  sim.AddNode(2, &b);
  sim.network().BlockLink(1, 2);
  sim.After(1, 0, [&] {
    sim.network().Send(1, 2, ToBytes("blocked"));  // dropped
    sim.network().Send(2, 1, ToBytes("blocked"));  // dropped
    sim.network().Send(1, 1, ToBytes("self"));     // delivered (loopback)
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.network().messages_offered(), 3u);
  EXPECT_EQ(sim.network().messages_delivered(), 1u);
  EXPECT_EQ(sim.network().messages_dropped(), 2u);
  EXPECT_EQ(sim.network().messages_offered(),
            sim.network().messages_delivered() +
                sim.network().messages_dropped());
  ASSERT_EQ(a.messages.size(), 1u);
}

TEST(Network, InterceptorDropIsCountedDropped) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.network().SetInterceptor(
      [](NodeId, NodeId, Bytes&) { return false; });
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("censored")); });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.network().messages_offered(), 1u);
  EXPECT_EQ(sim.network().messages_delivered(), 0u);
  EXPECT_EQ(sim.network().messages_dropped(), 1u);
}

TEST(Network, ResetStatsClearsNetworkCountersOnly) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  sim.metrics().Inc("replica.requests_executed", 0);
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("m")); });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.network().messages_offered(), 1u);
  sim.network().ResetStats();
  EXPECT_EQ(sim.network().messages_offered(), 0u);
  EXPECT_EQ(sim.network().messages_delivered(), 0u);
  EXPECT_EQ(sim.network().messages_dropped(), 0u);
  EXPECT_EQ(sim.network().bytes_offered(), 0u);
  EXPECT_EQ(sim.metrics().Get("replica.requests_executed", 0), 1u);
}

TEST(Network, MulticastReachesRange) {
  Simulation sim(1);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.After(0, 0, [&] { sim.network().Multicast(0, 0, 4, ToBytes("all")); });
  sim.RunUntilIdle();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(nodes[i].messages.size(), 1u) << i;
  }
}

TEST(Network, MulticastSharesOneCopyAcrossRecipients) {
  Simulation sim(1);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  Bytes payload = ToBytes("shared payload");
  sim.After(0, 0, [&] { sim.network().Multicast(0, 0, 4, payload); });
  sim.RunUntilIdle();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(nodes[i].messages.size(), 1u) << i;
    EXPECT_EQ(ToString(nodes[i].messages[0].second), "shared payload");
  }
  // One materialization of the shared buffer for n recipients.
  EXPECT_EQ(sim.network().payload_copies(), 1u);
  EXPECT_EQ(sim.network().bytes_copied(), payload.size());
  EXPECT_EQ(sim.metrics().Total("hot.payload_copies"), 1u);
}

TEST(Network, FullDropMulticastCopiesNothing) {
  // With every recipient dropped, the lazy fabric must never materialize the
  // shared buffer: zero payload copies, zero bytes copied.
  Simulation sim(42);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.network().SetDropProbability(1.0);
  sim.After(0, 0, [&] {
    sim.network().Multicast(0, 0, 4, ToBytes("never delivered"));
  });
  sim.RunUntilIdle();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(nodes[i].messages.empty()) << i;
  }
  EXPECT_EQ(sim.network().messages_dropped(), 4u);
  EXPECT_EQ(sim.metrics().Total("hot.payload_copies"), 0u);
  EXPECT_EQ(sim.metrics().Total("hot.bytes_copied"), 0u);
  EXPECT_EQ(sim.network().payload_copies(), 0u);
}

TEST(Network, MulticastSkipExcludesOnlySkippedNode) {
  Simulation sim(1);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.After(0, 0, [&] {
    sim.network().Multicast(0, 0, 4, ToBytes("not to self"), /*skip=*/0);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(nodes[0].messages.empty());
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(nodes[i].messages.size(), 1u) << i;
  }
  EXPECT_EQ(sim.network().payload_copies(), 1u);
}

TEST(Network, InterceptorMutationDoesNotAliasOtherRecipients) {
  // Copy-on-write at the fault-injection boundary: an interceptor mutation
  // aimed at one recipient must not leak into the shared buffer the other
  // recipients receive, nor into the caller's buffer.
  Simulation sim(1);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.network().SetInterceptor([](NodeId, NodeId to, Bytes& payload) {
    if (to == 2 && !payload.empty()) {
      payload[0] = 'X';
    }
    return true;
  });
  Bytes original = ToBytes("clean");
  sim.After(0, 0, [&] { sim.network().Multicast(0, 0, 4, original); });
  sim.RunUntilIdle();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(nodes[i].messages.size(), 1u) << i;
    EXPECT_EQ(ToString(nodes[i].messages[0].second),
              i == 2 ? "Xlean" : "clean")
        << i;
  }
  EXPECT_EQ(ToString(original), "clean");  // caller's buffer untouched
}

TEST(Network, LinkDelayDelaysOnlyThatLink) {
  // Per-link extra delay reorders traffic across links: a message on the
  // delayed link arrives after a same-size message sent at the same instant
  // on an undelayed link.
  Simulation sim(1);
  std::vector<std::pair<NodeId, SimTime>> arrivals;
  class TimedNode : public SimNode {
   public:
    TimedNode(Simulation* sim, NodeId id,
              std::vector<std::pair<NodeId, SimTime>>* arrivals)
        : sim_(sim), id_(id), arrivals_(arrivals) {}
    void OnMessage(NodeId, const Bytes&) override {
      arrivals_->emplace_back(id_, sim_->Now());
    }

   private:
    Simulation* sim_;
    NodeId id_;
    std::vector<std::pair<NodeId, SimTime>>* arrivals_;
  };
  TimedNode b(&sim, 2, &arrivals);
  TimedNode c(&sim, 3, &arrivals);
  sim.AddNode(2, &b);
  sim.AddNode(3, &c);
  sim.network().AddDelay(1, 2, 5000);
  sim.After(1, 0, [&] {
    sim.network().Send(1, 2, ToBytes("slow"));
    sim.network().Send(1, 3, ToBytes("fast"));
  });
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, 3);  // the undelayed link wins
  EXPECT_EQ(arrivals[1].first, 2);
  EXPECT_EQ(arrivals[1].second - arrivals[0].second, 5000);
  // Taking the delay back restores symmetry.
  sim.network().AddDelay(1, 2, -5000);
  arrivals.clear();
  sim.After(1, sim.Now(), [&] {
    sim.network().Send(1, 2, ToBytes("even"));
    sim.network().Send(1, 3, ToBytes("even"));
  });
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].second, arrivals[1].second);
}

TEST(Network, DuplicationAliasesTheSharedBuffer) {
  // Duplicates are bounded (1..max_copies extras) and share the original's
  // buffer — zero-copy, verified by pointer identity of the in-flight
  // delivery buffer across all arrivals.
  Simulation sim(5);
  std::vector<const Payload*> buffers;
  class AliasNode : public SimNode {
   public:
    AliasNode(Simulation* sim, std::vector<const Payload*>* buffers)
        : sim_(sim), buffers_(buffers) {}
    void OnMessage(NodeId, const Bytes& payload) override {
      EXPECT_EQ(ToString(payload), "dup me");
      buffers_->push_back(sim_->current_delivery().get());
    }

   private:
    Simulation* sim_;
    std::vector<const Payload*>* buffers_;
  };
  AliasNode receiver(&sim, &buffers);
  sim.AddNode(2, &receiver);
  sim.network().SetDuplication(1.0, 2);
  sim.After(1, 0, [&] { sim.network().Send(1, 2, ToBytes("dup me")); });
  sim.RunUntilIdle();
  ASSERT_GE(buffers.size(), 2u);  // original + at least one duplicate
  ASSERT_LE(buffers.size(), 3u);  // ... and at most max_copies extras
  for (const Payload* buffer : buffers) {
    EXPECT_EQ(buffer, buffers[0]);  // every arrival aliases one buffer
  }
  EXPECT_EQ(sim.network().payload_copies(), 0u);
  EXPECT_EQ(sim.network().messages_offered(), 1u);
  EXPECT_EQ(sim.network().messages_duplicated(), buffers.size() - 1);
  EXPECT_EQ(sim.network().messages_delivered(), buffers.size());
}

TEST(Network, AccountingHoldsUnderComposedLevers) {
  // Offered - dropped + duplicated == delivered, with every adversarial
  // lever armed at once.
  Simulation sim(99);
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.network().SetDropProbability(0.3);
  sim.network().SetPairDropProbability(0, 1, 0.5);
  sim.network().AddDelay(1, 2, 3000);
  sim.network().SetDuplication(0.5, 3);
  for (int i = 0; i < 300; ++i) {
    sim.After(i % 4, i, [&sim, i] {
      sim.network().Send(i % 4, (i + 1) % 4, ToBytes("chaos"));
    });
  }
  sim.RunUntilIdle();
  const Network& net = sim.network();
  EXPECT_GT(net.messages_dropped(), 0u);
  EXPECT_GT(net.messages_duplicated(), 0u);
  EXPECT_EQ(net.messages_offered() - net.messages_dropped() +
                net.messages_duplicated(),
            net.messages_delivered());
  uint64_t received = 0;
  for (const auto& node : nodes) {
    received += node.messages.size();
  }
  EXPECT_EQ(received, net.messages_delivered());
}

TEST(CostModel, LatencyScalesWithSize) {
  CostModel cost;
  EXPECT_GT(cost.MessageLatency(10000), cost.MessageLatency(10));
  EXPECT_GT(cost.DigestCost(1 << 20), cost.DigestCost(64));
  EXPECT_GT(cost.MacCost(64), cost.DigestCost(64));
  EXPECT_GT(cost.DiskWriteCost(1 << 20), cost.disk_sync_write_us);
}

TEST(Simulation, RunUntilTrueReturnsEarly) {
  Simulation sim(1);
  bool flag = false;
  sim.After(Simulation::kNoOwner, 100, [&] { flag = true; });
  sim.After(Simulation::kNoOwner, 10000, [] {});
  EXPECT_TRUE(sim.RunUntilTrue([&] { return flag; }, 50000));
  EXPECT_EQ(sim.Now(), 100);  // did not run to the later event
}

TEST(Simulation, CancellingFiredTimersStaysBounded) {
  // Regression: the pre-overhaul kernel kept every cancelled TimerId in an
  // unbounded std::map forever — cancelling ids of timers that had already
  // fired (the common "disarm the timeout after the reply arrived" pattern)
  // leaked an entry per request. With generation-checked pool slots, a stale
  // cancel is an O(1) no-op and the only bookkeeping is the pool itself,
  // whose size is bounded by the maximum number of *concurrent* events.
  Simulation sim(1);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    TimerId id = sim.After(Simulation::kNoOwner, 1, [&] { ++fired; });
    sim.RunUntilIdle();
    sim.Cancel(id);  // timer already fired: must not grow anything
    sim.Cancel(id);  // repeated cancels are idempotent
  }
  EXPECT_EQ(fired, 10000);
  // One timer in flight at a time => a handful of pool slots, not 10000.
  EXPECT_LE(sim.event_pool_slots(), 4u);
  EXPECT_EQ(sim.event_pool_live(), 0u);
  // Garbage ids (never issued) are also O(1) no-ops.
  sim.Cancel(0);
  sim.Cancel(~TimerId{0});
  EXPECT_LE(sim.event_pool_slots(), 4u);
}

TEST(Simulation, CancelledPendingTimersRecycleSlots) {
  Simulation sim(1);
  const hotpath::Counters before = hotpath::counters();
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    TimerId id = sim.After(Simulation::kNoOwner, 10, [&] { ++fired; });
    sim.Cancel(id);
    sim.RunUntilIdle();  // prunes the cancelled head, recycling its slot
  }
  EXPECT_EQ(fired, 0);
  EXPECT_LE(sim.event_pool_slots(), 4u);
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_GE(after.events_pruned - before.events_pruned, 1000u);
  EXPECT_GE(after.event_pool_reuses - before.event_pool_reuses, 900u);
}

TEST(Simulation, EventPoolRecyclesSlotsUnderSteadyTraffic) {
  Simulation sim(1);
  RecordingNode receiver;
  sim.AddNode(2, &receiver);
  const hotpath::Counters before = hotpath::counters();
  for (int i = 0; i < 500; ++i) {
    sim.After(1, i * 10, [&] { sim.network().Send(1, 2, ToBytes("m")); });
    sim.RunUntilIdle();
  }
  EXPECT_EQ(receiver.messages.size(), 500u);
  // Steady-state traffic runs out of recycled slots: the pool stays a few
  // slots deep instead of growing one slot per event.
  EXPECT_LE(sim.event_pool_slots(), 8u);
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_GT(after.event_pool_reuses - before.event_pool_reuses, 400u);
  EXPECT_EQ(sim.event_pool_live(), 0u);
}

TEST(Simulation, BusyNodeDeferralMovesNotCopies) {
  Simulation sim(1);
  // The receiver observes the refcount of the in-flight delivery buffer: the
  // payload is moved pool-slot -> handler, so the only reference is
  // current_delivery_ itself, even after a deferral behind a busy node.
  class CountingNode : public SimNode {
   public:
    CountingNode(Simulation* sim) : sim_(sim) {}
    void OnMessage(NodeId, const Bytes&) override {
      use_counts.push_back(sim_->current_delivery().use_count());
      sim_->ChargeCpu(5000);  // make this node busy for the next arrival
    }
    std::vector<long> use_counts;

   private:
    Simulation* sim_;
  };
  CountingNode receiver(&sim);
  sim.AddNode(2, &receiver);
  const hotpath::Counters before = hotpath::counters();
  sim.After(1, 0, [&] {
    sim.network().Send(1, 2, ToBytes("first"));
    sim.network().Send(1, 2, ToBytes("second"));  // arrives while busy
  });
  sim.RunUntilIdle();
  ASSERT_EQ(receiver.use_counts.size(), 2u);
  const hotpath::Counters& after = hotpath::counters();
  // The second delivery found node 2 busy and was deferred behind it.
  EXPECT_GE(after.events_requeued - before.events_requeued, 1u);
  EXPECT_EQ(receiver.use_counts[0], 1);
  EXPECT_EQ(receiver.use_counts[1], 1);  // requeue did not copy
}

TEST(Simulation, RemoveNodeClearsBusyHorizon) {
  // A node that crashes mid-handler and is later re-added under the same id
  // must not inherit the dead incarnation's busy-until time.
  Simulation sim(1);
  RecordingNode node;
  sim.AddNode(5, &node);
  std::vector<SimTime> run_times;
  sim.After(5, 100, [&] {
    run_times.push_back(sim.Now());
    sim.ChargeCpu(50000);  // busy until 50100
  });
  sim.After(Simulation::kNoOwner, 200, [&] {
    sim.RemoveNode(5);  // crash: discard the in-progress incarnation
    sim.AddNode(5, &node);
  });
  sim.After(5, 300, [&] { run_times.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(run_times.size(), 2u);
  EXPECT_EQ(run_times[0], 100);
  EXPECT_EQ(run_times[1], 300);  // not deferred to 50100
}

// --- Idle lane (RunWhenIdle) -------------------------------------------------

TEST(IdleLane, JobOnIdleNodeFinishesAfterItsCpu) {
  Simulation sim(1);
  sim.After(Simulation::kNoOwner, 500, [] {});
  sim.RunUntilIdle();
  SimTime finished = -1;
  sim.RunWhenIdle(3, 700, [&] { finished = sim.Now(); });
  EXPECT_EQ(sim.idle_jobs(3), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(finished, 500 + 700);
  EXPECT_EQ(sim.idle_jobs(3), 0u);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_cpu_us", 3), 700u);
}

TEST(IdleLane, ForegroundCpuDelaysCompletionByExactlyItsLength) {
  Simulation sim(1);
  SimTime finished = -1;
  sim.RunWhenIdle(3, 1000, [&] { finished = sim.Now(); });
  // Two foreground handlers overlap the job; a third node's work and a
  // zero-CPU handler on node 3 do not.
  sim.After(3, 200, [&] { sim.ChargeCpu(150); });
  sim.After(3, 600, [&] { sim.ChargeCpu(40); });
  sim.After(3, 700, [] {});
  sim.After(4, 300, [&] { sim.ChargeCpu(5000); });
  sim.RunUntilIdle();
  EXPECT_EQ(finished, 1000 + 150 + 40);
}

TEST(IdleLane, JobQueuedInAHandlerStartsAfterThatHandlersCpu) {
  Simulation sim(1);
  SimTime finished = -1;
  sim.After(3, 100, [&] {
    sim.ChargeCpu(50);
    sim.RunWhenIdle(3, 300, [&] { finished = sim.Now(); });
    sim.ChargeCpu(25);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(finished, 100 + 50 + 25 + 300);
}

TEST(IdleLane, ForegroundTimesIdenticalWithAndWithoutAPendingJob) {
  auto run = [](bool with_job) {
    Simulation sim(7);
    RecordingNode nodes[2];
    sim.AddNode(0, &nodes[0]);
    sim.AddNode(1, &nodes[1]);
    std::vector<SimTime> times;
    if (with_job) {
      sim.RunWhenIdle(1, 2500, [] {});
    }
    for (int i = 0; i < 20; ++i) {
      sim.After(i % 2, i * 90, [&sim, &times, i] {
        times.push_back(sim.Now());
        sim.ChargeCpu(60 * (i % 4));
        sim.network().Send(i % 2, (i + 1) % 2, ToBytes("ping"));
      });
    }
    sim.RunUntilIdle();
    times.push_back(static_cast<SimTime>(nodes[0].messages.size()));
    times.push_back(static_cast<SimTime>(nodes[1].messages.size()));
    return times;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(IdleLane, JobsRunFifo) {
  Simulation sim(1);
  std::vector<std::pair<int, SimTime>> done;
  sim.RunWhenIdle(2, 400, [&] { done.emplace_back(1, sim.Now()); });
  sim.RunWhenIdle(2, 100, [&] { done.emplace_back(2, sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], std::make_pair(1, SimTime{400}));
  EXPECT_EQ(done[1], std::make_pair(2, SimTime{500}));
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_cpu_us", 2), 500u);
}

TEST(IdleLane, RemoveNodeDropsPendingJobs) {
  Simulation sim(1);
  RecordingNode node;
  sim.AddNode(5, &node);
  int ran = 0;
  sim.RunWhenIdle(5, 400, [&] { ++ran; });
  sim.RunWhenIdle(5, 400, [&] { ++ran; });
  sim.After(Simulation::kNoOwner, 100, [&] {
    sim.RemoveNode(5);
    sim.AddNode(5, &node);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.idle_jobs(5), 0u);
  // The re-added node's lane starts empty and runs new jobs normally.
  SimTime finished = -1;
  sim.RunWhenIdle(5, 50, [&] { finished = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(finished, 100 + 50);
}

TEST(IdleLane, DropIdleJobsClearsOnlyThatNode) {
  Simulation sim(1);
  int dropped_ran = 0;
  SimTime other_finished = -1;
  sim.RunWhenIdle(5, 400, [&] { ++dropped_ran; });
  sim.RunWhenIdle(6, 400, [&] { other_finished = sim.Now(); });
  sim.After(Simulation::kNoOwner, 100, [&] { sim.DropIdleJobs(5); });
  sim.RunUntilIdle();
  EXPECT_EQ(dropped_ran, 0);
  EXPECT_EQ(sim.idle_jobs(5), 0u);
  EXPECT_EQ(other_finished, 400);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_cpu_us", 5), 0u);
}

// --- Idle lane: ForceIdleCpu ------------------------------------------------

TEST(IdleLane, ForcedCpuLengthensTheHandlerAndShortensTheJob) {
  Simulation sim(1);
  SimTime finished = -1;
  SimTime deferred_ran = -1;
  SimTime left_before = -1;
  SimTime left_after = -1;
  SimTime moved = -1;
  sim.RunWhenIdle(3, 1000, [&] { finished = sim.Now(); });
  sim.After(3, 200, [&] {
    sim.ChargeCpu(100);
    left_before = sim.IdleCpuLeft(3);
    moved = sim.ForceIdleCpu(3, 300);
    left_after = sim.IdleCpuLeft(3);
    EXPECT_EQ(sim.CurrentHandlerFinishTime(), 200 + 100 + 300);
  });
  // A foreground event of the same node waits for the longer handler.
  sim.After(3, 250, [&] { deferred_ran = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(moved, 300);
  EXPECT_EQ(left_before, 1000 - 200);
  EXPECT_EQ(left_after, 1000 - 200 - 300);
  EXPECT_EQ(deferred_ran, 600);
  // 200 µs idle, 300 forced, the last 500 after the handler: the job ends
  // where it would have ended unforced (1000 + the 100 µs charge).
  EXPECT_EQ(finished, 1100);
}

TEST(IdleLane, ForcingMoreThanRemainsFinishesTheJobAtTheHandlersEnd) {
  Simulation sim(1);
  std::vector<SimTime> finished;
  SimTime second = -1;
  sim.RunWhenIdle(3, 500, [&] { finished.push_back(sim.Now()); });
  sim.After(3, 100, [&] {
    sim.ChargeCpu(50);
    EXPECT_EQ(sim.ForceIdleCpu(3, 10000), 400);
    EXPECT_EQ(sim.IdleCpuLeft(3), 0);
    second = sim.ForceIdleCpu(3, 10000);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(second, 0);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0], 100 + 50 + 400);
  EXPECT_EQ(sim.idle_jobs(3), 0u);
}

TEST(IdleLane, ForceWithoutAJobIsANoOp) {
  Simulation sim(1);
  SimTime moved = -1;
  SimTime ran = -1;
  sim.After(3, 100, [&] {
    sim.ChargeCpu(40);
    moved = sim.ForceIdleCpu(3, 500);
    EXPECT_EQ(sim.CurrentHandlerFinishTime(), 140);
  });
  sim.After(3, 120, [&] { ran = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(ran, 140);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_forced_us", 3), 0u);
  // Outside any handler nothing moves either.
  sim.RunWhenIdle(3, 100, [] {});
  EXPECT_EQ(sim.ForceIdleCpu(3, 50), 0);
  EXPECT_EQ(sim.IdleCpuLeft(3), 100);
}

TEST(IdleLane, ForceTouchesOnlyTheHandlersNode) {
  Simulation sim(1);
  SimTime finished3 = -1;
  SimTime finished4 = -1;
  sim.RunWhenIdle(3, 1000, [&] { finished3 = sim.Now(); });
  sim.RunWhenIdle(4, 1000, [&] { finished4 = sim.Now(); });
  SimTime moved_other = -1;
  sim.After(3, 200, [&] {
    moved_other = sim.ForceIdleCpu(4, 300);
    EXPECT_EQ(sim.ForceIdleCpu(3, 300), 300);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(moved_other, 0);
  EXPECT_EQ(finished3, 1000);
  EXPECT_EQ(finished4, 1000);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_forced_us", 4), 0u);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_cpu_us", 4), 1000u);
}

TEST(IdleLane, ForcedCpuHasItsOwnCounter) {
  Simulation sim(1);
  sim.RunWhenIdle(3, 1000, [] {});
  sim.RunWhenIdle(3, 200, [] {});
  sim.After(3, 100, [&] { sim.ForceIdleCpu(3, 300); });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_forced_us", 3), 300u);
  EXPECT_EQ(sim.metrics().Get("sim.idle_lane_cpu_us", 3), 1000u - 300u + 200u);
}

TEST(Simulation, SchedulerTraceMatchesPin) {
  // Event order on a workload that exercises every scheduler path: sends,
  // multicasts, drops, CPU serialization (deferrals), timers and
  // cancellations. The pin was recorded when the pooled kernel and the
  // std::priority_queue kernel it replaced still agreed on it (commit
  // fb72bea); a kernel change that moves it changed observable order. The
  // full-size witness is tests/kernel_witness_test.cc.
  Simulation sim(42);
  sim.trace().Enable();
  RecordingNode nodes[4];
  for (int i = 0; i < 4; ++i) {
    sim.AddNode(i, &nodes[i]);
  }
  sim.network().SetDropProbability(0.2);
  std::vector<TimerId> timers;
  for (int i = 0; i < 50; ++i) {
    sim.After(i % 4, i * 7, [&sim, i] {
      sim.ChargeCpu(100 * (i % 3));
      sim.network().Send(i % 4, (i + 1) % 4, ToBytes("ping"));
      if (i % 5 == 0) {
        sim.network().Multicast(i % 4, 0, 4, ToBytes("all"), i % 4);
      }
    });
    timers.push_back(sim.After(Simulation::kNoOwner, i * 11 + 1000, [] {}));
  }
  for (size_t i = 0; i < timers.size(); i += 2) {
    sim.Cancel(timers[i]);
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.trace().digest().Hex(), "9f6f920e8ba8");
  EXPECT_EQ(sim.events_processed(), 142u);
}

TEST(Simulation, PeakQueueDepthTracksHighWaterMark) {
  Simulation sim(1);
  EXPECT_EQ(sim.peak_queue_depth(), 0u);
  for (int i = 0; i < 32; ++i) {
    sim.After(Simulation::kNoOwner, 100 + i, [] {});
  }
  EXPECT_EQ(sim.peak_queue_depth(), 32u);
  EXPECT_EQ(sim.queued_events(), 32u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.peak_queue_depth(), 32u);  // high-water mark persists
  EXPECT_EQ(sim.queued_events(), 0u);
}

// The buffer pool is process-global and guarded by a lock, so any thread
// may acquire or release a pooled buffer. The freelist must tolerate
// concurrent Acquire/Release without corruption or losing its size bound.
TEST(BufferPool, SurvivesConcurrentAcquireRelease) {
  BufferPool::Clear();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        Bytes buf = BufferPool::Acquire();
        buf.assign(static_cast<size_t>(16 + (i % 64)),
                   static_cast<uint8_t>(t));
        if (i % 3 == 0) {
          // Exercise the delivered Payload's recycling path too.
          auto shared = std::make_shared<const Payload>(std::move(buf));
          ASSERT_EQ(shared->bytes[0], static_cast<uint8_t>(t));
        } else {
          ASSERT_EQ(buf[0], static_cast<uint8_t>(t));
          BufferPool::Release(std::move(buf));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(BufferPool::Size(), BufferPool::kMaxPooled);
  BufferPool::Clear();
}

// --- Per-link jitter + topology presets -------------------------------------

// Records (node, arrival time) pairs; shared by the lever-composition tests.
class TimestampNode : public SimNode {
 public:
  TimestampNode(Simulation* sim, NodeId id,
                std::vector<std::pair<NodeId, SimTime>>* arrivals)
      : sim_(sim), id_(id), arrivals_(arrivals) {}
  void OnMessage(NodeId, const Bytes&) override {
    arrivals_->emplace_back(id_, sim_->Now());
  }

 private:
  Simulation* sim_;
  NodeId id_;
  std::vector<std::pair<NodeId, SimTime>>* arrivals_;
};

TEST(Network, AddedDelaysComposeOnOneLink) {
  // Delays added to one directed link sum, and taking one back leaves the
  // others in place: how a topology's one-way delays and overlapping delay
  // faults share a link.
  Simulation sim(1);
  std::vector<std::pair<NodeId, SimTime>> arrivals;
  TimestampNode a(&sim, 1, &arrivals);
  TimestampNode b(&sim, 2, &arrivals);
  TimestampNode c(&sim, 3, &arrivals);
  sim.AddNode(1, &a);
  sim.AddNode(2, &b);
  sim.AddNode(3, &c);
  Network& net = sim.network();
  net.AddDelay(1, 2, 5000);  // a symmetric fault, both directions
  net.AddDelay(2, 1, 5000);
  net.AddDelay(1, 2, 3000);  // only 1 -> 2
  net.AddDelay(2, 1, 1000);  // only 2 -> 1
  EXPECT_EQ(net.Delay(1, 2), 8000);
  EXPECT_EQ(net.Delay(2, 1), 6000);
  EXPECT_EQ(net.Delay(1, 3), 0);
  sim.After(1, 0, [&] {
    net.Send(1, 2, ToBytes("fwd"));
    net.Send(1, 3, ToBytes("ref"));
  });
  sim.After(2, 0, [&] { net.Send(2, 1, ToBytes("rev")); });
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 3u);
  SimTime to_b = 0, to_a = 0, baseline = 0;
  for (const auto& [node, at] : arrivals) {
    if (node == 2) to_b = at;
    if (node == 1) to_a = at;
    if (node == 3) baseline = at;
  }
  EXPECT_EQ(to_b - baseline, 5000 + 3000);
  EXPECT_EQ(to_a - baseline, 5000 + 1000);
  // Healing the symmetric fault takes back exactly its share.
  net.AddDelay(1, 2, -5000);
  net.AddDelay(2, 1, -5000);
  EXPECT_EQ(net.Delay(1, 2), 3000);
  EXPECT_EQ(net.Delay(2, 1), 1000);
}

TEST(Network, LinkJitterDeterministicPerSeedAndCapped) {
  // Heavy-tailed per-link jitter draws from the simulation RNG: same seed =>
  // identical arrival sequences across independent runs; every draw respects
  // the cap.
  auto run = [](uint64_t seed, JitterSpec spec) {
    Simulation sim(seed);
    std::vector<std::pair<NodeId, SimTime>> arrivals;
    TimestampNode b(&sim, 2, &arrivals);
    sim.AddNode(2, &b);
    sim.network().SetLinkJitter(1, 2, spec);
    for (int i = 0; i < 64; ++i) {
      sim.After(1, i * 100000, [&sim] {
        sim.network().Send(1, 2, ToBytes("m"));
      });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> times;
    for (const auto& [node, at] : arrivals) {
      times.push_back(at);
    }
    return times;
  };
  for (JitterSpec spec : {JitterSpec::Pareto(200.0, 1.3, 20000),
                          JitterSpec::LogNormal(3.9, 0.6, 5000),
                          JitterSpec::Uniform(700, 0)}) {
    auto first = run(11, spec);
    auto second = run(11, spec);
    ASSERT_EQ(first.size(), 64u);
    EXPECT_EQ(first, second);  // bit-for-bit reproducible per seed
    auto other = run(12, spec);
    if (spec.kind != JitterSpec::Kind::kNone) {
      EXPECT_NE(first, other);  // the draws actually depend on the seed
    }
    const SimTime base = Simulation(1).cost().MessageLatency(1);
    const SimTime cap = spec.cap_us > 0 ? spec.cap_us
                                        : static_cast<SimTime>(spec.a);
    for (size_t i = 0; i < first.size(); ++i) {
      const SimTime jitter = first[i] - static_cast<SimTime>(i) * 100000 - base;
      EXPECT_GE(jitter, 0) << i;
      EXPECT_LE(jitter, cap) << i;
    }
  }
}

TEST(Network, UnusedLinkJitterLeavesOtherTrafficUntouched) {
  // Arming jitter on an idle link must not consume RNG draws for traffic on
  // other links: the same-seed stream stays unchanged (the no-faults
  // fast-path contract every lever honors).
  auto run = [](bool arm_idle_link) {
    Simulation sim(5);
    std::vector<std::pair<NodeId, SimTime>> arrivals;
    TimestampNode b(&sim, 2, &arrivals);
    sim.AddNode(2, &b);
    if (arm_idle_link) {
      sim.network().SetLinkJitter(3, 4, JitterSpec::Pareto(500.0, 1.5, 30000));
    }
    // Interleave sends with global-jitter draws so any extra RNG pull on the
    // armed-but-idle link would desynchronize the stream.
    sim.network().SetJitter(400);
    for (int i = 0; i < 32; ++i) {
      sim.After(1, i * 50000, [&sim] {
        sim.network().Send(1, 2, ToBytes("x"));
      });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> times;
    for (const auto& [node, at] : arrivals) {
      times.push_back(at);
    }
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Network, LinkJitterReplacesTheDefault) {
  // SetJitter is the default model: a link with a model of its own draws
  // from that model only, so arming the default on top of a topology's
  // jitter leaves that link's arrivals unchanged.
  auto run = [](bool with_default) {
    Simulation sim(5);
    std::vector<std::pair<NodeId, SimTime>> arrivals;
    TimestampNode b(&sim, 2, &arrivals);
    sim.AddNode(2, &b);
    sim.network().SetLinkJitter(1, 2, JitterSpec::Pareto(500.0, 1.5, 30000));
    if (with_default) {
      sim.network().SetJitter(400);
    }
    for (int i = 0; i < 32; ++i) {
      sim.After(1, i * 50000, [&sim] {
        sim.network().Send(1, 2, ToBytes("x"));
      });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> times;
    for (const auto& [node, at] : arrivals) {
      times.push_back(at);
    }
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Topology, PresetsResolveWithExpectedShape) {
  Topology topo;
  ASSERT_TRUE(TopologyFromName("lan", &topo));
  EXPECT_EQ(topo.regions, 1);
  EXPECT_EQ(topo.MaxRttUs(), 0);
  ASSERT_TRUE(TopologyFromName("3-region", &topo));
  EXPECT_EQ(topo.regions, 3);
  EXPECT_EQ(topo.MaxRttUs(), 164000);  // us<->ap: 84 + 80 ms
  EXPECT_EQ(topo.OneWayUs(0, 1), 48000);
  EXPECT_EQ(topo.OneWayUs(1, 0), 52000);
  EXPECT_EQ(topo.OneWayUs(0, 3), 0);  // nodes 0 and 3 share region 0
  ASSERT_TRUE(TopologyFromName("5-region-wan", &topo));
  EXPECT_EQ(topo.regions, 5);
  EXPECT_EQ(topo.MaxRttUs(), 325000);
  EXPECT_FALSE(TopologyFromName("2-dc", &topo));
  EXPECT_EQ(KnownTopologyNames().size(), 3u);
}

TEST(Topology, ApplyProgramsAsymmetricMatrixOntoLevers) {
  // A jitter-free topology applies exactly: one-way latency i->j is the
  // directed link's delay, same-region traffic is untouched.
  Topology topo;
  topo.regions = 2;
  topo.latency_us = {{0, 10000}, {4000, 0}};
  Simulation sim(1);
  std::vector<std::pair<NodeId, SimTime>> arrivals;
  TimestampNode nodes0(&sim, 0, &arrivals);
  TimestampNode nodes1(&sim, 1, &arrivals);
  TimestampNode nodes2(&sim, 2, &arrivals);
  sim.AddNode(0, &nodes0);
  sim.AddNode(1, &nodes1);
  sim.AddNode(2, &nodes2);
  ApplyTopology(sim.network(), topo, 3);  // regions: 0 -> 0, 1 -> 1, 2 -> 0
  EXPECT_EQ(sim.network().Delay(0, 1), 10000);
  EXPECT_EQ(sim.network().Delay(1, 0), 4000);
  EXPECT_EQ(sim.network().Delay(0, 2), 0);
  const SimTime base = sim.cost().MessageLatency(1);
  sim.After(0, 0, [&] { sim.network().Send(0, 1, ToBytes("a")); });
  sim.After(1, 0, [&] { sim.network().Send(1, 0, ToBytes("b")); });
  sim.After(0, 0, [&] { sim.network().Send(0, 2, ToBytes("c")); });
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 3u);
  for (const auto& [node, at] : arrivals) {
    if (node == 1) {
      EXPECT_EQ(at, base + 10000);  // cross-region, forward
    } else if (node == 0) {
      EXPECT_EQ(at, base + 4000);  // cross-region, reverse
    } else {
      EXPECT_EQ(at, base);  // same region: no delay
    }
  }
}

TEST(Topology, LanPresetArmsNothing) {
  // The lan preset must leave the network lever-free so traces stay
  // byte-identical to a run with no topology at all.
  auto run = [](bool apply_lan) {
    Simulation sim(9);
    std::vector<std::pair<NodeId, SimTime>> arrivals;
    TimestampNode b(&sim, 2, &arrivals);
    sim.AddNode(2, &b);
    if (apply_lan) {
      Topology topo;
      EXPECT_TRUE(TopologyFromName("lan", &topo));
      ApplyTopology(sim.network(), topo, 8);
    }
    for (int i = 0; i < 16; ++i) {
      sim.After(1, i * 1000, [&sim] {
        sim.network().Send(1, 2, ToBytes("y"));
      });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> times;
    for (const auto& [node, at] : arrivals) {
      times.push_back(at);
    }
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace bftbase
