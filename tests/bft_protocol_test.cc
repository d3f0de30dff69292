// End-to-end tests of the BFT protocol stack (client + replicas + BASE glue)
// over the KvAdapter reference service.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/util/log.h"
#include "tests/audit_helpers.h"

namespace bftbase {
namespace {

ServiceGroup::Params SmallParams(uint64_t seed = 7) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = seed;
  return params;
}

AuditedGroup MakeKvGroup(ServiceGroup::Params params, size_t slots = 64) {
  AuditedGroup group(new ServiceGroup(
      params, [slots](Simulation* sim, NodeId) {
        return std::make_unique<KvAdapter>(sim, slots);
      }));
  // Every protocol test runs under the invariant auditor; the AuditedGroup
  // deleter fails the test if any safety invariant was violated.
  group->EnableAudit();
  return group;
}

TEST(BftProtocol, SingleSetGet) {
  auto group = MakeKvGroup(SmallParams());
  auto set = group->Invoke(KvAdapter::EncodeSet(3, ToBytes("hello")));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(ToString(*set), "OK");

  auto get = group->Invoke(KvAdapter::EncodeGet(3));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "hello");
}

TEST(BftProtocol, AllReplicasExecute) {
  auto group = MakeKvGroup(SmallParams());
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("x"))).ok());
  group->sim().RunUntil(group->sim().Now() + kSecond);
  for (int i = 0; i < group->replica_count(); ++i) {
    EXPECT_EQ(group->replica(i).requests_executed(), 1u) << "replica " << i;
    EXPECT_EQ(ToString(group->adapter(i)->GetObj(0)), "x") << "replica " << i;
  }
}

TEST(BftProtocol, SequentialOperations) {
  auto group = MakeKvGroup(SmallParams());
  for (int i = 0; i < 20; ++i) {
    auto r = group->Invoke(
        KvAdapter::EncodeAppend(1, ToBytes(std::string(1, 'a' + i % 26))));
    ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(1));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "abcdefghijklmnopqrst");
}

TEST(BftProtocol, ConcurrentClientsAllComplete) {
  auto params = SmallParams();
  params.config.max_clients = 8;
  auto group = MakeKvGroup(params);

  int completed = 0;
  for (int c = 0; c < 8; ++c) {
    group->client(c).Invoke(
        KvAdapter::EncodeSet(static_cast<uint32_t>(c), ToBytes("v")),
        /*read_only=*/false, [&](Status status, Bytes) {
          ASSERT_TRUE(status.ok());
          ++completed;
        });
  }
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return completed == 8; },
                                        30 * kSecond));
  // Batching should have folded at least two of the concurrent requests
  // into one pre-prepare.
  EXPECT_LT(group->replica(0).batches_executed(), 8u);
}

TEST(BftProtocol, ReadOnlyOptimization) {
  auto group = MakeKvGroup(SmallParams());
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(9, ToBytes("ro"))).ok());

  uint64_t batches_before = group->replica(0).batches_executed();
  auto get = group->Invoke(KvAdapter::EncodeGet(9), /*read_only=*/true);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "ro");
  // A read-only request must not consume a sequence number.
  group->sim().RunUntil(group->sim().Now() + kSecond);
  EXPECT_EQ(group->replica(0).batches_executed(), batches_before);
}

TEST(BftProtocol, CheckpointsBecomeStable) {
  auto group = MakeKvGroup(SmallParams());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(2, ToBytes("v"))).ok());
  }
  group->sim().RunUntil(group->sim().Now() + kSecond);
  for (int i = 0; i < group->replica_count(); ++i) {
    EXPECT_GE(group->replica(i).stable_seq(), 8u) << "replica " << i;
  }
}

TEST(BftProtocol, SurvivesOneCrashedBackup) {
  auto group = MakeKvGroup(SmallParams());
  // Crash a backup (not the view-0 primary).
  group->sim().network().Isolate(2);
  for (int i = 0; i < 10; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("crash-ok")));
    ASSERT_TRUE(r.ok()) << "op " << i;
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(1));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "crash-ok");
}

TEST(BftProtocol, ViewChangeOnCrashedPrimary) {
  auto group = MakeKvGroup(SmallParams());
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("before"))).ok());

  group->sim().network().Isolate(0);  // crash the primary of view 0
  auto r = group->Invoke(KvAdapter::EncodeSet(0, ToBytes("after")),
                         /*read_only=*/false, 120 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The group moved to a new view with a different primary.
  EXPECT_GE(group->replica(1).view(), 1u);
  EXPECT_FALSE(group->replica(1).in_view_change());
  auto get = group->Invoke(KvAdapter::EncodeGet(0));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "after");
}

TEST(BftProtocol, ViewChangeOnMutePrimary) {
  auto group = MakeKvGroup(SmallParams(11));
  group->replica(0).SetMute(true);
  auto r = group->Invoke(KvAdapter::EncodeSet(5, ToBytes("mute")),
                         /*read_only=*/false, 120 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(group->replica(1).view(), 1u);
}

TEST(BftProtocol, LaggingReplicaCatchesUpViaStateTransfer) {
  auto group = MakeKvGroup(SmallParams());
  // Partition replica 3 away, run past a checkpoint, then heal.
  group->sim().network().Isolate(3);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeSet(static_cast<uint32_t>(i % 4),
                                           ToBytes("catchup")))
            .ok());
  }
  group->sim().network().Heal(3);
  // Run until the next checkpoints let replica 3 observe it is behind.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeSet(static_cast<uint32_t>(i % 4),
                                           ToBytes("more")))
            .ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(3).last_executed() >= 16; },
      group->sim().Now() + 120 * kSecond));
  EXPECT_EQ(ToString(group->adapter(3)->GetObj(0)), "more");
}

TEST(BftProtocol, ProactiveRecoveryRoundTrip) {
  auto group = MakeKvGroup(SmallParams());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(7, ToBytes("pr"))).ok());
  }
  group->replica(2).StartProactiveRecovery();
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).recoveries_completed() == 1; },
      group->sim().Now() + 300 * kSecond));
  EXPECT_FALSE(group->replica(2).recovering());
  // The rebuilt concrete state matches the group.
  EXPECT_EQ(ToString(group->adapter(2)->GetObj(7)), "pr");
  // Service remained available throughout.
  auto get = group->Invoke(KvAdapter::EncodeGet(7));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "pr");
}

TEST(BftProtocol, RecoveryRepairsCorruptConcreteState) {
  auto group = MakeKvGroup(SmallParams());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(4, ToBytes("good"))).ok());
  }
  // Corrupt replica 1's concrete state below the wrapper, then recover it.
  static_cast<KvAdapter*>(group->adapter(1))->CorruptSlot(4);
  group->replica(1).StartProactiveRecovery();
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(1).recoveries_completed() == 1; },
      group->sim().Now() + 300 * kSecond));
  EXPECT_EQ(ToString(group->adapter(1)->GetObj(4)), "good");
  // The corrupt object had to be fetched from the group; clean objects came
  // from the local saved copy.
  EXPECT_GE(group->service(1).state_transfer().leaves_fetched(), 1u);
}

TEST(BftProtocol, ByzantineRepliesAreOutvoted) {
  auto group = MakeKvGroup(SmallParams());
  // Deliberately NOT marked faulty for the auditor: reply corruption must
  // only affect the wire to the client, so replica 3's audited protocol
  // state (checkpoints, reply cache) has to stay in agreement throughout.
  group->replica(3).SetCorruptReplies(true);
  for (int i = 0; i < 5; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeSet(0, ToBytes("truth")));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ToString(*r), "OK");
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(0));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "truth");
}

TEST(BftProtocol, EquivocatingPrimaryIsReplaced) {
  auto group = MakeKvGroup(SmallParams(23));
  group->auditor()->MarkFaulty(0);  // the equivocator is Byzantine
  group->replica(0).SetEquivocate(true);
  auto r = group->Invoke(KvAdapter::EncodeSet(6, ToBytes("equiv")),
                         /*read_only=*/false, 240 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(group->replica(1).view(), 1u);
  auto get = group->Invoke(KvAdapter::EncodeGet(6));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "equiv");
}

TEST(BftProtocol, MessageLossIsTolerated) {
  auto params = SmallParams(31);
  auto group = MakeKvGroup(params);
  group->sim().network().SetDropProbability(0.05);
  for (int i = 0; i < 10; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("lossy")),
                           /*read_only=*/false, 240 * kSecond);
    ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
  }
}

TEST(BftProtocol, DuplicateRequestNotReExecuted) {
  auto group = MakeKvGroup(SmallParams());
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeAppend(2, ToBytes("x"))).ok());
  group->sim().RunUntil(group->sim().Now() + 5 * kSecond);
  uint64_t executed = 0;
  for (int i = 0; i < group->replica_count(); ++i) {
    executed += static_cast<KvAdapter*>(group->adapter(i))->executions();
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(2));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "x");  // appended exactly once despite retries
  (void)executed;
}

TEST(BftProtocol, StaggeredRecoveriesKeepServiceLive) {
  auto group = MakeKvGroup(SmallParams(43));
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("live"))).ok());
  group->EnableProactiveRecovery(10 * kMinute);
  // Run two full rotations while issuing requests.
  for (int i = 0; i < 20; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("tick")),
                           /*read_only=*/false, 300 * kSecond);
    ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
    group->sim().RunUntil(group->sim().Now() + kMinute);
  }
  uint64_t total_recoveries = 0;
  for (int i = 0; i < group->replica_count(); ++i) {
    total_recoveries += group->replica(i).recoveries_completed();
  }
  EXPECT_GE(total_recoveries, 4u);
}


TEST(BftProtocol, LargerGroupF2ToleratesTwoCrashes) {
  ServiceGroup::Params params;
  params.config.f = 2;  // n = 7
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = 53;
  ServiceGroup group(params, [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, 64);
  });
  group.EnableAudit();
  ASSERT_TRUE(group.Invoke(KvAdapter::EncodeSet(0, ToBytes("f2"))).ok());
  // Crash two backups: the remaining 5 = 2f+1 keep the service running.
  group.sim().network().Isolate(3);
  group.sim().network().Isolate(5);
  for (int i = 0; i < 6; ++i) {
    auto r = group.Invoke(KvAdapter::EncodeAppend(0, ToBytes("!")));
    ASSERT_TRUE(r.ok()) << "op " << i;
  }
  auto get = group.Invoke(KvAdapter::EncodeGet(0));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "f2!!!!!!");
  ExpectNoViolations(group);
}

TEST(BftProtocol, F2ViewChangeOnPrimaryCrash) {
  ServiceGroup::Params params;
  params.config.f = 2;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = 59;
  ServiceGroup group(params, [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, 64);
  });
  group.EnableAudit();
  ASSERT_TRUE(group.Invoke(KvAdapter::EncodeSet(1, ToBytes("a"))).ok());
  group.sim().network().Isolate(0);
  auto r = group.Invoke(KvAdapter::EncodeSet(1, ToBytes("b")),
                        /*read_only=*/false, 240 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(group.replica(1).view(), 1u);
  ExpectNoViolations(group);
}

TEST(BftProtocol, ReExecutionAfterViewChangeKeepsCheckpointsAligned) {
  // Regression test: a replica that re-executes reproposed requests after a
  // view change must produce the same checkpoint digests as replicas that
  // executed them in the original view (the reply cache must not embed the
  // view).
  auto group = MakeKvGroup(SmallParams(61));
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("pre"))).ok());
  // Crash a backup so it misses a few batches, then crash the primary to
  // force a view change, heal everyone and require checkpoints to stabilize
  // across ALL replicas (which needs identical digests).
  group->sim().network().Isolate(2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeAppend(0, ToBytes("x"))).ok());
  }
  group->sim().network().Isolate(0);
  group->sim().network().Heal(2);
  for (int i = 0; i < 6; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeAppend(0, ToBytes("y")),
                           /*read_only=*/false, 240 * kSecond);
    ASSERT_TRUE(r.ok()) << "op " << i;
  }
  group->sim().network().Heal(0);
  // Run until a checkpoint PAST the view change stabilizes at replica 2
  // (the re-executor): that only happens if its digests match the group.
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).stable_seq() >= 8; },
      group->sim().Now() + 300 * kSecond));
}

// --- Checkpoint timing ------------------------------------------------------

// Closed-loop Sets of `value_size` bytes from `clients` clients over a
// 4096-slot store; returns every request's latency in completion order.
std::vector<SimTime> RunClosedLoopSets(ServiceGroup& group, int clients,
                                       int per_client,
                                       size_t value_size = 1024) {
  std::vector<SimTime> latencies;
  std::vector<int> issued(clients, 0);
  std::vector<std::function<void()>> issue(clients);
  const Bytes value(value_size, 0x5c);
  for (int c = 0; c < clients; ++c) {
    issue[c] = [&, c] {
      if (issued[c] >= per_client) {
        return;
      }
      const uint32_t slot = static_cast<uint32_t>(c * 251 + issued[c]) % 4096;
      ++issued[c];
      const SimTime sent = group.sim().Now();
      group.client(c).Invoke(KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false,
                             [&, c, sent](Status status, Bytes) {
                               EXPECT_TRUE(status.ok());
                               latencies.push_back(group.sim().Now() - sent);
                               issue[c]();
                             });
    };
  }
  for (int c = 0; c < clients; ++c) {
    issue[c]();
  }
  const size_t total = static_cast<size_t>(clients) * per_client;
  EXPECT_TRUE(group.sim().RunUntilTrue(
      [&] { return latencies.size() == total; }, 600 * kSecond));
  return latencies;
}

ServiceGroup::Params LanParams(int clients) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 128;
  params.config.log_window = 256;
  params.config.max_clients = clients;
  params.seed = 11;
  return params;
}

// Regression: every replica's cold FullResync at construction charged
// ~5.8 ms of digest CPU with no handler running, and the charge sat in the
// kernel until the first event, so every message sent before it (each
// client's first request) departed ~23 ms late.
TEST(CheckpointTiming, FirstRequestIsNotDelayedByGroupConstruction) {
  auto group = MakeKvGroup(LanParams(1), /*slots=*/4096);
  std::vector<SimTime> latencies = RunClosedLoopSets(*group, 1, 10);
  ASSERT_EQ(latencies.size(), 10u);
  EXPECT_LT(latencies[0], 2 * latencies[9])
      << "first " << latencies[0] << " us, tenth " << latencies[9] << " us";
}

// Checkpoint digests run in each replica's idle time, so the batch that
// completes a checkpoint interval is not a group-wide stall: with digests
// charged inside that batch's handler, the requests waiting on it took
// ~3x the median. A warm-up Set per client keeps first requests out of the
// measured run.
TEST(CheckpointTiming, CheckpointDigestsDoNotStallTheGroup) {
  constexpr int kClients = 16;
  auto group = MakeKvGroup(LanParams(kClients), /*slots=*/4096);
  RunClosedLoopSets(*group, kClients, 1);
  std::vector<SimTime> latencies = RunClosedLoopSets(*group, kClients, 70);
  ASSERT_EQ(latencies.size(), static_cast<size_t>(kClients) * 70);
  group->sim().RunUntil(group->sim().Now() + kSecond);
  for (int i = 0; i < group->replica_count(); ++i) {
    EXPECT_GE(group->replica(i).stable_seq(), 256u) << "replica " << i;
  }
  std::sort(latencies.begin(), latencies.end());
  const SimTime median = latencies[latencies.size() / 2];
  EXPECT_LT(latencies.back(), 2 * median)
      << "max " << latencies.back() << " us, median " << median << " us";
}

// Counts CHECKPOINT votes that leave after their replica executed batch
// S + CheckpointVoteDeadline() + 1, forwarding every callback to the
// group's invariant auditor (a replica has one observer).
class VoteDeadlineObserver : public ProtocolObserver {
 public:
  explicit VoteDeadlineObserver(ServiceGroup& group)
      : group_(group), inner_(group.auditor()) {
    for (int i = 0; i < group.replica_count(); ++i) {
      group.replica(i).SetObserver(this);
    }
  }
  ~VoteDeadlineObserver() override {
    for (int i = 0; i < group_.replica_count(); ++i) {
      group_.replica(i).SetObserver(inner_);
    }
  }
  int votes() const { return votes_; }
  int late() const { return late_; }

  void OnCheckpointTaken(NodeId replica, SeqNum seq, const Digest& digest,
                         const Digest& reply_cache_digest) override {
    ++votes_;
    if (group_.replica(replica).last_executed() >
        seq + group_.config().CheckpointVoteDeadline()) {
      ++late_;
    }
    inner_->OnCheckpointTaken(replica, seq, digest, reply_cache_digest);
  }
  void OnPrePrepareAccepted(NodeId replica, ViewNum view, SeqNum seq,
                            const Digest& digest) override {
    inner_->OnPrePrepareAccepted(replica, view, seq, digest);
  }
  void OnPrepared(NodeId replica, ViewNum view, SeqNum seq,
                  const Digest& digest) override {
    inner_->OnPrepared(replica, view, seq, digest);
  }
  void OnCommitted(NodeId replica, ViewNum view, SeqNum seq,
                   const Digest& digest) override {
    inner_->OnCommitted(replica, view, seq, digest);
  }
  void OnExecuted(NodeId replica, SeqNum seq, const Digest& digest) override {
    inner_->OnExecuted(replica, seq, digest);
  }
  void OnCheckpointStable(NodeId replica, SeqNum seq,
                          const Digest& digest) override {
    inner_->OnCheckpointStable(replica, seq, digest);
  }
  void OnViewChangeStart(NodeId replica, ViewNum view) override {
    inner_->OnViewChangeStart(replica, view);
  }
  void OnNewView(NodeId replica, ViewNum view) override {
    inner_->OnNewView(replica, view);
  }
  void OnRecoveryStart(NodeId replica) override {
    inner_->OnRecoveryStart(replica);
  }
  void OnRecoveryDone(NodeId replica, SeqNum seq) override {
    inner_->OnRecoveryDone(replica, seq);
  }
  void OnStateTransferStart(NodeId replica, SeqNum seq) override {
    inner_->OnStateTransferStart(replica, seq);
  }
  void OnStateTransferDone(NodeId replica, SeqNum seq) override {
    inner_->OnStateTransferDone(replica, seq);
  }

 private:
  ServiceGroup& group_;
  ProtocolObserver* inner_;
  int votes_ = 0;
  int late_ = 0;
};

// Each replica paces a checkpoint's digest work so that its CHECKPOINT vote
// for S leaves before it executes S + D + 1 (D = CheckpointVoteDeadline(),
// 126 here), the point after which the primary's pipeline can reach the high
// watermark without checkpoint S stable. Left to idle time alone, a vote on
// these CPU-bound replicas waited about one checkpoint interval, and the
// primary stalled at the watermark with every client's request waiting
// (5 stalls, 4.06 ms in total; max latency 2.29x the median). 1.5 KiB Sets:
// with 1 KiB ones the lane keeps up here.
TEST(CheckpointTiming, VotesBeatTheHighWatermark) {
  constexpr int kClients = 16;
  constexpr size_t kValueSize = 1536;
  auto group = MakeKvGroup(LanParams(kClients), /*slots=*/4096);
  ASSERT_EQ(group->config().CheckpointVoteDeadline(), 126u);
  VoteDeadlineObserver votes(*group);
  RunClosedLoopSets(*group, kClients, 1, kValueSize);
  std::vector<SimTime> latencies =
      RunClosedLoopSets(*group, kClients, 200, kValueSize);
  ASSERT_EQ(latencies.size(), static_cast<size_t>(kClients) * 200);
  group->sim().RunUntil(group->sim().Now() + kSecond);

  EXPECT_GE(votes.votes(), 16);
  EXPECT_EQ(votes.late(), 0) << "of " << votes.votes() << " votes";
  const MetricsRegistry::HistogramSnapshot stalls =
      group->sim().metrics().Histogram("replica.watermark_stall_us");
  EXPECT_LT(stalls.sum, 500) << stalls.count << " stalls";
  std::sort(latencies.begin(), latencies.end());
  const SimTime median = latencies[latencies.size() / 2];
  EXPECT_LT(latencies.back(), 2 * median)
      << "max " << latencies.back() << " us, median " << median << " us";
}

// The lane's telemetry: CPU each replica ran on it, and the take-to-vote lag
// of every checkpoint, which covers at least that CPU.
TEST(CheckpointTiming, LaneCpuAndVoteLagAreRecorded) {
  auto group = MakeKvGroup(SmallParams());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("v"))).ok());
  }
  group->sim().RunUntil(group->sim().Now() + kSecond);
  const MetricsRegistry& metrics = group->sim().metrics();
  uint64_t lane_cpu = 0;
  for (int i = 0; i < group->replica_count(); ++i) {
    const uint64_t replica_cpu = metrics.Get("sim.idle_lane_cpu_us", i);
    EXPECT_GT(replica_cpu, 0u) << "replica " << i;
    lane_cpu += replica_cpu;
  }
  const MetricsRegistry::HistogramSnapshot lag =
      metrics.Histogram("replica.checkpoint_vote_lag_us");
  // Two checkpoints (seq 8 and 16) at each of the four replicas.
  EXPECT_EQ(lag.count, 8u);
  EXPECT_GE(static_cast<uint64_t>(lag.sum), lane_cpu);
  EXPECT_GT(lag.min, 0);
}

}  // namespace
}  // namespace bftbase
