// Unit tests for the hierarchical state-transfer protocol, wired directly
// between CheckpointManagers (no BFT replicas) so individual mechanisms are
// observable: selective fetching, discovery quorums, Byzantine servers,
// local-source short-circuiting, retries. The last tests run a replica group
// and pin how a replica that fetches state rejoins agreement.
#include <gtest/gtest.h>

#include "src/base/kv_adapter.h"
#include "src/base/replica_service.h"
#include "src/base/service_group.h"
#include "src/base/state_transfer.h"
#include "src/bft/message.h"
#include "src/sim/network.h"
#include "tests/checkpoint_helpers.h"
#include "src/sim/storage.h"
#include "tests/audit_helpers.h"

namespace bftbase {
namespace {

constexpr size_t kSlots = 256;

// A small harness: n "nodes", each with its own adapter/manager/transfer,
// exchanging state messages through the simulated network.
class StateTransferHarness {
 public:
  explicit StateTransferHarness(int n, uint64_t seed = 1) : sim_(seed) {
    config_.f = 1;
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<Node>(&sim_, config_, i));
    }
    for (auto& node : nodes_) {
      node->Wire();
    }
  }

  struct Node : public SimNode {
    Node(Simulation* sim, const Config& config, NodeId id)
        : sim_ptr(sim),
          id(id),
          adapter(sim, kSlots),
          cm(sim, &adapter, false),
          st(sim, config, id, &cm) {
      adapter.SetModifyFn([this](size_t i) { cm.OnModify(i); });
      sim_ptr->AddNode(id, this);
    }
    void Wire() {
      st.SetSender([this](NodeId to, const Bytes& payload) {
        sim_ptr->network().Send(id, to, payload);
      });
      st.SetDone([this](SeqNum seq, const Digest& root) {
        done = true;
        done_seq = seq;
        done_root = root;
      });
    }
    void OnMessage(NodeId from, const Bytes& payload) override {
      st.HandleMessage(from, payload);
    }
    void Set(uint32_t slot, const std::string& value) {
      adapter.Execute(KvAdapter::EncodeSet(slot, ToBytes(value)), 100,
                      Bytes(), false);
    }

    Simulation* sim_ptr;
    NodeId id;
    KvAdapter adapter;
    CheckpointManager cm;
    StateTransfer st;
    bool done = false;
    SeqNum done_seq = 0;
    Digest done_root;
  };

  Node& node(int i) { return *nodes_[i]; }
  Simulation& sim() { return sim_; }

  // Applies the same writes to nodes [first, last) and checkpoints them.
  void SetOnAll(int first, int last, uint32_t slot, const std::string& v) {
    for (int i = first; i < last; ++i) {
      nodes_[i]->Set(slot, v);
    }
  }
  Digest CheckpointAll(int first, int last, SeqNum seq) {
    Digest root;
    for (int i = first; i < last; ++i) {
      root = nodes_[i]->cm.TakeCheckpoint(seq, ToBytes("ps")).root;
    }
    return root;
  }

  Config config_;
  Simulation sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST(StateTransfer, FetchesOnlyDifferingLeaves) {
  StateTransferHarness h(4);
  // Nodes 0..2 advance; node 3 stays behind on 5 slots.
  for (uint32_t slot : {3u, 9u, 40u, 41u, 200u}) {
    h.SetOnAll(0, 3, slot, "new-" + std::to_string(slot));
  }
  Digest root = h.CheckpointAll(0, 3, 10);

  h.node(3).st.Start(10, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   10 * kSecond));
  EXPECT_EQ(h.node(3).done_seq, 10u);
  EXPECT_EQ(h.node(3).st.leaves_fetched(), 6u);  // 5 slots + protocol leaf
  EXPECT_EQ(ToString(h.node(3).adapter.GetObj(40)), "new-40");
  EXPECT_EQ(h.node(3).cm.latest_root(), root);
}

TEST(StateTransfer, DiscoveryRequiresFPlusOneAgreement) {
  StateTransferHarness h(4);
  h.SetOnAll(0, 3, 7, "agreed");
  Digest root = h.CheckpointAll(0, 3, 20);
  (void)root;
  // Node 3 discovers the latest checkpoint without being told the target.
  h.node(3).st.Start(0, Digest());
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   10 * kSecond));
  EXPECT_EQ(h.node(3).done_seq, 20u);
  EXPECT_EQ(ToString(h.node(3).adapter.GetObj(7)), "agreed");
}

TEST(StateTransfer, ByzantineDataIsRejectedAndRefetched) {
  StateTransferHarness h(4);
  h.SetOnAll(0, 3, 5, "truth");
  Digest root = h.CheckpointAll(0, 3, 30);

  // A network adversary corrupts DATA payloads from node 0 only.
  h.sim().network().SetInterceptor(
      [](NodeId from, NodeId /*to*/, Bytes& payload) {
        if (from == 0 && !payload.empty() && payload[0] == 6 /* kData */ &&
            payload.size() > 30) {
          payload[payload.size() - 5] ^= 0xff;
        }
        return true;
      });
  h.node(3).st.Start(30, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   30 * kSecond));
  // Digest verification rejected the tampered values; retries fetched from
  // honest nodes and the final state is correct.
  EXPECT_EQ(ToString(h.node(3).adapter.GetObj(5)), "truth");
  EXPECT_EQ(h.node(3).cm.latest_root(), root);
}

// Checkpoint/state-transfer lying (the adversary engine's kCheckpointLie
// strategy flips this switch on the victim): every server poisons the values
// it serves, so per-leaf digest verification must reject every DATA payload
// and the fetch must stall rather than install garbage. Once the sources
// heal, the pending retries complete and the state is correct.
TEST(StateTransfer, PoisonedServingIsRejectedUntilSourcesHeal) {
  StateTransferHarness h(4);
  h.SetOnAll(0, 3, 5, "truth");
  Digest root = h.CheckpointAll(0, 3, 30);

  for (int i = 0; i < 3; ++i) {
    h.node(i).st.SetPoisonServing(true);
  }
  h.node(3).st.Start(30, root);
  h.sim().RunUntil(h.sim().Now() + 5 * kSecond);
  EXPECT_FALSE(h.node(3).done) << "installed state served only by liars";
  uint64_t poisoned = 0;
  for (int i = 0; i < 3; ++i) {
    poisoned += h.node(i).st.poisoned_values_served();
  }
  EXPECT_GT(poisoned, 0u) << "no poisoned value was ever served";
  EXPECT_EQ(h.node(3).st.leaves_fetched(), 0u)
      << "a poisoned value survived digest verification";

  for (int i = 0; i < 3; ++i) {
    h.node(i).st.SetPoisonServing(false);
  }
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   30 * kSecond));
  EXPECT_EQ(ToString(h.node(3).adapter.GetObj(5)), "truth");
  EXPECT_EQ(h.node(3).cm.latest_root(), root);
}

TEST(StateTransfer, LocalSourceAvoidsNetworkFetches) {
  StateTransferHarness h(4);
  h.SetOnAll(0, 3, 11, "have-locally");
  Digest root = h.CheckpointAll(0, 3, 40);

  // Node 3 is clean but holds a saved copy of the right value on "disk".
  Bytes value = h.node(0).adapter.GetObj(11);
  h.node(3).st.SetLocalSource(
      [&](size_t leaf, const Digest& expected) -> std::optional<Bytes> {
        if (leaf == CheckpointManager::LeafForObject(11) &&
            Digest::Of(value) == expected) {
          return value;
        }
        return std::nullopt;
      });
  h.node(3).st.Start(40, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   10 * kSecond));
  EXPECT_EQ(h.node(3).st.leaves_from_local_source(), 1u);
  EXPECT_EQ(h.node(3).st.leaves_fetched(), 1u);  // only the protocol leaf
  EXPECT_EQ(ToString(h.node(3).adapter.GetObj(11)), "have-locally");
}

TEST(StateTransfer, SurvivesMessageLoss) {
  StateTransferHarness h(4, 99);
  for (uint32_t slot = 0; slot < 64; ++slot) {
    h.SetOnAll(0, 3, slot, "v" + std::to_string(slot));
  }
  Digest root = h.CheckpointAll(0, 3, 50);
  h.sim().network().SetDropProbability(0.15);
  h.node(3).st.Start(50, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   120 * kSecond));
  EXPECT_EQ(h.node(3).cm.latest_root(), root);
}

TEST(StateTransfer, ServingCanBeDisabled) {
  StateTransferHarness h(4);
  h.SetOnAll(0, 3, 2, "x");
  Digest root = h.CheckpointAll(0, 3, 60);
  // Only node 1 serves; 0 and 2 are mid-rebuild.
  h.node(0).st.SetServing(false);
  h.node(2).st.SetServing(false);
  h.node(3).st.Start(60, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return h.node(3).done; },
                                   60 * kSecond));
  EXPECT_EQ(h.node(3).cm.latest_root(), root);
}

TEST(StateTransfer, FetchEverythingModeTransfersAllLeaves) {
  StateTransferHarness h(4);
  // Even with identical state, the flat ablation fetches every leaf.
  StateTransfer::Options flat;
  flat.fetch_everything = true;
  StateTransferHarness::Node flat_node(&h.sim(), h.config_, 7);
  StateTransfer st(&h.sim(), h.config_, 7, &flat_node.cm, flat);
  st.SetSender([&](NodeId to, const Bytes& payload) {
    h.sim().network().Send(7, to, payload);
  });
  bool done = false;
  st.SetDone([&](SeqNum, const Digest&) { done = true; });
  // Register a node that routes to this transfer instance.
  struct Router : SimNode {
    StateTransfer* target;
    void OnMessage(NodeId from, const Bytes& payload) override {
      target->HandleMessage(from, payload);
    }
  };
  Router router;
  router.target = &st;
  h.sim().RemoveNode(7);
  h.sim().AddNode(7, &router);

  h.SetOnAll(0, 3, 1, "flat");
  Digest root = h.CheckpointAll(0, 3, 70);
  st.Start(70, root);
  ASSERT_TRUE(h.sim().RunUntilTrue([&] { return done; }, 120 * kSecond));
  EXPECT_EQ(st.leaves_fetched(), kSlots + 1);
}

// A checkpoint's root leaves the replica only once its digest work has run
// on the idle lane (DESIGN.md §12). A fetch that reaches the server between
// take and completion is held, not answered, and is answered — and the
// transfer finishes — once the lane job completes.
TEST(StateTransfer, FetchBeforeCheckpointCompletesIsHeldThenAnswered) {
  Simulation sim(21);
  Config config;
  KvAdapter server_adapter(&sim, 256);
  ReplicaService server(&sim, config, 0, &server_adapter);
  KvAdapter fetcher_adapter(&sim, 256);
  ReplicaService fetcher(&sim, config, 1, &fetcher_adapter);
  auto run_batch = [](ReplicaService& svc, uint32_t slot,
                      const std::string& value) {
    svc.Execute(KvAdapter::EncodeSet(slot, ToBytes(value)), 100,
                ReplicaService::EncodeNondet(1000), false);
  };
  for (uint32_t slot = 0; slot < 8; ++slot) {
    run_batch(server, slot, "shared");
    run_batch(fetcher, slot, "shared");
  }
  ASSERT_EQ(TakeCheckpointNow(sim, server, 8),
            TakeCheckpointNow(sim, fetcher, 8));

  // The server runs ahead and takes checkpoint 16; its lane job is pending.
  const std::string ahead(1024, 'a');
  for (uint32_t slot = 100; slot < 140; ++slot) {
    run_batch(server, slot, ahead);
  }
  const SimTime taken_at = sim.Now();
  SimTime completed_at = -1;
  server.TakeCheckpoint(16, [&](const Digest&) { completed_at = sim.Now(); });
  ASSERT_EQ(sim.idle_jobs(0), 1u);
  const Digest target = server.checkpoints().latest_root();

  // Each message is a 100 us hop handled as an event of its receiver.
  std::vector<SimTime> answered_at;
  server.SetStateSender([&](NodeId, const Bytes& payload) {
    answered_at.push_back(sim.Now());
    sim.After(1, 100, [&fetcher, payload] {
      fetcher.HandleStateMessage(0, payload);
    });
  });
  fetcher.SetStateSender([&](NodeId, const Bytes& payload) {
    sim.After(0, 100, [&server, payload] {
      server.HandleStateMessage(1, payload);
    });
  });
  bool done = false;
  Digest installed;
  fetcher.SetStateTransferDone([&](SeqNum seq, const Digest& root) {
    done = seq == 16;
    installed = root;
  });
  fetcher.StartStateTransfer(16, target);
  ASSERT_TRUE(sim.RunUntilTrue([&] { return completed_at >= 0; }, kSecond));
  // The FETCH-META reached the server (100 us after the take) before the
  // checkpoint completed, so its answer left exactly at completion.
  ASSERT_GT(completed_at, taken_at + 100);

  ASSERT_TRUE(sim.RunUntilTrue([&] { return done; }, 10 * kSecond));
  ASSERT_FALSE(answered_at.empty());
  EXPECT_EQ(answered_at.front(), completed_at);
  EXPECT_EQ(installed, target);
  for (uint32_t slot = 100; slot < 140; ++slot) {
    EXPECT_EQ(ToString(fetcher_adapter.GetObj(slot)), ahead);
  }
}

// Regression (state transfer racing recovery): a replica that crashes while
// a state transfer is in flight must come back from its last durable
// checkpoint with the transfer aborted — never resuming a half-applied
// partition set. The half-fetched leaves were volatile; the durable root
// must verify against the checkpoint that was actually committed to disk.
TEST(StateTransfer, CrashMidTransferDoesNotResumeHalfApplied) {
  Simulation sim(11);
  StorageDevice dev(&sim, 0);
  KvAdapter adapter(&sim, 32);
  ReplicaService::Options options;
  options.storage = &dev;
  Config config;
  ReplicaService svc(&sim, config, 0, &adapter, options);

  // Durable state: slots 0..4 at "old", checkpointed (and persisted) at 8.
  for (SeqNum seq = 1; seq <= 5; ++seq) {
    Bytes nondet = ReplicaService::EncodeNondet(seq * 1000);
    Bytes op =
        KvAdapter::EncodeSet(static_cast<uint32_t>(seq - 1), ToBytes("old"));
    svc.Execute(op, 100, nondet, false);
    svc.LogBatch(seq, BytesView(nondet.data(), nondet.size()),
                 {ServiceInterface::ExecutedRequest{100, seq, op}});
  }
  Digest durable_root = TakeCheckpointNow(sim, svc, 8);

  // A peer far ahead: same prefix plus five more slots at "new", seq 16.
  Simulation peer_sim(12);
  KvAdapter peer_adapter(&peer_sim, 32);
  ReplicaService peer(&peer_sim, config, 1, &peer_adapter);
  for (SeqNum seq = 1; seq <= 5; ++seq) {
    peer.Execute(
        KvAdapter::EncodeSet(static_cast<uint32_t>(seq - 1), ToBytes("old")),
        100, ReplicaService::EncodeNondet(seq * 1000), false);
  }
  for (uint32_t slot = 5; slot < 10; ++slot) {
    peer.Execute(KvAdapter::EncodeSet(slot, ToBytes("new")), 100,
                 ReplicaService::EncodeNondet(20000 + slot), false);
  }
  Digest target_root = TakeCheckpointNow(peer_sim, peer, 16);

  // Route fetches to the peer, but deliver only the first two replies — the
  // transfer stalls with part of the target state already applied.
  int replies_delivered = 0;
  peer.SetStateSender([&](NodeId, const Bytes& payload) {
    if (++replies_delivered <= 2) {
      svc.HandleStateMessage(1, payload);
    }
  });
  svc.SetStateSender([&](NodeId, const Bytes& payload) {
    peer.HandleStateMessage(0, payload);
  });
  bool done = false;
  svc.SetStateTransferDone([&](SeqNum, const Digest&) { done = true; });
  svc.StartStateTransfer(16, target_root);
  sim.RunUntil(sim.Now() + kSecond);
  ASSERT_FALSE(done);
  ASSERT_TRUE(svc.InStateTransfer());

  // Crash mid-transfer; restart from disk.
  svc.OnCrash();
  auto info = svc.RecoverFromStorage();
  ASSERT_TRUE(info.ok);  // durable state digest-verified on load
  EXPECT_FALSE(svc.InStateTransfer());  // the transfer did not resume
  EXPECT_EQ(info.checkpoint_seq, 8u);
  EXPECT_EQ(info.checkpoint_root, durable_root);
  // No half-applied leaves: the recovered state is exactly the durable
  // checkpoint — target-only slots are empty again.
  for (uint32_t slot = 5; slot < 10; ++slot) {
    EXPECT_TRUE(adapter.GetObj(slot).empty()) << "slot " << slot;
  }
  // Re-checkpoint the live state (roots are seq-independent): the adapter
  // and protocol state hash back to exactly the durable root.
  EXPECT_EQ(TakeCheckpointNow(sim, svc, 9), durable_root);
}

// Regression (install racing a pending checkpoint): a transfer that installs
// while a local checkpoint's digest work is still on the idle lane
// supersedes that checkpoint's page commit. A leaf written before the
// pending checkpoint whose live value already matches the target is neither
// fetched nor dirty, so the installer must persist it from the pending
// checkpoint's leaves, or the durable checkpoint fails its root check.
TEST(StateTransfer, InstallOverPendingCheckpointKeepsDurableRootValid) {
  Simulation sim(13);
  StorageDevice dev(&sim, 0);
  KvAdapter adapter(&sim, 32);
  ReplicaService::Options options;
  options.storage = &dev;
  Config config;
  ReplicaService svc(&sim, config, 0, &adapter, options);
  Simulation peer_sim(14);
  KvAdapter peer_adapter(&peer_sim, 32);
  ReplicaService peer(&peer_sim, config, 1, &peer_adapter);
  auto run_batch = [](ReplicaService& service, uint32_t slot,
                      const std::string& value) {
    service.Execute(KvAdapter::EncodeSet(slot, ToBytes(value)), 100,
                    ReplicaService::EncodeNondet(1000), false);
  };

  // Durable checkpoint 8; then slot 5 is written and checkpoint 16 taken,
  // its lane job (and so its page commit) still pending.
  for (uint32_t slot = 0; slot < 5; ++slot) {
    run_batch(svc, slot, "old");
    run_batch(peer, slot, "old");
  }
  TakeCheckpointNow(sim, svc, 8);
  run_batch(svc, 5, "mid");
  bool completed = false;
  svc.TakeCheckpoint(16, [&](const Digest&) { completed = true; });
  ASSERT_EQ(sim.idle_jobs(0), 1u);

  // The group's stable checkpoint 32 agrees on slot 5 and adds slots 6..9.
  run_batch(peer, 5, "mid");
  for (uint32_t slot = 6; slot < 10; ++slot) {
    run_batch(peer, slot, "new");
  }
  Digest target_root = TakeCheckpointNow(peer_sim, peer, 32);
  peer.SetStateSender([&](NodeId, const Bytes& payload) {
    svc.HandleStateMessage(1, payload);
  });
  svc.SetStateSender([&](NodeId, const Bytes& payload) {
    peer.HandleStateMessage(0, payload);
  });
  bool done = false;
  svc.SetStateTransferDone([&](SeqNum, const Digest&) { done = true; });
  svc.StartStateTransfer(32, target_root);
  ASSERT_TRUE(done);
  ASSERT_FALSE(completed);
  EXPECT_EQ(svc.state_transfer().leaves_fetched(), 4u);  // slots 6..9 only

  // Checkpoint 16's job finds 32 already on disk and skips its commit.
  ASSERT_TRUE(sim.RunUntilTrue([&] { return completed; }, kSecond));

  svc.OnCrash();
  auto info = svc.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_EQ(info.checkpoint_seq, 32u);
  EXPECT_EQ(info.checkpoint_root, target_root);
  EXPECT_EQ(ToString(adapter.GetObj(5)), "mid");
}

// --- A lagging replica in a live group ---------------------------------------

// A group whose replica 3 misses every agreement message (but still gets
// checkpoint votes) while `cut_agreement` is set, and whose state-transfer
// replies are lost while `hold_state` is set. With the group stopped at
// checkpoint 8, replica 3 adopts it as stable and starts fetching it.
class LaggingReplicaTest : public ::testing::Test {
 protected:
  static constexpr NodeId kLagging = 3;

  LaggingReplicaTest() {
    ServiceGroup::Params params;
    params.config.f = 1;
    params.config.checkpoint_interval = 8;
    params.config.log_window = 16;
    params.seed = 17;
    group_.reset(new ServiceGroup(params, [](Simulation* sim, NodeId) {
      return std::make_unique<KvAdapter>(sim, 64);
    }));
    group_->EnableAudit();
    client_ = group_->config().ClientId(0);
    group_->sim().network().SetInterceptor(
        [this](NodeId from, NodeId to, Bytes& wire) {
          const uint8_t type = wire.empty() ? 0 : wire[0];
          if (from == client_ && type == Type(MsgType::kRequest)) {
            last_request_ = wire;
          }
          if (to != kLagging) {
            return true;
          }
          const bool agreement = type == Type(MsgType::kPrePrepare) ||
                                 type == Type(MsgType::kPrepare) ||
                                 type == Type(MsgType::kCommit);
          return !(cut_agreement_ && agreement) &&
                 !(hold_state_ && type == Type(MsgType::kState));
        });
  }

  static uint8_t Type(MsgType type) { return static_cast<uint8_t>(type); }

  void Set(uint32_t slot) {
    ASSERT_TRUE(group_->Invoke(KvAdapter::EncodeSet(slot, ToBytes("v"))).ok());
  }

  // Commits Sets until the group has executed exactly seq 8, then waits for
  // replica 3 to start fetching that checkpoint.
  void FallBehindToCheckpoint8() {
    for (uint32_t i = 0; group_->replica(0).last_executed() < 8; ++i) {
      ASSERT_NO_FATAL_FAILURE(Set(i % 8));
    }
    ASSERT_EQ(group_->replica(0).last_executed(), 8u);
    ASSERT_TRUE(group_->sim().RunUntilTrue(
        [&] { return group_->service(kLagging).InStateTransfer(); },
        group_->sim().Now() + kSecond));
    ASSERT_EQ(group_->replica(kLagging).stable_seq(), 8u);
    ASSERT_EQ(group_->replica(kLagging).last_executed(), 0u);
  }

  void FinishTransfer() {
    hold_state_ = false;
    ASSERT_TRUE(group_->sim().RunUntilTrue(
        [&] { return !group_->service(kLagging).InStateTransfer(); },
        group_->sim().Now() + 5 * kSecond));
  }

  AuditedGroup group_;
  NodeId client_ = 0;
  bool cut_agreement_ = true;
  bool hold_state_ = true;
  Bytes last_request_;
};

// While the fetch is in flight the group keeps committing. The lagging
// replica takes part in agreement on the batches past the checkpoint, so the
// moment the transfer lands it executes them: no gap is left that only the
// next checkpoint (and a second transfer) could fill. A transfer that
// outlasts the view-change timeout does not make it suspect the primary.
TEST_F(LaggingReplicaTest, ExecutesNextBatchesWithoutSecondTransfer) {
  ASSERT_NO_FATAL_FAILURE(FallBehindToCheckpoint8());
  cut_agreement_ = false;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(Set(i));
  }
  // Longer than the view-change timeout: the fetch is still held.
  group_->sim().RunUntil(group_->sim().Now() +
                         2 * group_->config().view_change_timeout);
  Replica& lagging = group_->replica(kLagging);
  ASSERT_TRUE(group_->service(kLagging).InStateTransfer());
  EXPECT_EQ(lagging.last_executed(), 0u) << "executed before the transfer";
  EXPECT_EQ(lagging.view_changes_started(), 0u);

  ASSERT_NO_FATAL_FAILURE(FinishTransfer());
  EXPECT_EQ(lagging.stable_seq(), 8u);
  EXPECT_GE(lagging.batches_executed(), 3u);
  EXPECT_EQ(lagging.last_executed(), group_->replica(0).last_executed());

  // It stays in the pipeline across later checkpoints: every batch executes
  // live, and nothing more is fetched.
  const uint64_t leaves = group_->service(kLagging).state_transfer()
                              .leaves_fetched();
  for (uint32_t i = 0; i < 12; ++i) {
    ASSERT_NO_FATAL_FAILURE(Set(i % 8));
  }
  ASSERT_TRUE(group_->sim().RunUntilTrue(
      [&] {
        return lagging.last_executed() == group_->replica(0).last_executed();
      },
      group_->sim().Now() + kSecond));
  EXPECT_GE(lagging.stable_seq(), 16u);
  EXPECT_EQ(group_->service(kLagging).state_transfer().leaves_fetched(),
            leaves);
  EXPECT_EQ(lagging.view_changes_started(), 0u);
}

// The lagging replica holds a client request the group executed at seq 8
// (it arrives as a retransmission while the fetch is in flight). The fetched
// reply cache shows it executed, so it is no longer pending: the view-change
// timer stops, and the replica never suspects the primary that ordered it.
TEST_F(LaggingReplicaTest, PendingRequestExecutedByFetchedStateIsDropped) {
  ASSERT_NO_FATAL_FAILURE(FallBehindToCheckpoint8());
  ASSERT_FALSE(last_request_.empty());
  group_->sim().network().Send(client_, kLagging, last_request_);
  group_->sim().RunUntil(group_->sim().Now() +
                         2 * group_->config().view_change_timeout);
  ASSERT_NO_FATAL_FAILURE(FinishTransfer());
  group_->sim().RunUntil(group_->sim().Now() +
                         4 * group_->config().view_change_timeout);
  Replica& lagging = group_->replica(kLagging);
  EXPECT_EQ(lagging.last_executed(), 8u);
  EXPECT_EQ(lagging.view_changes_started(), 0u);
  EXPECT_FALSE(lagging.in_view_change());
  EXPECT_EQ(lagging.view(), 0u);
}

}  // namespace
}  // namespace bftbase
