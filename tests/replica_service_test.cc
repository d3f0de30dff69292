// Unit tests for ReplicaService: agreed non-determinism handling, the
// protocol-state piggyback, and the save/restart half of proactive recovery.
#include <gtest/gtest.h>

#include <optional>

#include "src/base/kv_adapter.h"
#include "src/base/replica_service.h"
#include "tests/checkpoint_helpers.h"

namespace bftbase {
namespace {

class ReplicaServiceTest : public ::testing::Test {
 protected:
  ReplicaServiceTest()
      : sim_(1),
        adapter_(&sim_, 32),
        service_(&sim_, config_, /*self=*/0, &adapter_) {}

  Config config_;
  Simulation sim_;
  KvAdapter adapter_;
  ReplicaService service_;
};

TEST_F(ReplicaServiceTest, NondetRoundTrip) {
  Bytes nondet = ReplicaService::EncodeNondet(123456789);
  auto decoded = ReplicaService::DecodeNondet(nondet);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, 123456789);
  EXPECT_FALSE(ReplicaService::DecodeNondet(ToBytes("junk")).has_value());
  EXPECT_FALSE(ReplicaService::DecodeNondet(Bytes()).has_value());
}

TEST_F(ReplicaServiceTest, ProposeTracksClock) {
  sim_.After(Simulation::kNoOwner, 5000, [] {});
  sim_.RunUntilIdle();
  Bytes proposal = service_.ProposeNondet();
  auto t = ReplicaService::DecodeNondet(proposal);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, sim_.Now());
}

TEST_F(ReplicaServiceTest, CheckNondetEnforcesClockTolerance) {
  sim_.After(Simulation::kNoOwner, 10 * kSecond, [] {});
  sim_.RunUntilIdle();
  SimTime now = sim_.Now();
  EXPECT_TRUE(service_.CheckNondet(ReplicaService::EncodeNondet(now)));
  EXPECT_TRUE(service_.CheckNondet(
      ReplicaService::EncodeNondet(now + 100 * kMillisecond)));
  EXPECT_TRUE(service_.CheckNondet(
      ReplicaService::EncodeNondet(now - 400 * kMillisecond)));
  // A primary proposing a timestamp far from our clock is rejected.
  EXPECT_FALSE(service_.CheckNondet(
      ReplicaService::EncodeNondet(now + 10 * kSecond)));
  EXPECT_FALSE(service_.CheckNondet(
      ReplicaService::EncodeNondet(now - 10 * kSecond)));
}

TEST_F(ReplicaServiceTest, AgreedTimestampsAreMonotonic) {
  // Even if the primary's clock regresses between batches, executed
  // timestamps never go backwards.
  service_.Execute(KvAdapter::EncodeSet(0, ToBytes("a")), 100,
                   ReplicaService::EncodeNondet(5000), false);
  EXPECT_EQ(service_.last_agreed_timestamp(), 5000u);
  service_.Execute(KvAdapter::EncodeSet(0, ToBytes("b")), 100,
                   ReplicaService::EncodeNondet(4000), false);
  EXPECT_EQ(service_.last_agreed_timestamp(), 5000u);  // clamped
  service_.Execute(KvAdapter::EncodeSet(0, ToBytes("c")), 100,
                   ReplicaService::EncodeNondet(6000), false);
  EXPECT_EQ(service_.last_agreed_timestamp(), 6000u);
}

TEST_F(ReplicaServiceTest, ProtocolStateTravelsThroughCheckpoints) {
  service_.SetProtocolState(ToBytes("reply-cache-blob"));
  Digest with_blob = TakeCheckpointNow(sim_, service_, 10);
  EXPECT_EQ(ToString(service_.GetProtocolState()), "reply-cache-blob");

  service_.SetProtocolState(ToBytes("different"));
  Digest with_other = TakeCheckpointNow(sim_, service_, 20);
  EXPECT_NE(with_blob, with_other);
}

// Runs `service`'s state transfer toward (seq, root) against a loopback
// `peer`: our fetch messages go to the peer's handler (executed inline), its
// replies to ours. True once the transfer completed at `seq`.
bool TransferFrom(Simulation& sim, ReplicaService& service,
                  ReplicaService& peer, SeqNum seq, const Digest& root) {
  peer.SetStateSender([&](NodeId, const Bytes& payload) {
    service.HandleStateMessage(1, payload);
  });
  std::optional<SeqNum> done_seq;
  service.SetStateTransferDone(
      [&](SeqNum done, const Digest&) { done_seq = done; });
  service.SetStateSender([&](NodeId, const Bytes& payload) {
    peer.HandleStateMessage(0, payload);
  });
  service.StartStateTransfer(seq, root);
  sim.RunUntil(sim.Now() + kSecond);
  return done_seq == seq;
}

TEST_F(ReplicaServiceTest, SaveAndRestartRebuildsFromLocalDisk) {
  service_.Execute(KvAdapter::EncodeSet(3, ToBytes("precious")), 100,
                   ReplicaService::EncodeNondet(1000), false);
  service_.SetProtocolState(ToBytes("ps"));
  Digest root = TakeCheckpointNow(sim_, service_, 10);

  size_t saved = service_.SaveForRecovery();
  EXPECT_GT(saved, 0u);
  service_.RestartFromRecovery();
  // Clean concrete state after the restart.
  EXPECT_TRUE(adapter_.GetObj(3).empty());

  // Serve the state transfer from a twin service holding the same
  // checkpoint.
  Simulation peer_sim(2);
  KvAdapter peer_adapter(&peer_sim, 32);
  ReplicaService peer(&peer_sim, config_, 1, &peer_adapter);
  peer.Execute(KvAdapter::EncodeSet(3, ToBytes("precious")), 100,
               ReplicaService::EncodeNondet(1000), false);
  peer.SetProtocolState(ToBytes("ps"));
  ASSERT_EQ(TakeCheckpointNow(peer_sim, peer, 10), root);

  ASSERT_TRUE(TransferFrom(sim_, service_, peer, 10, root));
  // The object was restored — from the local saved copy, not the network.
  EXPECT_EQ(ToString(adapter_.GetObj(3)), "precious");
  EXPECT_GE(service_.state_transfer().leaves_from_local_source(), 2u);
  EXPECT_EQ(service_.state_transfer().leaves_fetched(), 0u);
  EXPECT_EQ(ToString(service_.GetProtocolState()), "ps");
}

// A KV service whose clean restart is not the state it was built with:
// slot 5 comes back holding "boot".
class RebootDirtyKv : public KvAdapter {
 public:
  using KvAdapter::KvAdapter;
  void RestartClean() override {
    KvAdapter::RestartClean();
    PutObjs({ObjectUpdate{5, ToBytes("boot")}});
  }
};

// The save keeps one copy of the fill's value for every leaf that held it,
// not one per leaf. A leaf that held the fill before the reboot is restored
// from that copy, not the network, even when the clean restart left it
// holding something else.
TEST_F(ReplicaServiceTest, LeafThatHeldTheFillRestoresFromLocalDisk) {
  Simulation sim(3);
  RebootDirtyKv adapter(&sim, 32);
  ReplicaService service(&sim, config_, 0, &adapter);
  service.Execute(KvAdapter::EncodeSet(3, ToBytes("precious")), 100,
                  ReplicaService::EncodeNondet(1000), false);
  const Digest root = TakeCheckpointNow(sim, service, 10);

  EXPECT_EQ(service.SaveForRecovery(), 8u);  // only "precious" is non-empty
  service.RestartFromRecovery();
  EXPECT_EQ(ToString(adapter.GetObj(5)), "boot");

  Simulation peer_sim(4);
  KvAdapter peer_adapter(&peer_sim, 32);
  ReplicaService peer(&peer_sim, config_, 1, &peer_adapter);
  peer.Execute(KvAdapter::EncodeSet(3, ToBytes("precious")), 100,
               ReplicaService::EncodeNondet(1000), false);
  ASSERT_EQ(TakeCheckpointNow(peer_sim, peer, 10), root);

  ASSERT_TRUE(TransferFrom(sim, service, peer, 10, root));
  EXPECT_TRUE(adapter.GetObj(5).empty());
  EXPECT_EQ(ToString(adapter.GetObj(3)), "precious");
  EXPECT_EQ(service.state_transfer().leaves_fetched(), 0u);
  EXPECT_EQ(service.state_transfer().leaves_from_local_source(), 2u);
}

TEST_F(ReplicaServiceTest, TentativeExecutionDoesNotClampTimestamps) {
  service_.Execute(KvAdapter::EncodeGet(0), 100, Bytes(), /*tentative=*/true);
  EXPECT_EQ(service_.last_agreed_timestamp(), 0u);
}

}  // namespace
}  // namespace bftbase
