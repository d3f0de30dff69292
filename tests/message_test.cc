// Unit tests for BFT message encodings and the authenticated channel.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bft/channel.h"
#include "src/bft/message.h"
#include "src/sim/network.h"
#include "src/sim/payload.h"
#include "src/sim/simulation.h"
#include "src/util/hotpath.h"

namespace bftbase {
namespace {

TEST(Message, RequestRoundTrip) {
  RequestMsg msg;
  msg.client = 5;
  msg.timestamp = 99;
  msg.read_only = true;
  msg.op = ToBytes("operation bytes");
  auto decoded = RequestMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->client, 5);
  EXPECT_EQ(decoded->timestamp, 99u);
  EXPECT_TRUE(decoded->read_only);
  EXPECT_EQ(ToString(decoded->op), "operation bytes");
  EXPECT_EQ(decoded->ComputeDigest(), msg.ComputeDigest());
}

TEST(Message, PrePrepareRoundTripAndDigest) {
  PrePrepareMsg msg;
  msg.view = 3;
  msg.seq = 17;
  msg.nondet = ToBytes("ts");
  msg.request_digests = {Digest::Of(ToBytes("req1")),
                         Digest::Of(ToBytes("req2"))};
  auto decoded = PrePrepareMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->view, 3u);
  EXPECT_EQ(decoded->seq, 17u);
  EXPECT_EQ(decoded->request_digests, msg.request_digests);
  EXPECT_EQ(decoded->ComputeDigest(), msg.ComputeDigest());

  // The digest covers content, not the slot.
  PrePrepareMsg other = msg;
  other.seq = 18;
  EXPECT_EQ(other.ComputeDigest(), msg.ComputeDigest());
  other.nondet = ToBytes("different");
  EXPECT_NE(other.ComputeDigest(), msg.ComputeDigest());
}

// Every strict prefix of a valid encoding fails to decode, and so does the
// encoding with trailing garbage.
template <typename Msg>
void ExpectTruncationsRejected(const Bytes& wire) {
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(Msg::Decode(BytesView(wire.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  Bytes longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(Msg::Decode(longer).ok());
}

// Overwrites the little-endian u32 count at `offset`.
Bytes WithCount(Bytes wire, size_t offset, uint32_t count) {
  for (int i = 0; i < 4; ++i) {
    wire[offset + i] = static_cast<uint8_t>(count >> (8 * i));
  }
  return wire;
}

TEST(Message, DigestOnlyPrePrepareIsCanonicalAndBounded) {
  PrePrepareMsg msg;
  msg.view = 2;
  msg.seq = 9;
  msg.nondet = ToBytes("clock");
  for (int i = 0; i < 3; ++i) {
    msg.request_digests.push_back(Digest::Of(ToBytes(std::to_string(i))));
  }
  const Bytes wire = msg.Encode();
  // Bodies travel separately: the batch costs one digest per request.
  EXPECT_EQ(wire.size(), 8 + 8 + 4 + msg.nondet.size() + 4 + 3 * Digest::kSize);
  auto decoded = PrePrepareMsg::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Encode(), wire);
  EXPECT_EQ(decoded->ComputeDigest(), msg.ComputeDigest());
  // The batch digest covers exactly the listed digests and their order.
  PrePrepareMsg reordered = msg;
  std::swap(reordered.request_digests[0], reordered.request_digests[1]);
  EXPECT_NE(reordered.ComputeDigest(), msg.ComputeDigest());

  ExpectTruncationsRejected<PrePrepareMsg>(wire);
  const size_t count_at = 8 + 8 + 4 + msg.nondet.size();
  EXPECT_FALSE(PrePrepareMsg::Decode(WithCount(wire, count_at, 4)).ok());
  EXPECT_FALSE(
      PrePrepareMsg::Decode(WithCount(wire, count_at, kMaxBatch + 1)).ok());
  EXPECT_FALSE(PrePrepareMsg::Decode(WithCount(wire, count_at, 0xffffffff)).ok());
}

TEST(Message, FetchAndReplyAreCanonicalAndBounded) {
  FetchMsg fetch;
  fetch.request_digests = {Digest::Of(ToBytes("a")), Digest::Of(ToBytes("b"))};
  const Bytes fetch_wire = fetch.Encode();
  auto decoded_fetch = FetchMsg::Decode(fetch_wire);
  ASSERT_TRUE(decoded_fetch.ok());
  EXPECT_EQ(decoded_fetch->request_digests, fetch.request_digests);
  EXPECT_EQ(decoded_fetch->Encode(), fetch_wire);
  ExpectTruncationsRejected<FetchMsg>(fetch_wire);
  EXPECT_FALSE(FetchMsg::Decode(WithCount(fetch_wire, 0, 3)).ok());
  EXPECT_FALSE(FetchMsg::Decode(WithCount(fetch_wire, 0, kMaxBatch + 1)).ok());

  FetchReplyMsg reply;
  reply.request_wires = {ToBytes("envelope one"), Bytes(), ToBytes("two")};
  const Bytes reply_wire = reply.Encode();
  auto decoded_reply = FetchReplyMsg::Decode(reply_wire);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->request_wires, reply.request_wires);
  EXPECT_EQ(decoded_reply->Encode(), reply_wire);
  ExpectTruncationsRejected<FetchReplyMsg>(reply_wire);
  EXPECT_FALSE(FetchReplyMsg::Decode(WithCount(reply_wire, 0, 4)).ok());
  EXPECT_FALSE(
      FetchReplyMsg::Decode(WithCount(reply_wire, 0, kMaxBatch + 1)).ok());
  // An inflated inner length must not be trusted either.
  EXPECT_FALSE(
      FetchReplyMsg::Decode(WithCount(reply_wire, 4, 0x7fffffff)).ok());

  // Empty lists are valid and canonical.
  EXPECT_EQ(FetchMsg::Decode(FetchMsg().Encode())->Encode(),
            FetchMsg().Encode());
  EXPECT_EQ(FetchReplyMsg::Decode(FetchReplyMsg().Encode())->Encode(),
            FetchReplyMsg().Encode());
}

TEST(Message, PrepareCommitRoundTrip) {
  PrepareMsg prepare;
  prepare.view = 1;
  prepare.seq = 2;
  prepare.digest = Digest::Of(ToBytes("d"));
  prepare.replica = 3;
  auto p = PrepareMsg::Decode(prepare.Encode());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->digest, prepare.digest);
  EXPECT_EQ(p->replica, 3);

  CommitMsg commit;
  commit.view = 4;
  commit.seq = 5;
  commit.digest = Digest::Of(ToBytes("e"));
  commit.replica = 1;
  auto c = CommitMsg::Decode(commit.Encode());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->seq, 5u);
}

TEST(Message, ReplyRoundTripDigestForm) {
  ReplyMsg reply;
  reply.view = 2;
  reply.timestamp = 10;
  reply.client = 6;
  reply.replica = 1;
  reply.result = ToBytes("result");
  Digest full_digest = reply.ResultDigest();

  ReplyMsg digest_form = reply;
  digest_form.result_is_digest = true;
  digest_form.result = Digest::Of(ToBytes("result")).ToBytes();
  EXPECT_EQ(digest_form.ResultDigest(), full_digest);

  auto decoded = ReplyMsg::Decode(digest_form.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->result_is_digest);
  EXPECT_EQ(decoded->ResultDigest(), full_digest);
}

TEST(Message, ViewChangeRoundTrip) {
  ViewChangeMsg msg;
  msg.new_view = 7;
  msg.stable_seq = 128;
  msg.stable_digest = Digest::Of(ToBytes("state"));
  msg.checkpoint_proof = {ToBytes("cp1"), ToBytes("cp2"), ToBytes("cp3")};
  PreparedProof proof;
  proof.pre_prepare_wire = ToBytes("pp");
  proof.prepare_wires = {ToBytes("p1"), ToBytes("p2")};
  msg.prepared.push_back(proof);
  msg.replica = 2;

  auto decoded = ViewChangeMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->new_view, 7u);
  EXPECT_EQ(decoded->stable_seq, 128u);
  EXPECT_EQ(decoded->checkpoint_proof.size(), 3u);
  ASSERT_EQ(decoded->prepared.size(), 1u);
  EXPECT_EQ(decoded->prepared[0].prepare_wires.size(), 2u);
  EXPECT_EQ(decoded->replica, 2);
}

TEST(Message, NewViewRoundTrip) {
  NewViewMsg msg;
  msg.view = 9;
  msg.view_changes = {ToBytes("vc1"), ToBytes("vc2"), ToBytes("vc3")};
  msg.pre_prepares = {ToBytes("pp1")};
  auto decoded = NewViewMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->view, 9u);
  EXPECT_EQ(decoded->view_changes.size(), 3u);
  EXPECT_EQ(decoded->pre_prepares.size(), 1u);
}

TEST(Message, MalformedInputsRejected) {
  EXPECT_FALSE(RequestMsg::Decode(ToBytes("garbage")).ok());
  EXPECT_FALSE(PrePrepareMsg::Decode(Bytes()).ok());
  EXPECT_FALSE(ViewChangeMsg::Decode(ToBytes("x")).ok());
  // Trailing garbage is rejected too.
  RequestMsg msg;
  msg.op = ToBytes("op");
  Bytes wire = msg.Encode();
  wire.push_back(0);
  EXPECT_FALSE(RequestMsg::Decode(wire).ok());
  // A digest reply must carry exactly one digest: any other length used to
  // decode as the zero digest and count as a vote for it.
  ReplyMsg reply;
  reply.result_is_digest = true;
  for (size_t size : {size_t{0}, Digest::kSize - 1, Digest::kSize + 1}) {
    reply.result = Bytes(size, 0x11);
    EXPECT_FALSE(ReplyMsg::Decode(reply.Encode()).ok()) << size;
  }
  reply.result = Bytes(Digest::kSize, 0x11);
  EXPECT_TRUE(ReplyMsg::Decode(reply.Encode()).ok());
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest()
      : sim_(1),
        keys_(0x99, config_.node_count()),
        alice_(&sim_, &keys_, config_, 0),
        bob_(&sim_, &keys_, config_, 1),
        client_(&sim_, &keys_, config_, config_.ClientId(0)) {}

  Config config_;
  Simulation sim_;
  KeyTable keys_;
  Channel alice_;
  Channel bob_;
  Channel client_;
};

TEST_F(ChannelTest, AuthenticatorSealOpen) {
  Bytes wire = alice_.SealAuthenticated(MsgType::kCommit, ToBytes("payload"));
  auto opened = bob_.Open(wire);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->type, MsgType::kCommit);
  EXPECT_EQ(opened->sender, 0);
  EXPECT_EQ(ToString(opened->payload), "payload");
}

TEST_F(ChannelTest, SingleMacOnlyVerifiesAtAddressee) {
  Bytes wire = alice_.SealMac(MsgType::kReply, ToBytes("for bob"), 1);
  EXPECT_TRUE(bob_.Open(wire).ok());
  Channel carol(&sim_, &keys_, config_, 2);
  EXPECT_FALSE(carol.Open(wire).ok());
}

TEST_F(ChannelTest, SignedVerifiesAnywhere) {
  Bytes wire = alice_.SealSigned(MsgType::kPrePrepare, ToBytes("signed"));
  EXPECT_TRUE(bob_.Open(wire).ok());
  Channel carol(&sim_, &keys_, config_, 2);
  EXPECT_TRUE(carol.Open(wire).ok());
  EXPECT_TRUE(client_.Open(wire).ok());
}

TEST_F(ChannelTest, TamperedPayloadRejected) {
  Bytes wire = alice_.SealSigned(MsgType::kPrepare, ToBytes("honest"));
  // Flip a byte inside the payload region.
  wire[wire.size() / 2] ^= 0x01;
  EXPECT_FALSE(bob_.Open(wire).ok());
}

TEST_F(ChannelTest, CorruptAuthRejected) {
  alice_.CorruptOutgoingAuth(true);
  Bytes wire = alice_.SealAuthenticated(MsgType::kCommit, ToBytes("x"));
  EXPECT_FALSE(bob_.Open(wire).ok());
}

TEST_F(ChannelTest, GarbageRejectedWithoutCrash) {
  EXPECT_FALSE(bob_.Open(Bytes()).ok());
  EXPECT_FALSE(bob_.Open(ToBytes("random junk that is not an envelope")).ok());
  Bytes long_junk(10000, 0xEE);
  EXPECT_FALSE(bob_.Open(long_junk).ok());
}

TEST_F(ChannelTest, ParseUnverifiedExtractsPayload) {
  Bytes wire = alice_.SealMac(MsgType::kRequest, ToBytes("fast path"), 1);
  auto parsed = Channel::ParseUnverified(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ToString(parsed->payload), "fast path");
  EXPECT_EQ(parsed->sender, 0);
}

// An open copies the payload and auth bytes out of the envelope, and an
// authenticator's MACs once more. For a 17-byte payload: 17 + 10 B under
// one MAC, 17 + 32 B under a signature, 17 + 2 x 40 B under an n = 4
// authenticator.
TEST_F(ChannelTest, OpenCountsTheBytesItCopies) {
  ASSERT_EQ(config_.n(), 4);
  const Bytes payload(17, 0x5a);
  auto copied_by_open = [&](const Bytes& wire) {
    const uint64_t before = hotpath::counters().open_bytes_copied;
    EXPECT_TRUE(bob_.Open(wire).ok());
    return hotpath::counters().open_bytes_copied - before;
  };
  EXPECT_EQ(copied_by_open(alice_.SealMac(MsgType::kReply, payload, 1)), 27u);
  EXPECT_EQ(copied_by_open(alice_.SealSigned(MsgType::kPrepare, payload)),
            49u);
  EXPECT_EQ(
      copied_by_open(alice_.SealAuthenticated(MsgType::kCommit, payload)),
      97u);
}

TEST_F(ChannelTest, KeyRefreshInvalidatesOldMacsNotSignatures) {
  Bytes mac_wire = alice_.SealMac(MsgType::kReply, ToBytes("m"), 1);
  Bytes signed_wire = alice_.SealSigned(MsgType::kCheckpoint, ToBytes("s"));
  keys_.RefreshKeysFor(0);
  EXPECT_FALSE(bob_.Open(mac_wire).ok());    // session key rotated
  EXPECT_TRUE(bob_.Open(signed_wire).ok());  // signatures survive (proofs!)
}

// Sim node that opens every incoming wire through a channel, so Open() runs
// inside a network delivery and the envelope-digest memo is in play.
class OpeningNode : public SimNode {
 public:
  explicit OpeningNode(Channel* channel) : channel_(channel) {}
  void OnMessage(NodeId, const Bytes& payload) override {
    oks.push_back(channel_->Open(payload).ok());
  }
  std::vector<bool> oks;

 private:
  Channel* channel_;
};

TEST_F(ChannelTest, DigestMemoServesSharedMulticastBuffer) {
  Channel carol(&sim_, &keys_, config_, 2);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  Bytes wire = alice_.SealSigned(MsgType::kPrePrepare, ToBytes("shared"));
  const hotpath::Counters before = hotpath::counters();
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 3, wire); });
  sim_.RunUntilIdle();
  ASSERT_EQ(bob_node.oks.size(), 1u);
  ASSERT_EQ(carol_node.oks.size(), 1u);
  EXPECT_TRUE(bob_node.oks[0]);
  EXPECT_TRUE(carol_node.oks[0]);
  // Both recipients received the same shared buffer: the first Open computed
  // the envelope digest (miss + store), the second reused it (hit).
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_EQ(after.digest_memo_hits - before.digest_memo_hits, 1u);
  EXPECT_GE(after.digest_memo_misses - before.digest_memo_misses, 1u);
}

TEST_F(ChannelTest, SignedMulticastChecksSignatureOnce) {
  // A signature verifies alike at every receiver (signing keys never
  // rotate), so the first receiver of the shared buffer pays for the
  // envelope digest (2 SHA-256 calls) and the signature check (2 more), and
  // the other two reuse both from the memo.
  Channel carol(&sim_, &keys_, config_, 2);
  Channel dave(&sim_, &keys_, config_, 3);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  OpeningNode dave_node(&dave);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  sim_.AddNode(3, &dave_node);
  Bytes wire = alice_.SealSigned(MsgType::kPrePrepare, ToBytes("ordered"));
  const hotpath::Counters before = hotpath::counters();
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 4, wire); });
  sim_.RunUntilIdle();
  const hotpath::Counters& after = hotpath::counters();
  for (const OpeningNode* node : {&bob_node, &carol_node, &dave_node}) {
    ASSERT_EQ(node->oks.size(), 1u);
    EXPECT_TRUE(node->oks[0]);
  }
  EXPECT_EQ(after.sha256_invocations - before.sha256_invocations, 4u);
  EXPECT_EQ(after.digest_memo_hits - before.digest_memo_hits, 2u);
}

TEST_F(ChannelTest, CorruptSignatureRejectedByEveryReceiver) {
  // The first receiver's failed check is cached like a passed one: the two
  // receivers served the cached verdict must reject too.
  Channel carol(&sim_, &keys_, config_, 2);
  Channel dave(&sim_, &keys_, config_, 3);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  OpeningNode dave_node(&dave);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  sim_.AddNode(3, &dave_node);
  alice_.CorruptOutgoingAuth(true);
  Bytes wire = alice_.SealSigned(MsgType::kPrePrepare, ToBytes("forged"));
  const hotpath::Counters before = hotpath::counters();
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 4, wire); });
  sim_.RunUntilIdle();
  for (const OpeningNode* node : {&bob_node, &carol_node, &dave_node}) {
    ASSERT_EQ(node->oks.size(), 1u);
    EXPECT_FALSE(node->oks[0]);
  }
  EXPECT_EQ(hotpath::counters().digest_memo_hits - before.digest_memo_hits,
            2u);
}

TEST_F(ChannelTest, DigestMemoDoesNotCacheMacValidity) {
  // A MAC addressed to bob rides one shared multicast buffer to bob and
  // carol. Carol's Open sees a digest-memo hit for the shared buffer but
  // must still reject: the memo caches digests and signature verdicts,
  // never MAC verdicts.
  Channel carol(&sim_, &keys_, config_, 2);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  Bytes wire = alice_.SealMac(MsgType::kReply, ToBytes("for bob"), 1);
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 3, wire); });
  sim_.RunUntilIdle();
  ASSERT_EQ(bob_node.oks.size(), 1u);
  ASSERT_EQ(carol_node.oks.size(), 1u);
  EXPECT_TRUE(bob_node.oks[0]);
  EXPECT_FALSE(carol_node.oks[0]);
}

TEST_F(ChannelTest, CorruptAuthRejectedThroughNetworkDelivery) {
  // Regression for the digest memo + MAC caches: an honest wire warms every
  // cache, then a corrupt-auth wire with the *same* payload (same envelope
  // digest) must still be rejected when delivered through the network.
  OpeningNode bob_node(&bob_);
  sim_.AddNode(1, &bob_node);
  Bytes honest = alice_.SealAuthenticated(MsgType::kCommit, ToBytes("x"));
  alice_.CorruptOutgoingAuth(true);
  Bytes corrupt = alice_.SealAuthenticated(MsgType::kCommit, ToBytes("x"));
  alice_.CorruptOutgoingAuth(false);
  sim_.After(0, 0, [&] {
    sim_.network().Send(0, 1, honest);
    sim_.network().Send(0, 1, corrupt);
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(bob_node.oks.size(), 2u);
  EXPECT_TRUE(bob_node.oks[0]);
  EXPECT_FALSE(bob_node.oks[1]);
}

TEST_F(ChannelTest, InterceptorMutatedCopyRejectedOthersUnaffected) {
  // The fabric gives a mutated recipient a private buffer (never the shared
  // one), so the stale memo entry for the shared buffer cannot vouch for the
  // corrupted wire. Carol must reject; bob still verifies.
  Channel carol(&sim_, &keys_, config_, 2);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  sim_.network().SetInterceptor([](NodeId, NodeId to, Bytes& payload) {
    if (to == 2 && !payload.empty()) {
      payload[payload.size() / 2] ^= 0x01;
    }
    return true;
  });
  Bytes wire = alice_.SealSigned(MsgType::kPrepare, ToBytes("honest"));
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 3, wire); });
  sim_.RunUntilIdle();
  ASSERT_EQ(bob_node.oks.size(), 1u);
  ASSERT_EQ(carol_node.oks.size(), 1u);
  EXPECT_TRUE(bob_node.oks[0]);
  EXPECT_FALSE(carol_node.oks[0]);
}

// Opens every wire like OpeningNode and keeps each delivered Payload (and
// so its memo) alive.
class KeepingNode : public SimNode {
 public:
  KeepingNode(Simulation* sim, Channel* channel)
      : sim_(sim), channel_(channel) {}
  void OnMessage(NodeId, const Bytes& payload) override {
    oks.push_back(channel_->Open(payload).ok());
    kept.push_back(sim_->current_delivery());
  }
  std::vector<bool> oks;
  std::vector<std::shared_ptr<const Payload>> kept;

 private:
  Simulation* sim_;
  Channel* channel_;
};

TEST_F(ChannelTest, DigestMemoSurvivesManyLiveBuffers) {
  // The memo lives in the delivered Payload, so nothing evicts it while the
  // buffer lives. Between the two opens of one multicast, dave opens and
  // keeps alive more buffers than the 4,096 entries at which an
  // address-keyed memo once swept itself (clearing every entry when all
  // were live); carol, the second receiver, must still hit.
  constexpr size_t kOtherBuffers = 4200;
  Channel carol(&sim_, &keys_, config_, 2);
  Channel dave(&sim_, &keys_, config_, 3);
  OpeningNode bob_node(&bob_);
  OpeningNode carol_node(&carol);
  KeepingNode dave_node(&sim_, &dave);
  sim_.AddNode(1, &bob_node);
  sim_.AddNode(2, &carol_node);
  sim_.AddNode(3, &dave_node);
  sim_.network().AddDelay(0, 2, 10 * kSecond);  // carol opens last
  Bytes wire = alice_.SealSigned(MsgType::kPrePrepare, ToBytes("late"));
  Bytes other = alice_.SealAuthenticated(MsgType::kCommit, ToBytes("other"));
  const hotpath::Counters before = hotpath::counters();
  sim_.After(0, 0, [&] { sim_.network().Multicast(0, 1, 3, wire); });
  for (size_t i = 0; i < kOtherBuffers; ++i) {
    // A new Payload per send, one per millisecond so dave is idle for each.
    sim_.After(0, static_cast<SimTime>(i) * kMillisecond,
               [&] { sim_.network().Send(0, 3, other); });
  }
  sim_.RunUntilTrue([&] { return !bob_node.oks.empty(); },
                    Simulation::kNoPendingEvent);
  sim_.RunUntilTrue([&] { return dave_node.oks.size() == kOtherBuffers; },
                    Simulation::kNoPendingEvent);
  EXPECT_TRUE(carol_node.oks.empty());  // still in flight
  sim_.RunUntilIdle();
  ASSERT_EQ(bob_node.oks.size(), 1u);
  ASSERT_EQ(carol_node.oks.size(), 1u);
  EXPECT_TRUE(bob_node.oks[0]);
  EXPECT_TRUE(carol_node.oks[0]);
  ASSERT_EQ(dave_node.kept.size(), kOtherBuffers);
  for (bool ok : dave_node.oks) {
    EXPECT_TRUE(ok);
  }
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_EQ(after.digest_memo_hits - before.digest_memo_hits, 1u);
  EXPECT_EQ(after.digest_memo_misses - before.digest_memo_misses,
            kOtherBuffers + 1);
}

}  // namespace
}  // namespace bftbase
