// Protocol edge-case regressions: the log-window high watermark under lost
// checkpoint votes, client retransmission against the reply cache, the
// stale-timestamp guard on replayed replies, which replies carry the full
// result, and the view-change timer under client retransmissions.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/bft/channel.h"
#include "src/bft/message.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "tests/audit_helpers.h"

namespace bftbase {
namespace {

AuditedGroup MakeGroup(ServiceGroup::Params params) {
  AuditedGroup group(new ServiceGroup(
      std::move(params), [](Simulation* sim, NodeId) {
        return std::make_unique<KvAdapter>(sim, 64);
      }));
  group->EnableAudit();
  return group;
}

uint8_t WireType(const Bytes& wire) { return wire.empty() ? 0 : wire[0]; }

// Drives the sequence space exactly to the high watermark (stable_seq +
// log_window) while every CHECKPOINT vote is lost, so no checkpoint can
// stabilize and the window cannot slide. The protocol must neither accept a
// sequence number beyond the watermark nor wedge silently: once checkpoint
// traffic heals, the heartbeat's vote re-broadcast stabilizes a checkpoint,
// the window advances, and the stalled request completes without manual
// intervention.
TEST(ProtocolEdge, WindowFillsToHighWatermarkThenRecovers) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 2;
  params.config.log_window = 4;
  // Keep the view stable: this test is about the window, not view changes.
  params.config.view_change_timeout = 600 * kSecond;
  params.seed = 9001;
  auto group = MakeGroup(std::move(params));

  bool checkpoint_blackout = true;
  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId, Bytes& wire) {
        return !(checkpoint_blackout &&
                 WireType(wire) == static_cast<uint8_t>(MsgType::kCheckpoint));
      });

  // Four single-request batches take seqs 1..4 == stable(0) + log_window(4).
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i, ToBytes("v"))).ok())
        << "op " << i;
  }
  EXPECT_EQ(group->replica(0).last_executed(), 4u);
  // Checkpoints were taken at 2 and 4 but no vote got through.
  EXPECT_EQ(group->replica(0).stable_seq(), 0u);

  // The next request cannot be sequenced: seq 5 is beyond the watermark.
  bool done = false;
  Status status = Unavailable("never completed");
  group->client(0).Invoke(KvAdapter::EncodeSet(9, ToBytes("late")),
                          /*read_only=*/false, [&](Status s, Bytes) {
                            status = std::move(s);
                            done = true;
                          });
  group->sim().RunUntil(group->sim().Now() + 5 * kSecond);
  EXPECT_FALSE(done) << "request was sequenced past the high watermark";
  for (int r = 0; r < group->replica_count(); ++r) {
    EXPECT_EQ(group->replica(r).last_executed(), 4u) << "replica " << r;
  }

  // Heal checkpoint traffic. The null-request heartbeat re-broadcasts each
  // replica's newest checkpoint vote, the checkpoint at seq 4 stabilizes,
  // the window slides to [5, 8], and the stalled request goes through.
  checkpoint_blackout = false;
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 120 * kSecond))
      << "window stayed wedged after checkpoint traffic healed";
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(group->replica(0).stable_seq(), 4u);
  auto get = group->Invoke(KvAdapter::EncodeGet(9));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "late");
}

// Replies to the client are lost; the operation still executes and populates
// the reply cache, so the client's retransmission is answered from the cache.
// Replica 3 corrupts its outgoing replies (f Byzantine) the whole time and is
// deliberately NOT excluded from the audit: corruption must stay on the wire
// only — its cached reply and checkpoints have to remain in agreement.
TEST(ProtocolEdge, RetransmitAfterReplyLossWithCorruptReplies) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 2;
  params.config.log_window = 8;
  params.seed = 9002;
  auto group = MakeGroup(std::move(params));
  group->replica(3).SetCorruptReplies(true);

  const NodeId client_id = group->config().ClientId(0);
  const SimTime blackout_until = group->sim().Now() + 2 * kSecond;
  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId to, Bytes& wire) {
        return !(to == client_id && group->sim().Now() < blackout_until &&
                 WireType(wire) == static_cast<uint8_t>(MsgType::kReply));
      });

  auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("survives")),
                         /*read_only=*/false, 60 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The first delivery attempt was inside the blackout, so the completion
  // necessarily came from a retransmission answered out of the reply cache.
  EXPECT_GE(group->client(0).retries(), 1u);

  // Keep going past a checkpoint so the audited reply-cache digests include
  // the retransmitted operation (replica 3 still corrupting).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeAppend(2, ToBytes("x"))).ok());
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(1));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "survives");
  EXPECT_GT(group->replica(0).stable_seq(), 0u);
}

// A reply that matched an abandoned operation's timestamp must never satisfy
// a later operation: replicas execute op1 but all its replies are captured
// and dropped; the client gives up, starts op2, and the captured op1 replies
// are then replayed at it. The stale-timestamp check has to discard them and
// op2 must complete with its own result.
TEST(ProtocolEdge, ReplayedStaleRepliesCannotCompleteNewOperation) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = 9003;
  auto group = MakeGroup(std::move(params));

  const NodeId client_id = group->config().ClientId(0);
  std::vector<std::pair<NodeId, Bytes>> captured;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (to == client_id &&
            WireType(wire) == static_cast<uint8_t>(MsgType::kReply)) {
          captured.emplace_back(from, wire);
          return false;
        }
        return true;
      });

  // op1 executes on the replicas but the client never learns; it abandons.
  auto r1 = group->Invoke(KvAdapter::EncodeSet(7, ToBytes("first")),
                          /*read_only=*/false, 2 * kSecond);
  EXPECT_FALSE(r1.ok());
  ASSERT_FALSE(captured.empty());
  group->sim().network().SetInterceptor(nullptr);

  // op2 starts, and every captured op1 reply is replayed at the client while
  // op2 is still pending. If the stale replies were accepted, op2 would
  // complete with op1's "OK" instead of the slot's contents.
  bool done = false;
  Status status = Unavailable("never completed");
  Bytes result;
  group->client(0).Invoke(KvAdapter::EncodeGet(7), /*read_only=*/false,
                          [&](Status s, Bytes b) {
                            status = std::move(s);
                            result = std::move(b);
                            done = true;
                          });
  for (const auto& [from, wire] : captured) {
    group->sim().network().Send(from, client_id, wire);
  }
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 60 * kSecond));
  ASSERT_TRUE(status.ok()) << status.ToString();
  // op1 really executed (the slot holds its value), and op2's result is the
  // GET's answer — not a stale SET acknowledgement.
  EXPECT_EQ(ToString(result), "first");
}

// A single Byzantine replica advertises a wildly inflated view in a reply.
// The original regression: the client believed the first higher view it
// saw, then unicast its next request at PrimaryOf(inflated view) — the very
// replica that lied — and had to burn a full retransmission timeout. Clients
// now multicast every attempt and track no view, so this stays as an
// end-to-end check that a liar's view claim costs no timer-driven retry.
TEST(ProtocolEdge, ClientIgnoresViewInflationWithoutQuorumOfAttestations) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9004;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  const NodeId byzantine = 3;

  // The liar also ignores anything unicast only at it: with the inflated
  // view adopted, the next first-attempt request would simply vanish.
  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId to, Bytes& wire) {
        return !(to == byzantine &&
                 WireType(wire) == static_cast<uint8_t>(MsgType::kRequest));
      });

  // op1 (timestamp 1): inject a forged reply claiming view 999 while the
  // operation is in flight; the direct hop beats the ordered protocol, so
  // the claim is on record before op1 completes.
  bool done = false;
  Status status = Unavailable("never completed");
  group->client(0).Invoke(KvAdapter::EncodeSet(1, ToBytes("v")),
                          /*read_only=*/false, [&](Status s, Bytes) {
                            status = std::move(s);
                            done = true;
                          });
  ReplyMsg fake;
  fake.view = 999;
  fake.timestamp = 1;
  fake.client = client_id;
  fake.replica = byzantine;
  fake.result_is_digest = true;
  fake.result = Digest::Of(ToBytes("bogus")).ToBytes();
  Channel forge(&group->sim(), &group->keys(), group->config(), byzantine);
  group->sim().network().Send(
      byzantine, client_id,
      forge.SealMac(MsgType::kReply, fake.Encode(), client_id));
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 30 * kSecond));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // op2 must still go straight to the true primary (replica 0): no
  // retransmissions, completion well inside one retry timeout.
  auto r = group->Invoke(KvAdapter::EncodeGet(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ToString(*r), "v");
  EXPECT_EQ(group->client(0).retries(), 0u);
  EXPECT_LT(group->client(0).last_latency(),
            group->config().client_retry_timeout);
}

// The active variant of the view-inflation regression: the true primary is
// dead, a real view change is in flight, and the liar races it with two
// CONFLICTING inflated view claims — one pointing at the dead replica, one
// at the liar itself. Adopting either single-attestation claim used to aim
// the next request at a black hole and burn a full retransmission timeout.
// With every attempt multicast it stays as an end-to-end check.
TEST(ProtocolEdge, ClientAdoptsQuorumAttestedViewDespiteConflictingClaims) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9007;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  const NodeId byzantine = 3;

  // The liar swallows anything unicast only at it, so a client that believed
  // the claim aiming at the liar would lose its first attempt outright.
  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId to, Bytes& wire) {
        return !(to == byzantine &&
                 WireType(wire) == static_cast<uint8_t>(MsgType::kRequest));
      });

  // op1 (timestamp 1) completes normally in view 0.
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(1, ToBytes("v"))).ok());

  // Kill the primary of view 0; the backups will time out and install
  // view 1 while op2 is in flight.
  group->sim().network().Isolate(0);

  bool done = false;
  Status status = Unavailable("never completed");
  group->client(0).Invoke(KvAdapter::EncodeSet(2, ToBytes("w")),
                          /*read_only=*/false, [&](Status s, Bytes) {
                            status = std::move(s);
                            done = true;
                          });
  // Conflicting claims for op2's timestamp, both signed by the same liar:
  // view 4 would point the client back at the dead replica 0, view 11 at
  // the liar itself. Each has exactly one attestation — below f+1.
  Channel forge(&group->sim(), &group->keys(), group->config(), byzantine);
  for (ViewNum claimed : {ViewNum{4}, ViewNum{11}}) {
    ReplyMsg fake;
    fake.view = claimed;
    fake.timestamp = 2;
    fake.client = client_id;
    fake.replica = byzantine;
    fake.result_is_digest = true;
    fake.result = Digest::Of(ToBytes("bogus")).ToBytes();
    group->sim().network().Send(
        byzantine, client_id,
        forge.SealMac(MsgType::kReply, fake.Encode(), client_id));
  }
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 60 * kSecond));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The correct replicas installed view 1 — not any view the liar claimed.
  EXPECT_EQ(group->replica(1).view(), 1u);
  EXPECT_EQ(group->replica(2).view(), 1u);

  // op3 reaches the primary of the installed view (replica 1): no
  // timer-driven retransmission beyond the ones op2 needed, completion well
  // inside one retry timeout. (Replica 3 is op3's designated replier and,
  // missing the client's copy, answers only after fetching the body, so the
  // client may retransmit once eagerly on a digest quorum.)
  const uint64_t timeout_retries_before = group->client(0).timeout_retries();
  auto r = group->Invoke(KvAdapter::EncodeGet(2), /*read_only=*/false,
                         30 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ToString(*r), "w");
  EXPECT_EQ(group->client(0).timeout_retries(), timeout_retries_before)
      << "client burned a retransmission aiming at a liar-claimed primary";
  EXPECT_LT(group->client(0).last_latency(),
            group->config().client_retry_timeout);
}

// The read-only fast path fails to assemble its 2f+1 quorum and the client
// falls back to the ordered protocol. Votes and full results received during
// the tentative phase stay valid for the timestamp (matching digest means
// matching bytes), so the fallback must keep them. Here the client only ever
// sees the designated replier's TENTATIVE full result and DEFINITIVE digest
// replies — completion is possible only if the fallback preserved the full
// result learned during the tentative phase. The value is longer than a
// digest: shorter results travel in full from every replica.
TEST(ProtocolEdge, ReadOnlyFallbackKeepsVotesAndFullResults) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9005;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);

  // Seed the slot with an ordered write before any interference.
  const Bytes kept(64, 'k');
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(5, kept)).ok());

  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId to, Bytes& wire) {
        if (to != client_id ||
            WireType(wire) != static_cast<uint8_t>(MsgType::kReply)) {
          return true;
        }
        auto parsed = Channel::ParseUnverified(wire);
        if (!parsed.ok()) {
          return true;
        }
        auto reply = ReplyMsg::Decode(parsed->payload);
        if (!reply.ok()) {
          return true;
        }
        if (reply->tentative) {
          return !reply->result_is_digest;  // drop tentative digest replies
        }
        return reply->result_is_digest;  // drop definitive full results
      });

  auto r = group->Invoke(KvAdapter::EncodeGet(5), /*read_only=*/true,
                         /*timeout=*/30 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, kept);
  // Exactly the fallback retransmission, and the operation finished within
  // the fallback round itself — no second backoff was needed.
  EXPECT_EQ(group->client(0).retries(), 1u);
  EXPECT_GE(group->client(0).last_latency(),
            group->config().client_retry_timeout);
  EXPECT_LT(group->client(0).last_latency(),
            2 * group->config().client_retry_timeout);
}

// A digest quorum forms but nobody delivered the full result (the designated
// replier is faulty — modeled on the wire by dropping full-result replies
// until the client retransmits). Replicas answer retransmissions from the
// reply cache with full results, so the client retransmits eagerly ONCE
// instead of idling until the backoff timer fires. The operation is an
// ordered read of a value longer than a digest: shorter results travel in
// full from every replica.
TEST(ProtocolEdge, DigestQuorumWithoutResultRetransmitsEagerly) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9006;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  const Bytes value(64, 'f');
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(2, value)).ok());

  // Attempts are counted at replica 0: each one is multicast.
  int client_requests_seen = 0;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (from == client_id &&
            WireType(wire) == static_cast<uint8_t>(MsgType::kRequest)) {
          client_requests_seen += to == 0 ? 1 : 0;
          return true;
        }
        if (to != client_id || client_requests_seen > 1 ||
            WireType(wire) != static_cast<uint8_t>(MsgType::kReply)) {
          return true;
        }
        auto parsed = Channel::ParseUnverified(wire);
        if (!parsed.ok()) {
          return true;
        }
        auto reply = ReplyMsg::Decode(parsed->payload);
        return !(reply.ok() && !reply->result_is_digest);
      });

  auto r = group->Invoke(KvAdapter::EncodeGet(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, value);
  // The retransmission was the eager one (digest quorum without a result),
  // not the backoff timer: one retry, completion well under the timeout.
  EXPECT_EQ(group->client(0).retries(), 1u);
  EXPECT_LT(group->client(0).last_latency(),
            group->config().client_retry_timeout);
  // The client counts the wait between its vote quorum and the result.
  EXPECT_EQ(group->client(0).result_waits(), 1u);
  EXPECT_GT(group->client(0).result_wait_time(), 0);
}

// A result no longer than a digest travels in full from every replica, so
// the client completes on its first f+1 matching replies and never waits for
// the designated replier. Here that replier (replica 1: the first operation
// carries timestamp 1) answers 50 ms late; on a digest quorum without its
// full result the client would retransmit eagerly.
TEST(ProtocolEdge, SmallResultDoesNotWaitForSlowDesignatedReplier) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9010;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  group->sim().network().AddDelay(/*from=*/1, client_id, 50 * kMillisecond);

  auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("v")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ToString(*r), "OK");
  EXPECT_EQ(group->client(0).retries(), 0u);
  EXPECT_EQ(group->client(0).result_waits(), 0u);
  EXPECT_LT(group->client(0).last_latency(), 50 * kMillisecond);
}

// The same rule on 3-region: a client in the primary's region (region 0,
// with replicas 0 and 3) writes, and the operation's designated replier
// (replica 1) sits a region away. The two local replicas commit after one
// round trip to region 1 (~100 ms) and their full "OK" replies complete the
// operation; the remote full result would land only at ~200 ms.
TEST(ProtocolEdge, SmallResultCompletesOnNearestQuorumAcrossRegions) {
  Topology topo;
  ASSERT_TRUE(TopologyFromName("3-region", &topo));
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.network_rtt_us = topo.MaxRttUs();
  params.seed = 9011;
  auto group = MakeGroup(std::move(params));
  ApplyTopology(group->sim().network(), topo, group->config().node_count());
  const int client = 2;
  ASSERT_EQ(topo.RegionOf(group->config().ClientId(client)), topo.RegionOf(0));
  ASSERT_NE(topo.RegionOf(1), topo.RegionOf(0));

  auto r = group->client(client).InvokeSync(
      KvAdapter::EncodeSet(1, ToBytes("v")), /*read_only=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(group->client(client).retries(), 0u);
  EXPECT_GE(group->client(client).last_latency(), 100 * kMillisecond);
  EXPECT_LT(group->client(client).last_latency(), 130 * kMillisecond);
}

// Reply shape: which replies travel in full. A Set's 2-byte "OK" comes in
// full from all n replicas; a Get of a 64-byte value comes in full from the
// designated replier only and as a digest from the other n-1. Only each
// replica's first reply counts: a retransmission is answered in full from
// the reply cache.
TEST(ProtocolEdge, OnlyResultsLongerThanADigestTravelAsDigests) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9012;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  const int n = group->config().n();

  std::map<NodeId, bool> first_is_digest;  // replica -> its first reply
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (to != client_id ||
            WireType(wire) != static_cast<uint8_t>(MsgType::kReply)) {
          return true;
        }
        auto parsed = Channel::ParseUnverified(wire);
        if (parsed.ok()) {
          auto reply = ReplyMsg::Decode(parsed->payload);
          if (reply.ok()) {
            first_is_digest.emplace(from, reply->result_is_digest);
          }
        }
        return true;
      });
  // Runs one operation, lets the replies that trail its quorum land, and
  // returns {full, digest} first-reply counts.
  auto run = [&](Bytes op, Bytes expected) {
    first_is_digest.clear();
    auto r = group->Invoke(std::move(op));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ok() && *r == expected);
    group->sim().RunUntil(group->sim().Now() + 100 * kMillisecond);
    int digests = 0;
    for (const auto& [replica, is_digest] : first_is_digest) {
      digests += is_digest ? 1 : 0;
    }
    return std::make_pair(static_cast<int>(first_is_digest.size()) - digests,
                          digests);
  };

  const Bytes value(64, 'g');
  EXPECT_EQ(run(KvAdapter::EncodeSet(3, value), ToBytes("OK")),
            std::make_pair(n, 0));
  EXPECT_EQ(run(KvAdapter::EncodeGet(3), value), std::make_pair(1, n - 1));
}

// PBFT's liveness rule (OSDI '99 §4.5.2): a backup starts its view-change
// timer when it receives a request and the timer is not already running.
// The primary is cut off and the client retransmits more often than the
// view-change timeout. If every relayed retransmission restarted the timer,
// a dead primary would be suspected only once the retries thinned out; the
// backups must instead start the view change within one timeout of the
// first request they relayed.
TEST(ProtocolEdge, RetransmissionsDoNotPostponeSuspicion) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.view_change_timeout = kSecond;
  params.config.client_retry_timeout = 100 * kMillisecond;
  params.seed = 9008;
  auto group = MakeGroup(std::move(params));
  group->sim().network().Isolate(0);

  // The first retransmission is the first request a backup sees (and
  // relays); the LAN adds well under a millisecond before it arrives.
  const NodeId client_id = group->config().ClientId(0);
  SimTime first_relay = -1;
  group->sim().network().SetInterceptor([&](NodeId from, NodeId to,
                                            Bytes& wire) {
    if (first_relay < 0 && from == client_id && to == 1 &&
        WireType(wire) == static_cast<uint8_t>(MsgType::kRequest)) {
      first_relay = group->sim().Now();
    }
    return true;
  });
  bool done = false;
  Status status = Unavailable("never completed");
  group->client(0).Invoke(KvAdapter::EncodeSet(1, ToBytes("v")),
                          /*read_only=*/false, [&](Status s, Bytes) {
                            status = std::move(s);
                            done = true;
                          });
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return first_relay >= 0; },
                                        group->sim().Now() + 10 * kSecond));

  const SimTime suspect_by =
      first_relay + group->config().EffectiveViewChangeTimeout() +
      10 * kMillisecond;
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(1).view_changes_started() > 0; },
      suspect_by))
      << "backup 1 relayed at t=" << first_relay
      << "us but did not suspect the primary by t=" << suspect_by << "us";
  EXPECT_GE(group->client(0).retries(), 3u)
      << "the client did not retransmit inside one view-change timeout";

  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 60 * kSecond));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(group->replica(1).view(), 1u);
}

// A replica waiting for a NEW-VIEW keeps its view-change timer across a
// state transfer: that timer is what cascades it to the next view if the
// NEW-VIEW never comes. Replica 3 misses all agreement traffic (and client
// 0's requests), so the one request it holds never executes there and it
// starts a view change alone. It then adopts the group's stable checkpoint
// and fetches it, which retires that request. Finishing the transfer with
// nothing pending used to disarm the timer too, leaving the replica in that
// view change for good (found by FaultSweep's message_loss scenario).
TEST(ProtocolEdge, StateTransferKeepsTheNewViewTimer) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.config.null_request_interval = 0;
  params.seed = 9009;
  auto group = MakeGroup(std::move(params));
  const NodeId client_id = group->config().ClientId(0);
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        const uint8_t type = WireType(wire);
        return !(to == 3 &&
                 (from == client_id ||
                  type == static_cast<uint8_t>(MsgType::kPrePrepare) ||
                  type == static_cast<uint8_t>(MsgType::kPrepare) ||
                  type == static_cast<uint8_t>(MsgType::kCommit)));
      });

  // Seq 1: a request every replica holds; the group executes it, replica 3
  // cannot, and suspects the primary alone.
  const NodeId other_client = group->config().ClientId(1);
  RequestMsg request;
  request.client = other_client;
  request.timestamp = 1;
  request.op = KvAdapter::EncodeSet(9, ToBytes("first"));
  Channel forge(&group->sim(), &group->keys(), group->config(), other_client);
  Bytes wire = forge.SealAuthenticated(MsgType::kRequest, request.Encode());
  for (NodeId r = 0; r < 4; ++r) {
    group->sim().network().Send(other_client, r, wire);
  }
  Replica& lagging = group->replica(3);
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return lagging.in_view_change(); }, group->sim().Now() + kSecond));
  ASSERT_EQ(lagging.view(), 1u);

  // The group reaches checkpoint 8; replica 3 adopts it and fetches it.
  for (uint32_t i = 0; group->replica(0).last_executed() < 8; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i, ToBytes("v"))).ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return lagging.last_executed() >= 8; },
      group->sim().Now() + kSecond));
  ASSERT_TRUE(lagging.in_view_change());
  EXPECT_EQ(lagging.pending_request_count(), 0u);

  // No NEW-VIEW for view 1 will come: the timer must cascade to view 2.
  const uint64_t started = lagging.view_changes_started();
  group->sim().RunUntil(group->sim().Now() +
                        2 * lagging.current_view_change_timeout());
  EXPECT_GT(lagging.view_changes_started(), started)
      << "replica 3 stayed in its view change with no timer";
  EXPECT_GE(lagging.view(), 2u);
}

}  // namespace
}  // namespace bftbase
