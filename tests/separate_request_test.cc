// Separate request transmission (DESIGN.md §6): clients multicast request
// bodies, PRE-PREPAREs order digests, and a replica that lacks a listed body
// FETCHes it. These cover the fetch path and its two acceptance rules (the
// client's authenticator for a batch this replica has yet to prepare, a
// digest match for a batch a quorum vouched for), the per-client pending
// cap, and restart from the durable certificate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/bft/channel.h"
#include "src/bft/message.h"
#include "src/sim/network.h"
#include "tests/audit_helpers.h"

namespace bftbase {
namespace {

AuditedGroup MakeGroup(uint64_t seed, bool durable = false) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = seed;
  params.durable_storage = durable;
  AuditedGroup group(new ServiceGroup(
      std::move(params), [](Simulation* sim, NodeId) {
        return std::make_unique<KvAdapter>(sim, 64);
      }));
  group->EnableAudit();
  return group;
}

bool IsType(const Bytes& wire, MsgType type) {
  return !wire.empty() && wire[0] == static_cast<uint8_t>(type);
}

// Starts `op` on client 0 without waiting; `done` flips on completion.
void InvokeAsync(ServiceGroup& group, Bytes op, bool* done) {
  group.client(0).Invoke(std::move(op), /*read_only=*/false,
                         [done](Status s, Bytes) {
                           EXPECT_TRUE(s.ok()) << s.ToString();
                           *done = true;
                         });
}

uint64_t TotalViewChanges(ServiceGroup& group) {
  uint64_t total = 0;
  for (int r = 0; r < group.replica_count(); ++r) {
    total += group.replica(r).view_changes_started();
  }
  return total;
}

// The client's copies reach only the primary. Each backup accepts the
// PRE-PREPARE, finds the bodies missing and fetches them from the primary,
// whose FETCH-REPLY carries the client's envelopes; the backup checks the
// client's authenticator itself and prepares. No view change and no
// timer-driven retransmission. (The primary answers the three FETCHes one
// after another, so the designated replier may execute last; the client then
// retransmits once eagerly on a digest quorum, which the reply cache
// answers.)
TEST(SeparateRequest, BackupsFetchBodiesTheClientsCopiesMissed) {
  auto group = MakeGroup(9101);
  const NodeId client_id = group->config().ClientId(0);
  int fetch_replies_from_primary = 0;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        fetch_replies_from_primary +=
            from == 0 && IsType(wire, MsgType::kFetchReply) ? 1 : 0;
        return !(from == client_id && to != 0 &&
                 IsType(wire, MsgType::kRequest));
      });

  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i, ToBytes("v"))).ok());
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(2));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "v");
  EXPECT_GT(fetch_replies_from_primary, 0);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GT(group->sim().metrics().Get("replica.fetches_sent", r), 0u)
        << "replica " << r;
  }
  EXPECT_EQ(group->client(0).timeout_retries(), 0u);
  EXPECT_LT(group->client(0).last_latency(),
            group->config().client_retry_timeout);
  EXPECT_EQ(TotalViewChanges(*group), 0u);
  for (int r = 0; r < group->replica_count(); ++r) {
    EXPECT_EQ(group->replica(r).last_executed(), 4u) << "replica " << r;
  }
}

// A faulty primary pre-prepares a digest no client sent, and answers the
// backups' FETCHes with a body under that digest whose client authenticator
// it had to forge. No correct backup takes the body or prepares; their
// view-change timers depose the primary and the group keeps serving in
// view 1.
TEST(SeparateRequest, PrimaryListingAnUnsentDigestIsDeposed) {
  auto group = MakeGroup(9102);
  group->auditor()->MarkFaulty(0);
  const NodeId client_id = group->config().ClientId(1);
  RequestMsg fabricated;
  fabricated.client = client_id;
  fabricated.timestamp = 1;
  fabricated.op = KvAdapter::EncodeSet(1, ToBytes("never sent"));
  Channel forger(&group->sim(), &group->keys(), group->config(), client_id);
  forger.CorruptOutgoingAuth(true);  // the primary lacks the client's keys
  FetchReplyMsg answer;
  answer.request_wires.push_back(
      forger.SealAuthenticated(MsgType::kRequest, fabricated.Encode()));

  PrePrepareMsg forged;
  forged.view = 0;
  forged.seq = 1;
  forged.request_digests = {fabricated.ComputeDigest()};
  const Digest forged_digest = forged.ComputeDigest();

  int forged_prepares = 0;
  group->sim().network().SetInterceptor(
      [&](NodeId, NodeId, Bytes& wire) {
        if (IsType(wire, MsgType::kPrepare)) {
          auto env = Channel::ParseUnverified(wire);
          auto prepare = PrepareMsg::Decode(env->payload);
          forged_prepares +=
              prepare.ok() && prepare->digest == forged_digest ? 1 : 0;
        }
        return true;
      });
  Channel primary(&group->sim(), &group->keys(), group->config(), 0);
  Bytes wire = primary.SealSigned(MsgType::kPrePrepare, forged.Encode());
  for (NodeId r = 1; r < 4; ++r) {
    group->sim().network().Send(0, r, wire);
  }
  group->sim().RunUntil(group->sim().Now() + 10 * kMillisecond);
  for (NodeId r = 1; r < 4; ++r) {
    group->sim().network().Send(
        0, r, primary.SealMac(MsgType::kFetchReply, answer.Encode(), r));
  }

  auto backups_in_view_1 = [&] {
    for (int r = 1; r < group->replica_count(); ++r) {
      if (group->replica(r).view() != 1 ||
          group->replica(r).in_view_change()) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(group->sim().RunUntilTrue(backups_in_view_1,
                                        group->sim().Now() + 10 * kSecond));
  EXPECT_EQ(forged_prepares, 0);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(group->replica(r).stored_request_count(), 0u) << "replica " << r;
  }
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i, ToBytes("w"))).ok());
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(1));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "w");
  EXPECT_EQ(forged_prepares, 0);
}

// A faulty client multicasts two bodies under one timestamp, and half the
// replicas see each first. The primary orders the first body it got; the
// backups holding the other fetch it and check its authenticator. Exactly
// one executes, no view change follows, and every pending set drains: the
// losing body is dropped once the client's execution passes its timestamp.
TEST(SeparateRequest, TwoBodiesUnderOneTimestampExecuteOnce) {
  auto group = MakeGroup(9103);
  const NodeId liar = group->config().ClientId(1);
  Channel forge(&group->sim(), &group->keys(), group->config(), liar);
  auto seal = [&](const char* value) {
    RequestMsg request;
    request.client = liar;
    request.timestamp = 1;
    request.op = KvAdapter::EncodeSet(5, ToBytes(value));
    return forge.SealAuthenticated(MsgType::kRequest, request.Encode());
  };
  const Bytes a = seal("a");
  const Bytes b = seal("b");
  for (NodeId r = 0; r < 4; ++r) {
    group->sim().network().Send(liar, r, r < 2 ? a : b);
  }
  for (NodeId r = 0; r < 4; ++r) {
    group->sim().network().Send(liar, r, r < 2 ? b : a);
  }
  group->sim().RunUntil(group->sim().Now() + 2 * kSecond);

  for (int r = 0; r < group->replica_count(); ++r) {
    EXPECT_EQ(group->replica(r).requests_executed(), 1u) << "replica " << r;
    EXPECT_EQ(group->replica(r).pending_request_count(), 0u)
        << "replica " << r;
  }
  EXPECT_EQ(TotalViewChanges(*group), 0u);
  auto get = group->Invoke(KvAdapter::EncodeGet(5));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "a");
}

// A FETCH that lists one digest kMaxBatch times, from an authenticated
// but faulty replica, is answered with that body once.
TEST(SeparateRequest, RepeatedDigestsInAFetchAreAnsweredOnce) {
  auto group = MakeGroup(9107);
  const NodeId client_id = group->config().ClientId(0);
  Bytes body;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId, Bytes& wire) {
        if (body.empty() && from == client_id &&
            IsType(wire, MsgType::kRequest)) {
          body = wire;
        }
        return true;
      });
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(1, ToBytes("v"))).ok());
  auto request = RequestMsg::Decode(Channel::ParseUnverified(body)->payload);
  ASSERT_TRUE(request.ok());

  std::vector<size_t> answers;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (from == 0 && to == 3 && IsType(wire, MsgType::kFetchReply)) {
          auto reply = FetchReplyMsg::Decode(
              Channel::ParseUnverified(wire)->payload);
          answers.push_back(reply.ok() ? reply->request_wires.size() : 0);
        }
        return true;
      });
  FetchMsg fetch;
  fetch.request_digests.assign(kMaxBatch, request->ComputeDigest());
  Channel faulty(&group->sim(), &group->keys(), group->config(), 3);
  group->sim().network().Send(
      3, 0, faulty.SealMac(MsgType::kFetch, fetch.Encode(), 0));
  group->sim().RunUntil(group->sim().Now() + 100 * kMillisecond);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], 1u);
}

// A replica keeps at most one pending request per client: a client that
// floods new timestamps at the backups (so nothing gets ordered) leaves
// each of them holding only its newest body.
TEST(SeparateRequest, ClientFloodKeepsOnePendingRequestPerClient) {
  auto group = MakeGroup(9104);
  const NodeId flooder = group->config().ClientId(1);
  Channel forge(&group->sim(), &group->keys(), group->config(), flooder);
  for (uint64_t ts = 1; ts <= 50; ++ts) {
    RequestMsg request;
    request.client = flooder;
    request.timestamp = ts;
    request.op = KvAdapter::EncodeSet(1, ToBytes(std::to_string(ts)));
    Bytes wire = forge.SealAuthenticated(MsgType::kRequest, request.Encode());
    for (NodeId r = 1; r < 4; ++r) {
      group->sim().network().Send(flooder, r, wire);
    }
  }
  group->sim().RunUntil(group->sim().Now() + 10 * kMillisecond);
  for (int r = 1; r < group->replica_count(); ++r) {
    EXPECT_EQ(group->replica(r).pending_request_count(), 1u)
        << "replica " << r;
    EXPECT_EQ(group->replica(r).stored_request_count(), 1u)
        << "replica " << r;
  }
}

// Replica 3 prepares a batch, then crashes before any COMMIT gets through
// and restarts from disk; the client's retransmissions no longer reach it.
// Its durable prepared certificate carries the batch's client envelopes, so
// when the next view re-proposes the batch it executes it without asking
// any peer for a body.
TEST(SeparateRequest, RestartExecutesPreparedBatchFromDurableCertificate) {
  auto group = MakeGroup(9105, /*durable=*/true);
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("warm"))).ok());
  const SeqNum seq = group->replica(3).last_executed() + 1;
  const NodeId client_id = group->config().ClientId(0);

  bool block_commits = true;
  bool restarted = false;
  int fetches_from_3 = 0;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        fetches_from_3 += from == 3 && IsType(wire, MsgType::kFetch) ? 1 : 0;
        if (restarted && from == client_id && to == 3) {
          return false;
        }
        return !(block_commits && IsType(wire, MsgType::kCommit));
      });
  bool done = false;
  InvokeAsync(*group, KvAdapter::EncodeSet(1, ToBytes("kept")), &done);
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(3).has_prepared_cert(seq); },
      group->sim().Now() + kSecond));
  ASSERT_LT(group->replica(3).last_executed(), seq);

  group->replica(3).Crash();
  group->replica(3).RestartFromStorage();
  restarted = true;
  ASSERT_TRUE(group->replica(3).has_prepared_cert(seq));
  // Both batches' bodies (the warm-up's too) came back from the record.
  EXPECT_EQ(group->replica(3).stored_request_count(), 2u);
  block_commits = false;
  group->sim().network().Isolate(0);

  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return done && group->replica(3).last_executed() >= seq; },
      group->sim().Now() + 30 * kSecond));
  EXPECT_EQ(group->replica(3).view(), 1u);
  EXPECT_EQ(fetches_from_3, 0);
  EXPECT_EQ(ToString(group->adapter(3)->GetObj(1)), "kept");
}

// Replica 3 never sees the client's copy nor the view-0 PRE-PREPARE, and
// nothing commits in view 0. The client's keys are then refreshed, so the
// envelope the others hold no longer passes replica 3's MAC check. View 1
// re-proposes the batch from the prepared certificates; replica 3 fetches
// the body and takes it because its digest matches the certified batch.
TEST(SeparateRequest, ReproposedBodyFetchedAfterKeyRefreshIsTakenOnDigest) {
  auto group = MakeGroup(9106);
  const NodeId client_id = group->config().ClientId(0);
  bool block_commits = true;
  Bytes client_copy;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (from == client_id && IsType(wire, MsgType::kRequest)) {
          if (client_copy.empty() && to == 1) {
            client_copy = wire;
          }
          return to != 3;
        }
        if (to == 3 && IsType(wire, MsgType::kPrePrepare)) {
          return false;
        }
        return !(block_commits && IsType(wire, MsgType::kCommit));
      });
  bool done = false;
  InvokeAsync(*group, KvAdapter::EncodeSet(2, ToBytes("certified")), &done);
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] {
        return group->replica(1).has_prepared_cert(1) &&
               group->replica(2).has_prepared_cert(1);
      },
      group->sim().Now() + kSecond));
  ASSERT_FALSE(client_copy.empty());

  group->keys().RefreshKeysFor(client_id);
  Channel replica3(&group->sim(), &group->keys(), group->config(), 3);
  ASSERT_FALSE(replica3.Open(client_copy).ok())
      << "the held envelope should fail the refreshed MAC check";
  block_commits = false;
  group->sim().network().Isolate(0);

  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return done && group->replica(3).last_executed() >= 1; },
      group->sim().Now() + 30 * kSecond));
  EXPECT_EQ(group->replica(3).view(), 1u);
  EXPECT_EQ(ToString(group->adapter(3)->GetObj(2)), "certified");
}

}  // namespace
}  // namespace bftbase
