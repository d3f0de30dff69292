// Tests for the durable replica state path: the write-ahead log itself
// (framing, checksum chain, torn/duplicated tails, truncate-at-checkpoint),
// ReplicaService recovery (checkpoint load + WAL-tail replay to a byte-
// identical partition-tree root), restart-from-disk at the group level
// (including the poisoned-reply-cache regression and a restarted primary
// rejoining the current view), the kernel-witness-style
// pin that durable mode is invisible in fault-free traces, and replays of
// the two shrunk chaos schedules that exposed real recovery-path safety
// bugs (volatile prepared certificates; P-set loss across view changes).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/replica_service.h"
#include "src/base/service_group.h"
#include "src/base/wal.h"
#include "src/bft/message.h"
#include "src/sim/network.h"
#include "src/sim/storage.h"
#include "src/util/codec.h"
#include "src/workload/chaos.h"
#include "tests/audit_helpers.h"
#include "tests/checkpoint_helpers.h"

namespace bftbase {
namespace {

// --- WAL framing and recovery ------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  WalTest() : sim_(1), dev_(&sim_, 0), wal_(&dev_) {}

  void Append(uint8_t type, uint64_t seq, const std::string& payload) {
    Bytes bytes = ToBytes(payload);
    wal_.Append(type, seq, BytesView(bytes.data(), bytes.size()));
  }

  Simulation sim_;
  StorageDevice dev_;
  WriteAheadLog wal_;
};

TEST_F(WalTest, AppendSyncRecoverRoundTrip) {
  Append(WriteAheadLog::kViewMark, 3, "");
  Append(WriteAheadLog::kBatch, 1, "batch-one");
  Append(WriteAheadLog::kPrepared, 1, "certificate");
  wal_.Sync();

  auto scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.records[0].type, WriteAheadLog::kViewMark);
  EXPECT_EQ(scan.records[0].seq, 3u);
  EXPECT_TRUE(scan.records[0].payload.empty());
  EXPECT_EQ(scan.records[1].type, WriteAheadLog::kBatch);
  EXPECT_EQ(scan.records[1].seq, 1u);
  EXPECT_EQ(ToString(scan.records[1].payload), "batch-one");
  EXPECT_EQ(scan.records[2].type, WriteAheadLog::kPrepared);
  EXPECT_EQ(ToString(scan.records[2].payload), "certificate");
}

TEST_F(WalTest, UnsyncedTailIsLostOnCrash) {
  Append(WriteAheadLog::kBatch, 1, "durable");
  wal_.Sync();
  Append(WriteAheadLog::kBatch, 2, "volatile");
  dev_.Crash();

  auto scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(ToString(scan.records[0].payload), "durable");
  EXPECT_FALSE(scan.torn_tail);  // the lost tail was never on disk

  // The chain resumes cleanly after the cut.
  Append(WriteAheadLog::kBatch, 2, "retried");
  wal_.Sync();
  scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(ToString(scan.records[1].payload), "retried");
}

TEST_F(WalTest, ChecksumDetectsMidLogCorruption) {
  Append(WriteAheadLog::kBatch, 1, "first");
  Append(WriteAheadLog::kBatch, 2, "second");
  Append(WriteAheadLog::kBatch, 3, "third");
  wal_.Sync();

  Bytes image = dev_.ReadLog();
  // Record framing is u32 body_len | u64 checksum | body.
  Decoder prefix(BytesView(image.data(), 4));
  size_t first_len = 12 + prefix.GetU32();
  ASSERT_LT(first_len + 13, image.size());
  image[first_len + 13] ^= 0xff;  // flip a byte inside the second record

  auto scan = WriteAheadLog::Decode(BytesView(image.data(), image.size()));
  ASSERT_EQ(scan.records.size(), 1u);  // decode stops at the corrupt record
  EXPECT_EQ(ToString(scan.records[0].payload), "first");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, first_len);
  EXPECT_EQ(scan.dropped_bytes, image.size() - first_len);
}

TEST_F(WalTest, ChecksumChainPinsRecordPosition) {
  Append(WriteAheadLog::kBatch, 1, "first");
  Append(WriteAheadLog::kBatch, 2, "second");
  wal_.Sync();

  Bytes image = dev_.ReadLog();
  Decoder prefix(BytesView(image.data(), 4));
  size_t first_len = 12 + prefix.GetU32();
  // Reorder the two (individually well-formed) records: the chained checksum
  // rejects the swap because each record's checksum covers its predecessor.
  Bytes swapped(image.begin() + first_len, image.end());
  swapped.insert(swapped.end(), image.begin(), image.begin() + first_len);

  auto scan = WriteAheadLog::Decode(BytesView(swapped.data(), swapped.size()));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.torn_tail);
}

TEST_F(WalTest, TornTailOnCrashIsCutAndRepaired) {
  Append(WriteAheadLog::kBatch, 1, "keep");
  Append(WriteAheadLog::kBatch, 2, "torn");
  wal_.Sync();
  dev_.ArmTornTailOnCrash(3);  // final record loses its last 3 bytes
  dev_.Crash();

  auto scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(ToString(scan.records[0].payload), "keep");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.dropped_bytes, 0u);
  // Recover() repaired the file: the torn suffix is gone from disk.
  EXPECT_EQ(dev_.log_size(), scan.valid_bytes);

  // New appends extend the repaired log and decode cleanly.
  Append(WriteAheadLog::kBatch, 2, "rewritten");
  wal_.Sync();
  scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(ToString(scan.records[1].payload), "rewritten");
  EXPECT_FALSE(scan.torn_tail);
}

TEST_F(WalTest, DuplicatedTailRecordIsRejectedByChain) {
  Append(WriteAheadLog::kBatch, 1, "one");
  Append(WriteAheadLog::kBatch, 2, "two");
  wal_.Sync();
  // A writer that re-appended after an unacknowledged sync: the log ends in
  // two copies of record 2. The duplicate's checksum was computed against
  // record 1, but its predecessor is now record 2 — the chain rejects it.
  dev_.ArmDuplicateTailOnCrash();
  dev_.Crash();

  auto scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(ToString(scan.records[0].payload), "one");
  EXPECT_EQ(ToString(scan.records[1].payload), "two");
  EXPECT_TRUE(scan.torn_tail);  // the duplicate decodes as a corrupt suffix

  // Idempotent: recovering the repaired log again is clean and identical.
  scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST_F(WalTest, TruncateThroughKeepsOnlyWhatRecoveryNeeds) {
  Append(WriteAheadLog::kViewMark, 1, "");
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    Append(WriteAheadLog::kBatch, seq, "batch" + std::to_string(seq));
  }
  Append(WriteAheadLog::kPrepared, 3, "cert3");
  Append(WriteAheadLog::kPrepared, 4, "cert4");
  Append(WriteAheadLog::kStableProof, 2, "proof2");
  Append(WriteAheadLog::kViewMark, 2, "");
  wal_.Sync();

  wal_.TruncateThrough(2);

  auto scan = wal_.Recover();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 6u);
  // The latest view mark and stable proof survive, then the batches and
  // prepared certificates past the checkpoint in original order.
  EXPECT_EQ(scan.records[0].type, WriteAheadLog::kViewMark);
  EXPECT_EQ(scan.records[0].seq, 2u);
  EXPECT_EQ(scan.records[1].type, WriteAheadLog::kStableProof);
  EXPECT_EQ(scan.records[1].seq, 2u);
  EXPECT_EQ(scan.records[2].type, WriteAheadLog::kBatch);
  EXPECT_EQ(scan.records[2].seq, 3u);
  EXPECT_EQ(scan.records[3].type, WriteAheadLog::kBatch);
  EXPECT_EQ(scan.records[3].seq, 4u);
  EXPECT_EQ(scan.records[4].type, WriteAheadLog::kPrepared);
  EXPECT_EQ(scan.records[4].seq, 3u);
  EXPECT_EQ(scan.records[5].type, WriteAheadLog::kPrepared);
  EXPECT_EQ(scan.records[5].seq, 4u);
}

// Regression: truncation at a LOCAL checkpoint (not yet provably stable)
// must not drop prepared certificates above the latest durable stable
// proof. A crash between the local checkpoint and its 2f+1 votes would
// otherwise leave a replica that can neither prove the newer checkpoint nor
// supply the certificates for the gap — re-opening the seed-69 scenario
// where a committed batch's certificate vanishes from every view-change
// quorum.
TEST_F(WalTest, TruncatePreservesPreparedCertsUntilStableProofCovers) {
  Append(WriteAheadLog::kStableProof, 4, "proof4");  // last STABLE checkpoint
  for (uint64_t seq = 5; seq <= 8; ++seq) {
    Append(WriteAheadLog::kBatch, seq, "batch" + std::to_string(seq));
  }
  Append(WriteAheadLog::kPrepared, 6, "cert6");
  Append(WriteAheadLog::kPrepared, 8, "cert8");
  wal_.Sync();

  // Local checkpoint at 8: batches are covered by the checkpoint pages, but
  // the provable stable checkpoint is still 4 — certs 6 and 8 must survive.
  wal_.TruncateThrough(8);
  auto scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, WriteAheadLog::kStableProof);
  EXPECT_EQ(scan.records[0].seq, 4u);
  EXPECT_EQ(scan.records[1].type, WriteAheadLog::kPrepared);
  EXPECT_EQ(scan.records[1].seq, 6u);
  EXPECT_EQ(scan.records[2].type, WriteAheadLog::kPrepared);
  EXPECT_EQ(scan.records[2].seq, 8u);

  // Once the checkpoint at 8 gathers its proof, the certs it covers die on
  // the next truncation.
  Append(WriteAheadLog::kStableProof, 8, "proof8");
  wal_.Sync();
  wal_.TruncateThrough(8);
  scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, WriteAheadLog::kStableProof);
  EXPECT_EQ(scan.records[0].seq, 8u);
}

TEST_F(WalTest, TruncateThroughCanEmptyTheLog) {
  Append(WriteAheadLog::kBatch, 1, "old");
  Append(WriteAheadLog::kBatch, 2, "old");
  wal_.Sync();
  wal_.TruncateThrough(5);
  auto scan = wal_.Recover();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(dev_.log_size(), 0u);
  // Appends still work from the reset chain.
  Append(WriteAheadLog::kBatch, 6, "fresh");
  wal_.Sync();
  scan = wal_.Recover();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 6u);
}

// --- ReplicaService: checkpoint load + WAL replay ----------------------------

// A durable service plus an identical in-memory twin: the twin provides the
// expected partition-tree root the recovered state must reproduce exactly.
class DurableRecoveryTest : public ::testing::Test {
 protected:
  DurableRecoveryTest()
      : sim_(1),
        dev_(&sim_, 0),
        adapter_(&sim_, 32),
        service_(&sim_, config_, 0, &adapter_, WithStorage(&dev_)),
        twin_sim_(2),
        twin_adapter_(&twin_sim_, 32),
        twin_(&twin_sim_, config_, 1, &twin_adapter_) {}

  static ReplicaService::Options WithStorage(StorageDevice* dev) {
    ReplicaService::Options options;
    options.storage = dev;
    return options;
  }

  // Executes one single-request batch the way the replica would: run the op,
  // then make the batch durable (the twin executes without logging).
  void RunBatch(SeqNum seq, uint32_t slot, const std::string& value) {
    Bytes nondet = ReplicaService::EncodeNondet(seq * 1000);
    Bytes op = KvAdapter::EncodeSet(slot, ToBytes(value));
    service_.Execute(op, /*client=*/100, nondet, false);
    service_.LogBatch(seq, BytesView(nondet.data(), nondet.size()),
                      {ServiceInterface::ExecutedRequest{100, seq, op}});
    twin_.Execute(op, /*client=*/100, nondet, false);
  }

  Config config_;
  Simulation sim_;
  StorageDevice dev_;
  KvAdapter adapter_;
  ReplicaService service_;
  Simulation twin_sim_;
  KvAdapter twin_adapter_;
  ReplicaService twin_;
};

TEST_F(DurableRecoveryTest, ReplayRebuildsByteIdenticalState) {
  for (SeqNum seq = 1; seq <= 8; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq % 5), "v" + std::to_string(seq));
  }
  Digest checkpoint_root = TakeCheckpointNow(sim_, service_, 8);  // persists + truncates
  ASSERT_EQ(TakeCheckpointNow(twin_sim_, twin_, 8), checkpoint_root);
  for (SeqNum seq = 9; seq <= 12; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq % 7), "tail" + std::to_string(seq));
  }
  Digest expected_root = TakeCheckpointNow(twin_sim_, twin_, 12);

  service_.OnCrash();
  auto info = service_.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.checkpoint_seq, 8u);
  EXPECT_EQ(info.checkpoint_root, checkpoint_root);
  EXPECT_EQ(info.last_seq, 12u);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.duplicate_records, 0u);
  ASSERT_EQ(info.replayed.size(), 4u);
  EXPECT_EQ(info.replayed[0].client, 100);
  EXPECT_EQ(info.replayed[0].timestamp, 9u);

  // The replayed state is byte-identical: same partition-tree root, same
  // concrete object contents.
  EXPECT_EQ(TakeCheckpointNow(sim_, service_, 12), expected_root);
  for (uint32_t slot = 0; slot < 32; ++slot) {
    EXPECT_EQ(ToString(adapter_.GetObj(slot)),
              ToString(twin_adapter_.GetObj(slot)))
        << "slot " << slot;
  }
}

TEST_F(DurableRecoveryTest, ReplayIsIdempotentOverDuplicateRecords) {
  for (SeqNum seq = 1; seq <= 8; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq % 5), "v" + std::to_string(seq));
  }
  TakeCheckpointNow(sim_, service_, 8);
  TakeCheckpointNow(twin_sim_, twin_, 8);
  // A stale batch record below the checkpoint, as a crash during the
  // truncate-at-checkpoint rewrite would leave behind.
  Bytes nondet = ReplicaService::EncodeNondet(5000);
  service_.LogBatch(5, BytesView(nondet.data(), nondet.size()), {});
  RunBatch(9, 3, "after");
  Digest expected_root = TakeCheckpointNow(twin_sim_, twin_, 9);

  service_.OnCrash();
  auto info = service_.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_EQ(info.duplicate_records, 1u);  // the stale record was skipped
  EXPECT_EQ(info.last_seq, 9u);
  EXPECT_EQ(TakeCheckpointNow(sim_, service_, 9), expected_root);
}

TEST_F(DurableRecoveryTest, TornFinalRecordRecoversToLastDurableBatch) {
  for (SeqNum seq = 1; seq <= 3; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq), "v" + std::to_string(seq));
  }
  dev_.ArmTornTailOnCrash(5);  // the crash tears batch 3's record
  service_.OnCrash();

  auto info = service_.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_FALSE(info.had_checkpoint);  // crashed before the first checkpoint
  EXPECT_TRUE(info.torn_tail);
  EXPECT_EQ(info.last_seq, 2u);
  ASSERT_EQ(info.replayed.size(), 2u);

  Simulation ref_sim(3);
  KvAdapter ref_adapter(&ref_sim, 32);
  ReplicaService ref(&ref_sim, config_, 2, &ref_adapter);
  for (SeqNum seq = 1; seq <= 2; ++seq) {
    Bytes nondet = ReplicaService::EncodeNondet(seq * 1000);
    ref.Execute(KvAdapter::EncodeSet(seq, ToBytes("v" + std::to_string(seq))),
                100, nondet, false);
  }
  EXPECT_EQ(TakeCheckpointNow(sim_, service_, 2), TakeCheckpointNow(ref_sim, ref, 2));
}

TEST_F(DurableRecoveryTest, DuplicatedTailAppendRecoversCleanly) {
  for (SeqNum seq = 1; seq <= 3; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq), "v" + std::to_string(seq));
  }
  Digest expected_root = TakeCheckpointNow(twin_sim_, twin_, 3);
  dev_.ArmDuplicateTailOnCrash();  // batch 3's record appears twice
  service_.OnCrash();

  auto info = service_.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_EQ(info.last_seq, 3u);
  ASSERT_EQ(info.replayed.size(), 3u);  // batch 3 executed exactly once
  EXPECT_EQ(TakeCheckpointNow(sim_, service_, 3), expected_root);
}

// Regression: a crash in the window between a LOCAL checkpoint (pages
// persisted, WAL truncated) and that checkpoint's stabilization (2f+1 votes,
// proof logged) must recover the prepared certificates in the gap
// (proofed_stable_seq, local_checkpoint_seq] — they are all the restarted
// replica can offer view changes for those sequence numbers.
TEST_F(DurableRecoveryTest, CrashBetweenLocalCheckpointAndStabilization) {
  for (SeqNum seq = 1; seq <= 4; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq), "v" + std::to_string(seq));
  }
  TakeCheckpointNow(sim_, service_, 4);
  service_.LogStableProof(4, ToBytes("proof4"));  // checkpoint 4 stabilized
  service_.DiscardCheckpointsBefore(4);
  for (SeqNum seq = 5; seq <= 8; ++seq) {
    RunBatch(seq, static_cast<uint32_t>(seq), "v" + std::to_string(seq));
  }
  service_.LogPrepared(6, ToBytes("cert6"));
  service_.LogPrepared(8, ToBytes("cert8"));
  // Local checkpoint at 8; the crash lands before its votes arrive, so no
  // stable proof at 8 ever reaches the disk.
  TakeCheckpointNow(sim_, service_, 8);

  service_.OnCrash();
  auto info = service_.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_EQ(info.checkpoint_seq, 8u);
  EXPECT_EQ(info.stable_proof_seq, 4u);
  EXPECT_EQ(ToString(info.stable_proof), "proof4");
  ASSERT_EQ(info.prepared_certs.size(), 2u);
  EXPECT_EQ(info.prepared_certs[0].first, 6u);
  EXPECT_EQ(ToString(info.prepared_certs[0].second), "cert6");
  EXPECT_EQ(info.prepared_certs[1].first, 8u);
  EXPECT_EQ(ToString(info.prepared_certs[1].second), "cert8");
}

// --- Group level: restart-from-disk ------------------------------------------

ServiceGroup::Params DurableParams(uint64_t seed = 7) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = seed;
  params.durable_storage = true;
  return params;
}

AuditedGroup MakeDurableKvGroup(ServiceGroup::Params params,
                                size_t slots = 64) {
  AuditedGroup group(new ServiceGroup(params, [slots](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, slots);
  }));
  group->EnableAudit();
  return group;
}

TEST(DurableGroup, CrashedReplicaRestartsFromDiskAndCatchesUp) {
  auto group = MakeDurableKvGroup(DurableParams());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("pre"))).ok());
  }
  group->sim().RunUntil(group->sim().Now() + kSecond);
  SeqNum executed_before = group->replica(2).last_executed();
  ASSERT_GT(executed_before, 0u);

  group->sim().network().Isolate(2);
  group->replica(2).Crash();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("during"))).ok());
  }
  group->sim().network().Heal(2);
  group->replica(2).RestartFromStorage();

  // The restart loaded real bytes from the device and resumed at (at least)
  // the pre-crash durable state, not from scratch.
  EXPECT_EQ(group->storage(2)->crashes(), 1u);
  EXPECT_GT(group->storage(2)->bytes_read(), 0u);
  EXPECT_GE(group->replica(2).last_executed(), executed_before);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("post"))).ok());
  }
  // The restarted replica converges with the group (null requests and
  // checkpoints carry it over any batches it missed while catching up).
  SeqNum target = group->replica(0).last_executed();
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).last_executed() >= target; },
      30 * kSecond));
  for (uint32_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(ToString(group->adapter(2)->GetObj(slot)),
              ToString(group->adapter(0)->GetObj(slot)));
  }
}

// The primary drops out (crashed, or only cut off) while the others install
// view 1, and comes back in view 0 — after a crash from its last durable
// view mark — still believing it is the primary: the NEW-VIEW was multicast
// while it was away. Every request also reaches it, as a client's
// retransmission would, so its first view-0 PRE-PREPARE draws that NEW-VIEW
// from a replica in view 1 and it rejoins the current view. There it still
// lacks the batches committed while it was away, and only the next
// checkpoint fills that gap. Until then it must not depose the primary the
// group keeps following: first under load whose requests arrive further
// apart than the view-change timeout, then with the group idle and only
// null requests committing. Afterwards it executes live batches instead of
// catching up only by state transfer.
void ExpectPrimaryRejoinsCurrentView(bool crash) {
  auto group = MakeDurableKvGroup(DurableParams());
  const NodeId client = group->config().ClientId(0);
  std::vector<Bytes> requests;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes& wire) {
        if (from == client && to != 0 && !wire.empty() &&
            wire[0] == static_cast<uint8_t>(MsgType::kRequest)) {
          requests.push_back(wire);
        }
        return true;
      });
  auto set = [&](int i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("v"))).ok());
    for (const Bytes& wire : requests) {
      group->sim().network().Send(client, 0, wire);
    }
    requests.clear();
  };
  // Stop just past checkpoint 8, so the gap left by the outage is not
  // filled until checkpoint 16.
  for (int i = 0; i < 9; ++i) {
    ASSERT_NO_FATAL_FAILURE(set(i));
  }
  group->sim().network().Isolate(0);
  if (crash) {
    group->replica(0).Crash();
  }
  auto others_in_view_1 = [&] {
    for (int r = 1; r < group->replica_count(); ++r) {
      if (group->replica(r).view() != 1 || group->replica(r).in_view_change()) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 20 && !others_in_view_1(); ++i) {
    ASSERT_NO_FATAL_FAILURE(set(i));
  }
  ASSERT_TRUE(others_in_view_1());
  ASSERT_NO_FATAL_FAILURE(set(0));

  group->sim().network().Heal(0);
  if (crash) {
    group->replica(0).RestartFromStorage();
  }
  Replica& primary = group->replica(0);
  ASSERT_EQ(primary.view(), 0u);
  const uint64_t view_changes = primary.view_changes_started();
  const uint64_t batches = primary.batches_executed();

  ASSERT_NO_FATAL_FAILURE(set(0));
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return primary.view() == 1 && !primary.in_view_change(); },
      group->sim().Now() + kSecond));

  const SimTime pace =
      group->config().EffectiveViewChangeTimeout() + 100 * kMillisecond;
  for (int i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(set(i));
    group->sim().RunUntil(group->sim().Now() + pace);
  }
  ASSERT_LT(primary.last_executed(), group->replica(1).last_executed());
  ASSERT_EQ(primary.batches_executed(), batches) << "the gap closed early";

  EXPECT_TRUE(group->sim().RunUntilTrue(
      [&] { return primary.batches_executed() > batches; },
      group->sim().Now() + 20 * group->config().null_request_interval))
      << "caught up only through state transfer";
  EXPECT_EQ(primary.view_changes_started(), view_changes);
  EXPECT_FALSE(primary.in_view_change());
  EXPECT_EQ(primary.view(), group->replica(1).view());
}

TEST(DurableGroup, RestartedPrimaryRejoinsCurrentView) {
  ExpectPrimaryRejoinsCurrentView(/*crash=*/true);
}

// Same, with the primary only cut off: it keeps its memory, so it is not
// restarted, yet it enters view 1 through a NEW-VIEW it took no part in.
TEST(DurableGroup, PartitionedPrimaryRejoinsCurrentView) {
  ExpectPrimaryRejoinsCurrentView(/*crash=*/false);
}

// Regression: crash-restart in the local-checkpoint-not-yet-stable window,
// at the group level. Replica 2 takes (and persists) its local checkpoint at
// 16 but never sees the CHECKPOINT votes for it, so its provable stable
// checkpoint stays 8. After a crash-restart it must still hold the prepared
// certificates for (8, 16] — its VIEW-CHANGE messages can only claim seq 8,
// and without those certificates the committed batches in the gap would be
// unprovable (and, with overlapping restarts elsewhere, could be replaced by
// null batches in a NEW-VIEW).
TEST(DurableGroup, RestartKeepsCertsWhenLocalCheckpointOutrunsStability) {
  auto group = MakeDurableKvGroup(DurableParams());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("a"))).ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).stable_seq() >= 8; }, 30 * kSecond));
  ASSERT_EQ(group->replica(2).stable_seq(), 8u);

  // From here on, replica 2 sees no CHECKPOINT votes: its own checkpoint at
  // 16 persists to disk but never stabilizes.
  group->sim().network().SetInterceptor(
      [](NodeId, NodeId to, Bytes& payload) {
        return !(to == 2 && !payload.empty() &&
                 payload[0] == static_cast<uint8_t>(MsgType::kCheckpoint));
      });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("b"))).ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).last_executed() >= 17; }, 30 * kSecond));
  ASSERT_EQ(group->replica(2).stable_seq(), 8u);  // still unprovable past 8

  group->replica(2).Crash();
  group->replica(2).RestartFromStorage();

  // Restarted from the durable local checkpoint, provable only through 8 —
  // and every committed sequence number in the gap still has its durable
  // certificate.
  EXPECT_EQ(group->replica(2).stable_seq(), 16u);
  EXPECT_EQ(group->replica(2).proofed_stable_seq(), 8u);
  for (SeqNum seq = 9; seq <= 16; ++seq) {
    EXPECT_TRUE(group->replica(2).has_prepared_cert(seq)) << "seq " << seq;
  }

  // Liveness: with the vote suppression lifted the group (and replica 2's
  // provable checkpoint) advance normally again.
  group->sim().network().SetInterceptor(nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("c"))).ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).proofed_stable_seq() > 16; },
      30 * kSecond));
}

// A checkpoint's pages, header and WAL cut are outputs of its idle-lane job
// (DESIGN.md §12). A replica that crashes after executing the checkpoint
// batch but before that job runs still has the previous checkpoint on disk
// and an uncut log, and restarts from them to the group's stable root.
TEST(DurableGroup, CrashBeforeCheckpointLaneJobKeepsPreviousCheckpoint) {
  auto group = MakeDurableKvGroup(DurableParams(), /*slots=*/4096);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i % 4, ToBytes("a"))).ok());
  }
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).stable_seq() >= 8; }, 30 * kSecond));
  ASSERT_LT(group->replica(2).last_executed(), 16u);

  // Closed-loop Sets until replica 2 has executed batch 16. The predicate is
  // checked after every event, so the run stops right after the handler
  // that executed it, with the checkpoint's lane job queued.
  int completed = 0;
  std::function<void()> issue = [&] {
    group->client(0).Invoke(
        KvAdapter::EncodeSet(static_cast<uint32_t>(completed % 4),
                             ToBytes("b")),
        /*read_only=*/false, [&](Status, Bytes) {
          ++completed;
          issue();
        });
  };
  issue();
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).last_executed() >= 16; }, 30 * kSecond));
  EXPECT_EQ(group->sim().idle_jobs(2), 1u);  // checkpoint 16's digest work
  group->replica(2).Crash();
  EXPECT_EQ(group->sim().idle_jobs(2), 0u);  // dropped with the process

  StorageDevice* dev = group->storage(2);
  Bytes header = dev->ReadHeader();
  Decoder dec(BytesView(header.data(), header.size()));
  EXPECT_EQ(dec.GetU64(), 8u) << "the header must still name checkpoint 8";
  Bytes log = dev->ReadLog();
  std::set<SeqNum> batches;
  for (const WriteAheadLog::Record& record :
       WriteAheadLog::Decode(BytesView(log.data(), log.size())).records) {
    if (record.type == WriteAheadLog::kBatch) {
      batches.insert(record.seq);
    }
  }
  for (SeqNum seq = 9; seq <= 16; ++seq) {
    EXPECT_EQ(batches.count(seq), 1u) << "batch " << seq << " was cut";
  }

  group->replica(2).RestartFromStorage();
  EXPECT_GE(group->replica(2).last_executed(), 16u);
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] {
        const Replica& restarted = group->replica(2);
        const Replica& peer = group->replica(0);
        return peer.stable_seq() >= 24 &&
               restarted.stable_seq() == peer.stable_seq() &&
               restarted.last_executed() >= peer.stable_seq();
      },
      60 * kSecond));
  EXPECT_EQ(group->replica(2).stable_digest(), group->replica(0).stable_digest());
}

// Regression (volatile state surviving restart): the reply cache must be
// rebuilt ONLY from durable state — the checkpoint's protocol-state leaf
// plus replies regenerated by WAL replay. A blob poisoned in memory right
// before the crash must not reappear.
TEST(DurableGroup, ReplyCacheIsRebuiltOnlyFromDurableState) {
  auto group = MakeDurableKvGroup(DurableParams());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(1, ToBytes("x"))).ok());
  }
  group->sim().RunUntil(group->sim().Now() + kSecond);
  size_t cache_before = group->replica(1).reply_cache_size();
  ASSERT_GT(cache_before, 0u);

  // Poison the volatile copy just before the crash.
  group->service(1).SetProtocolState(ToBytes("poisoned-by-test"));
  group->replica(1).Crash();
  group->replica(1).RestartFromStorage();

  EXPECT_EQ(group->replica(1).reply_cache_size(), cache_before);
  EXPECT_NE(ToString(group->service(1).GetProtocolState()),
            "poisoned-by-test");

  // The rebuilt cache still deduplicates: the group keeps serving correctly.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(2, ToBytes("y"))).ok());
  }
  auto get = group->Invoke(KvAdapter::EncodeGet(2));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "y");
}

// Kernel-witness-style pin: with zero storage costs, enabling durable mode
// must be invisible in fault-free runs — byte-identical event traces with
// the WAL on and off. Storage work must never perturb virtual time or
// message order unless the cost model says so.
TEST(DurableGroup, FaultFreeTraceByteIdenticalWalOnAndOff) {
  std::string digests[2];
  uint64_t events[2];
  for (int durable = 0; durable < 2; ++durable) {
    ServiceGroup::Params params = DurableParams(42);
    params.durable_storage = durable == 1;
    ServiceGroup group(params, [](Simulation* sim, NodeId) {
      return std::make_unique<KvAdapter>(sim, 64);
    });
    group.EnableTrace();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          group.Invoke(KvAdapter::EncodeSet(i % 8, ToBytes("same"))).ok());
    }
    digests[durable] = group.sim().trace().digest().Hex();
    events[durable] = group.sim().trace().event_count();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(events[0], events[1]);
}

// --- Chaos regressions: recovery-path safety bugs ----------------------------

// Replays a shrunk chaos repro schedule and requires a fully green run.
void ExpectChaosReproGreen(const std::string& repro) {
  ChaosOptions options;
  std::vector<FaultEvent> schedule;
  ASSERT_TRUE(DecodeChaosRepro(repro, &options, &schedule));
  ChaosRunResult result = RunChaosSchedule(options, schedule);
  EXPECT_TRUE(result.verdict.linearizable) << result.verdict.explanation;
  EXPECT_EQ(result.invariant_violations, 0u)
      << result.first_invariant_violation;
}

// Volatile prepared certificates (found at chaos seed 69, shrunk to three
// events): replica 3 reboots through proactive recovery while replicas 2 and
// 0 crash-restart in overlapping windows. Before prepared certificates were
// persisted to the WAL (kPrepared records, synced before the COMMIT is
// sent), the view-change quorum {0,1,2} held no certificate for a batch the
// group had already committed at seq 35, and the NEW-VIEW re-proposed a
// different batch at that sequence number — committed cross-view divergence.
TEST(ChaosRegression, OverlappingCrashRestartsKeepCommittedBatches) {
  ExpectChaosReproGreen(
      "seed 69\n"
      "clients 3\n"
      "ops-per-client 10\n"
      "files 4\n"
      "op-gap-us 50000\n"
      "op-timeout-us 2000000\n"
      "fault-window-start-us 200000\n"
      "fault-window-us 1500000\n"
      "drain-deadline-us 300000000\n"
      "event 350367 proactive-recovery 3 0 -1 0 0 0\n"
      "event 572881 crash+restart 2 167101 -1 0 0 0\n"
      "event 1102265 crash+restart 0 1312924 -1 0 0 0\n");
}

// P-set loss across view changes (found at chaos seed 147, shrunk to three
// events — no crashes at all): under a partition, a proactive recovery and a
// 15% drop burst, entries prepared in view v never re-prepared in views
// v+1/v+2 because EnterNewView cleared the per-view log, and the retained
// promises stopped flowing into later VIEW-CHANGE messages. The view-3
// NEW-VIEW then re-proposed a null batch at an executed sequence number.
// Fixed by the prepared_certs_ set retained across view changes (pruned only
// at the stable checkpoint).
TEST(ChaosRegression, PreparedPromisesSurviveCascadedViewChanges) {
  ExpectChaosReproGreen(
      "seed 147\n"
      "clients 3\n"
      "ops-per-client 10\n"
      "files 4\n"
      "op-gap-us 50000\n"
      "op-timeout-us 2000000\n"
      "fault-window-start-us 200000\n"
      "fault-window-us 1500000\n"
      "drain-deadline-us 300000000\n"
      "event 312485 partition 0 174806 -1 5 0 0\n"
      "event 408666 proactive-recovery 0 0 -1 0 0 0\n"
      "event 844012 drop-burst 0 1056334 -1 0 152256 0\n");
}

}  // namespace
}  // namespace bftbase
