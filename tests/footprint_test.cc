// Memory footprint of the BASE layer: what a replica keeps per abstract
// object follows the objects whose value left the cold state, not the size
// of the object array. Live heap bytes come from tests/heap_counter.cc,
// which replaces the global operator new in this binary only.
#include <gtest/gtest.h>

#include <set>

#include "src/base/checkpoint_manager.h"
#include "src/base/kv_adapter.h"
#include "src/base/replica_service.h"
#include "src/sim/storage.h"
#include "src/util/bufpool.h"
#include "src/util/rng.h"
#include "tests/checkpoint_helpers.h"
#include "tests/heap_counter.h"

namespace bftbase {
namespace {

constexpr size_t kSlots = size_t{1} << 18;
constexpr size_t kMiB = size_t{1} << 20;
constexpr size_t kValueBytes = 64;

// Heap bytes held now beyond `baseline`, not counting the retired buffers
// the process-global BufferPool keeps for reuse.
size_t HeldSince(size_t baseline) {
  BufferPool::Clear();
  return heap_counter::LiveBytes() - baseline;
}

size_t Baseline() {
  BufferPool::Clear();
  return heap_counter::LiveBytes();
}

Bytes ValueFor(uint64_t n) {
  Bytes value(kValueBytes);
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<uint8_t>(n * 131 + i);
  }
  return value;
}

// A cold 2^18-slot state costs the dense interior nodes of the partition
// tree and one dirty bit per leaf: ~0.7 MB. A record per object (a 32-byte
// leaf digest and a 24-byte slot) would be ~15 MB.
TEST(Footprint, ColdStateKeepsNoPerObjectRecords) {
  Simulation sim(1);
  const size_t baseline = Baseline();
  KvAdapter adapter(&sim, kSlots);
  CheckpointManager cm(&sim, &adapter);
  const size_t held = HeldSince(baseline);
  EXPECT_LT(held, 3 * kMiB / 2) << held << " bytes";
  EXPECT_EQ(cm.tree().override_count(), 0u);
  EXPECT_EQ(cm.LeafCount(), kSlots + 1);

  // The longest run of equal values becomes the fill, not the first one: a
  // protocol blob in leaf 0 is the only leaf stored.
  cm.FullResync(/*seq=*/0, ToBytes("protocol state"));
  EXPECT_EQ(cm.tree().override_count(), 1u);
}

// 10,000 random Sets of 64-byte values and one checkpoint: the written slots,
// their leaf digests and their copy-on-write snapshots, ~3.5 MB. Records for
// every object would add ~15 MB.
TEST(Footprint, WrittenSlotsAndACheckpointStayUnderSixMiB) {
  Simulation sim(1);
  const size_t baseline = Baseline();
  KvAdapter adapter(&sim, kSlots);
  CheckpointManager cm(&sim, &adapter);
  adapter.SetModifyFn([&cm](size_t object) { cm.OnModify(object); });
  Rng rng(25);
  for (uint64_t n = 0; n < 10000; ++n) {
    const auto slot = static_cast<uint32_t>(rng.NextBelow(kSlots));
    Bytes result = adapter.Execute(KvAdapter::EncodeSet(slot, ValueFor(n)),
                                   /*client=*/100, Bytes(), false);
    ASSERT_EQ(ToString(result), "OK");
  }
  cm.TakeCheckpoint(1, Bytes());
  const size_t held = HeldSince(baseline);
  EXPECT_LT(held, 6 * kMiB) << held << " bytes";
  // Only the written leaves (and the protocol leaf, whose empty blob equals
  // the fill) are stored explicitly.
  EXPECT_GT(cm.tree().override_count(), 9500u);
  EXPECT_LE(cm.tree().override_count(), 10000u);
}

// One single-request batch per write, the way a replica executes and logs it.
void RunBatch(ReplicaService& service, SeqNum seq, uint32_t slot, bool log) {
  Bytes nondet = ReplicaService::EncodeNondet(static_cast<SimTime>(seq) * 100);
  Bytes op = KvAdapter::EncodeSet(slot, ValueFor(seq));
  service.Execute(op, /*client=*/100, nondet, false);
  if (log) {
    service.LogBatch(seq, BytesView(nondet.data(), nondet.size()),
                     {ServiceInterface::ExecutedRequest{100, seq, op}});
  }
}

// Proactive recovery without durable storage saves the leaves that left the
// cold state: 1,000 written slots, half of them since the latest checkpoint,
// cost ~0.2 MB of saved copies. A saved value and digest for every leaf would
// hold ~27 MB. The byte total still counts every leaf, each cold one at the
// fill's (empty) size.
TEST(Footprint, SaveForRecoveryKeepsOnlyWrittenLeaves) {
  Simulation sim(1);
  KvAdapter adapter(&sim, kSlots);
  ReplicaService service(&sim, Config(), 0, &adapter);
  Rng rng(26);
  std::set<uint32_t> written;
  for (SeqNum seq = 1; seq <= 1000; ++seq) {
    const auto slot = static_cast<uint32_t>(rng.NextBelow(kSlots));
    written.insert(slot);
    RunBatch(service, seq, slot, /*log=*/false);
    if (seq == 500) {
      TakeCheckpointNow(sim, service, seq);
    }
  }
  const size_t baseline = Baseline();
  const size_t saved_bytes = service.SaveForRecovery();
  const size_t held = HeldSince(baseline);
  EXPECT_LT(held, kMiB) << held << " bytes";
  EXPECT_EQ(saved_bytes, written.size() * kValueBytes);
}

// A durable replica over a 2^18-slot state with ~4% of it written restarts
// from disk: the checkpoint pages install under the root the header records,
// the WAL tail replays, and the state matches a twin that never crashed,
// while the restarted replica (its storage device included) holds ~4.5 MB.
TEST(Footprint, DurableRestartOverSparseStateInstallsAgreedRoot) {
  constexpr SeqNum kWrites = kSlots / 25;  // 10,485 slots, 4%
  constexpr SeqNum kCheckpointSeq = kWrites - 256;
  std::vector<uint32_t> slots;
  Rng rng(2025);
  for (SeqNum seq = 1; seq <= kWrites; ++seq) {
    slots.push_back(static_cast<uint32_t>(rng.NextBelow(kSlots)));
  }
  Config config;
  Digest expected_root;
  {
    Simulation twin_sim(2);
    KvAdapter twin_adapter(&twin_sim, kSlots);
    ReplicaService twin(&twin_sim, config, 1, &twin_adapter);
    for (SeqNum seq = 1; seq <= kWrites; ++seq) {
      RunBatch(twin, seq, slots[seq - 1], /*log=*/false);
    }
    expected_root = TakeCheckpointNow(twin_sim, twin, kWrites);
  }

  const size_t baseline = Baseline();
  Simulation sim(1);
  StorageDevice dev(&sim, 0);
  KvAdapter adapter(&sim, kSlots);
  ReplicaService::Options options;
  options.storage = &dev;
  ReplicaService service(&sim, config, 0, &adapter, options);
  Digest checkpoint_root;
  for (SeqNum seq = 1; seq <= kWrites; ++seq) {
    RunBatch(service, seq, slots[seq - 1], /*log=*/true);
    if (seq == kCheckpointSeq) {
      checkpoint_root = TakeCheckpointNow(sim, service, seq);
    }
  }

  service.OnCrash();
  auto info = service.RecoverFromStorage();
  ASSERT_TRUE(info.ok);
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.checkpoint_seq, kCheckpointSeq);
  EXPECT_EQ(info.checkpoint_root, checkpoint_root);
  EXPECT_EQ(info.last_seq, kWrites);
  EXPECT_EQ(info.replayed.size(), 256u);
  const size_t held = HeldSince(baseline);
  EXPECT_LT(held, 8 * kMiB) << held << " bytes";
  EXPECT_EQ(TakeCheckpointNow(sim, service, kWrites), expected_root);
}

}  // namespace
}  // namespace bftbase
