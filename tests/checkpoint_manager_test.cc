// Unit tests for the copy-on-write checkpoint manager.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <vector>

#include "src/base/checkpoint_manager.h"
#include "src/base/kv_adapter.h"
#include "src/util/hotpath.h"
#include "src/util/rng.h"
#include "tests/resync_checks.h"

namespace bftbase {
namespace {

class CheckpointManagerTest : public ::testing::Test {
 protected:
  CheckpointManagerTest()
      : sim_(1), adapter_(&sim_, kSlots), cm_(&sim_, &adapter_, false) {
    adapter_.SetModifyFn([this](size_t i) { cm_.OnModify(i); });
  }

  void Set(uint32_t slot, const std::string& value) {
    adapter_.Execute(KvAdapter::EncodeSet(slot, ToBytes(value)), 100, Bytes(),
                     false);
  }

  static constexpr size_t kSlots = 64;
  Simulation sim_;
  KvAdapter adapter_;
  CheckpointManager cm_;
};

TEST_F(CheckpointManagerTest, InitialStateIsCheckpointZero) {
  EXPECT_EQ(cm_.latest_seq(), 0u);
  EXPECT_EQ(cm_.LeafCount(), kSlots + 1);  // +1 protocol leaf
  EXPECT_FALSE(cm_.latest_root().IsZero());
}

TEST_F(CheckpointManagerTest, RootChangesOnlyWhenStateChanges) {
  Digest root0 = cm_.latest_root();
  Set(3, "value");
  Digest root1 = cm_.TakeCheckpoint(10, Bytes()).root;
  EXPECT_NE(root0, root1);
  // A checkpoint with no modifications keeps the same tree content but is a
  // distinct checkpoint (root covers only state, so it stays equal).
  Digest root2 = cm_.TakeCheckpoint(20, Bytes()).root;
  EXPECT_EQ(root1, root2);
}

TEST_F(CheckpointManagerTest, IdenticalHistoriesIdenticalRoots) {
  Simulation sim2(2);
  KvAdapter adapter2(&sim2, kSlots);
  CheckpointManager cm2(&sim2, &adapter2, false);
  adapter2.SetModifyFn([&](size_t i) { cm2.OnModify(i); });

  Set(1, "a");
  Set(2, "b");
  adapter2.Execute(KvAdapter::EncodeSet(1, ToBytes("a")), 5, Bytes(), false);
  adapter2.Execute(KvAdapter::EncodeSet(2, ToBytes("b")), 5, Bytes(), false);

  EXPECT_EQ(cm_.TakeCheckpoint(10, ToBytes("ps")).root,
            cm2.TakeCheckpoint(10, ToBytes("ps")).root);
}

TEST_F(CheckpointManagerTest, ProtocolStateAffectsRoot) {
  Digest with_a = cm_.TakeCheckpoint(10, ToBytes("reply-cache-a")).root;
  Digest with_b = cm_.TakeCheckpoint(20, ToBytes("reply-cache-b")).root;
  EXPECT_NE(with_a, with_b);
  EXPECT_EQ(ToString(cm_.LeafValue(0)), "reply-cache-b");
}

TEST_F(CheckpointManagerTest, CowPreservesCheckpointValue) {
  Set(7, "old");
  cm_.TakeCheckpoint(10, Bytes());
  uint64_t copies_before = cm_.cow_copies_taken();

  Set(7, "new");  // first modification after the checkpoint -> COW copy
  EXPECT_EQ(cm_.cow_copies_taken(), copies_before + 1);
  Set(7, "newer");  // second modification -> no extra copy
  EXPECT_EQ(cm_.cow_copies_taken(), copies_before + 1);

  // The served (checkpoint) value is still the old one; the adapter holds
  // the new one.
  size_t leaf = CheckpointManager::LeafForObject(7);
  EXPECT_EQ(ToString(cm_.LeafValue(leaf)), "old");
  EXPECT_EQ(ToString(adapter_.GetObj(7)), "newer");

  // After the next checkpoint the served value catches up.
  cm_.TakeCheckpoint(20, Bytes());
  EXPECT_EQ(ToString(cm_.LeafValue(leaf)), "newer");
}

TEST_F(CheckpointManagerTest, CurrentLeafDigestTracksLiveState) {
  Set(9, "v1");
  cm_.TakeCheckpoint(10, Bytes());
  size_t leaf = CheckpointManager::LeafForObject(9);
  Digest at_checkpoint = cm_.LeafDigest(leaf);
  EXPECT_EQ(cm_.CurrentLeafDigest(leaf), at_checkpoint);

  Set(9, "v2");
  EXPECT_EQ(cm_.LeafDigest(leaf), at_checkpoint);        // served view
  EXPECT_NE(cm_.CurrentLeafDigest(leaf), at_checkpoint);  // live view
  EXPECT_TRUE(cm_.HasDirtyInRange(leaf, leaf + 1));
  EXPECT_FALSE(cm_.HasDirtyInRange(leaf + 1, leaf + 5));
}

// The dirty leaves answer range queries, list themselves and reach the
// checkpoint in ascending order as a std::set of them would, across the
// word boundaries of the dirty bitmap.
TEST(CheckpointManagerDirty, QueriesMatchAReferenceSet) {
  constexpr size_t kObjects = 1000;
  Simulation sim(3);
  KvAdapter adapter(&sim, kObjects);
  CheckpointManager cm(&sim, &adapter);
  adapter.SetModifyFn([&cm](size_t i) { cm.OnModify(i); });
  Rng rng(26);
  for (SeqNum seq = 1; seq <= 4; ++seq) {
    std::set<size_t> dirty;
    for (int i = 0; i < 40; ++i) {
      const auto object = static_cast<uint32_t>(rng.NextBelow(kObjects));
      adapter.Execute(KvAdapter::EncodeSet(object, ToBytes("v")), 100,
                      Bytes(), false);
      dirty.insert(CheckpointManager::LeafForObject(object));
    }
    EXPECT_EQ(cm.DirtyLeaves(),
              std::vector<size_t>(dirty.begin(), dirty.end()));
    for (int q = 0; q < 2000; ++q) {
      const size_t first = rng.NextBelow(kObjects + 1);
      const size_t last = first + rng.NextBelow(kObjects + 65 - first);
      auto it = dirty.lower_bound(first);
      ASSERT_EQ(cm.HasDirtyInRange(first, last),
                it != dirty.end() && *it < last)
          << "[" << first << ", " << last << ")";
    }
    cm.TakeCheckpoint(seq, Bytes());
    dirty.insert(0);  // the protocol leaf is refreshed at every checkpoint
    EXPECT_EQ(cm.last_checkpoint_updates(),
              std::vector<size_t>(dirty.begin(), dirty.end()));
    EXPECT_TRUE(cm.DirtyLeaves().empty());
    EXPECT_FALSE(cm.HasDirtyInRange(0, kObjects + 1));
  }
}

TEST_F(CheckpointManagerTest, DiscardKeepsLatest) {
  Set(1, "a");
  cm_.TakeCheckpoint(10, Bytes());
  Set(1, "b");
  cm_.TakeCheckpoint(20, Bytes());
  cm_.DiscardBefore(20);
  EXPECT_EQ(cm_.RetainedCheckpoints(), 1u);
  EXPECT_EQ(cm_.latest_seq(), 20u);
  size_t leaf = CheckpointManager::LeafForObject(1);
  EXPECT_EQ(ToString(cm_.LeafValue(leaf)), "b");
}

TEST_F(CheckpointManagerTest, InstallFetchedStateReplacesEverything) {
  Set(5, "mine");
  cm_.TakeCheckpoint(10, Bytes());

  // Build the "remote" state: another manager with different content.
  Simulation sim2(3);
  KvAdapter adapter2(&sim2, kSlots);
  CheckpointManager cm2(&sim2, &adapter2, false);
  adapter2.SetModifyFn([&](size_t i) { cm2.OnModify(i); });
  adapter2.Execute(KvAdapter::EncodeSet(5, ToBytes("theirs")), 5, Bytes(),
                   false);
  adapter2.Execute(KvAdapter::EncodeSet(6, ToBytes("extra")), 5, Bytes(),
                   false);
  Digest remote_root = cm2.TakeCheckpoint(30, ToBytes("remote-ps")).root;

  // Figure out which leaves differ and install them.
  std::vector<ObjectUpdate> updates;
  for (size_t leaf = 0; leaf < cm2.LeafCount(); ++leaf) {
    if (cm_.CurrentLeafDigest(leaf) != cm2.LeafDigest(leaf)) {
      updates.push_back(ObjectUpdate{leaf, cm2.LeafValue(leaf)});
    }
  }
  EXPECT_EQ(updates.size(), 3u);  // slots 5, 6 and the protocol leaf
  Bytes protocol = cm_.InstallFetchedState(30, remote_root, cm2.LeafCount(),
                                           updates);
  EXPECT_EQ(ToString(protocol), "remote-ps");
  EXPECT_EQ(cm_.latest_root(), remote_root);
  EXPECT_EQ(cm_.latest_seq(), 30u);
  EXPECT_EQ(ToString(adapter_.GetObj(5)), "theirs");
  EXPECT_EQ(ToString(adapter_.GetObj(6)), "extra");
}

TEST_F(CheckpointManagerTest, FullCopyModeSnapshotsEverything) {
  Simulation sim2(4);
  KvAdapter adapter2(&sim2, kSlots);
  CheckpointManager full(&sim2, &adapter2, /*full_copy_checkpoints=*/true);
  adapter2.SetModifyFn([&](size_t i) { full.OnModify(i); });
  adapter2.Execute(KvAdapter::EncodeSet(1, ToBytes("x")), 5, Bytes(), false);
  full.TakeCheckpoint(10, Bytes());
  // Full-copy holds all leaves, so snapshot bytes >= the one value written.
  EXPECT_GE(full.CowBytes(), 1u);
  // And the roots agree with the COW manager given the same state.
  Set(1, "x");
  EXPECT_EQ(cm_.TakeCheckpoint(10, Bytes()).root, full.latest_root());
}

// Eight-byte object values: in runs of ten equal values, or all distinct.
std::vector<ObjectUpdate> EqualSizeValues(size_t count, bool runs) {
  std::vector<ObjectUpdate> values;
  for (size_t i = 0; i < count; ++i) {
    char text[9];
    std::snprintf(text, sizeof(text), runs ? "run%05zu" : "val%05zu",
                  runs ? i / 10 : i);
    values.push_back(ObjectUpdate{i, ToBytes(text)});
  }
  return values;
}

TEST(CheckpointManagerResyncTest, RepeatedValuesHashOnceButChargeEveryLeaf) {
  constexpr size_t kObjects = 200;
  const Bytes protocol_state = ToBytes("protocol");  // also eight bytes
  SimTime charged[2] = {};
  for (bool runs : {true, false}) {
    Simulation sim(5);
    KvAdapter adapter(&sim, kObjects);
    CheckpointManager cm(&sim, &adapter, false);
    const std::vector<ObjectUpdate> values = EqualSizeValues(kObjects, runs);
    adapter.PutObjs(values);

    const SimTime start = sim.CurrentHandlerFinishTime();
    const uint64_t invocations = hotpath::counters().sha256_invocations;
    cm.FullResync(/*seq=*/7, protocol_state);
    charged[runs ? 0 : 1] = sim.CurrentHandlerFinishTime() - start;
    if (runs) {
      EXPECT_LT(hotpath::counters().sha256_invocations - invocations,
                cm.LeafCount());
    }

    PartitionTree reference;
    reference.Resize(kObjects + 1);
    reference.SetLeaf(0, Digest::Of(protocol_state));
    for (const ObjectUpdate& value : values) {
      reference.SetLeaf(CheckpointManager::LeafForObject(value.index),
                        Digest::Of(value.value));
    }
    EXPECT_EQ(cm.latest_root(), reference.Root()) << "runs " << runs;
    ASSERT_EQ(cm.LeafCount(), kObjects + 1);
    for (size_t leaf = 0; leaf < cm.LeafCount(); ++leaf) {
      EXPECT_EQ(cm.LeafDigest(leaf), reference.Leaf(leaf))
          << "leaf " << leaf << " runs " << runs;
    }
  }
  EXPECT_GT(charged[0], 0);
  EXPECT_EQ(charged[0], charged[1]);
}

// KvAdapter reports an empty adapter as one run of empty slots and walks
// any other state slot by slot. After every step each reported run holds one
// value, and a FullResync over those runs equals the walk object by object,
// with the protocol blob empty (so leaf 0 and a run of empty slots merge) and
// not.
TEST(CheckpointManagerResyncTest, KvRunsMatchThePerObjectWalk) {
  constexpr size_t kObjects = 200;
  Simulation sim(3);
  KvAdapter adapter(&sim, kObjects);
  auto check = [&](const std::string& step) {
    ASSERT_NO_FATAL_FAILURE(ExpectRunsHoldOneValue(adapter, step));
    for (const Bytes& protocol_state : {Bytes(), ToBytes("protocol")}) {
      ExpectResyncMatchesPerObjectWalk(sim, adapter, protocol_state, step);
    }
  };
  auto execute = [&](const Bytes& op) {
    ASSERT_EQ(ToString(adapter.Execute(op, 100, Bytes(), false)), "OK");
  };

  check("cold");
  EXPECT_EQ(adapter.RunLength(0), kObjects);
  EXPECT_EQ(adapter.RunLength(kObjects - 1), 1u);
  execute(KvAdapter::EncodeSet(0, ToBytes("first")));
  check("slot 0 set");
  execute(KvAdapter::EncodeSet(kObjects - 1, ToBytes("last")));
  check("last slot set");
  execute(KvAdapter::EncodeSet(63, ToBytes("same")));
  execute(KvAdapter::EncodeSet(64, ToBytes("same")));
  check("equal neighbours");
  execute(KvAdapter::EncodeSet(64, Bytes()));
  check("slot set back to empty");
  execute(KvAdapter::EncodeAppend(130, ToBytes("appended")));
  check("append to an empty slot");
  adapter.CorruptSlot(140);
  adapter.CorruptSlot(63);
  check("corrupt slots");
  adapter.RestartClean();
  check("restart clean");
  EXPECT_EQ(adapter.RunLength(0), kObjects);
}

TEST_F(CheckpointManagerTest, LeafDigestsFollowTreeThroughInstall) {
  Set(5, "mine");
  Set(9, "kept");
  cm_.TakeCheckpoint(10, ToBytes("ps-10"));
  Set(5, "changed");  // dirty leaf the install below overwrites
  Set(9, "dirty");    // dirty leaf the install leaves at its live value

  const size_t leaf5 = CheckpointManager::LeafForObject(5);
  const size_t leaf9 = CheckpointManager::LeafForObject(9);
  std::vector<ObjectUpdate> updates = {
      ObjectUpdate{0, ToBytes("ps-20")},
      ObjectUpdate{leaf5, ToBytes("fetched")},
  };
  Simulation sim2(6);
  KvAdapter adapter2(&sim2, kSlots);
  adapter2.PutObjs({ObjectUpdate{5, ToBytes("fetched")},
                    ObjectUpdate{9, ToBytes("dirty")}});
  CheckpointManager target(&sim2, &adapter2, false);
  target.FullResync(20, ToBytes("ps-20"));

  cm_.InstallFetchedState(20, target.latest_root(), kSlots + 1, updates);
  EXPECT_TRUE(cm_.last_install_root_ok());
  EXPECT_EQ(cm_.LeafDigest(leaf9), Digest::Of(ToBytes("dirty")));
  for (size_t leaf = 0; leaf < cm_.LeafCount(); ++leaf) {
    EXPECT_EQ(cm_.LeafDigest(leaf), cm_.tree().Leaf(leaf)) << "leaf " << leaf;
    EXPECT_EQ(cm_.LeafDigest(leaf), target.LeafDigest(leaf))
        << "leaf " << leaf;
  }
}

}  // namespace
}  // namespace bftbase
