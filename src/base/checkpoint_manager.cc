#include "src/base/checkpoint_manager.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"
#include "src/util/log.h"
#include "src/util/workerpool.h"

namespace bftbase {

CheckpointManager::CheckpointManager(Simulation* sim, ServiceAdapter* adapter,
                                     bool full_copy_checkpoints)
    : sim_(sim), adapter_(adapter), full_copy_(full_copy_checkpoints) {
  FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
}

void CheckpointManager::ChargeDigest(size_t bytes) {
  sim_->ChargeCpu(sim_->cost().DigestCost(bytes));
}

void CheckpointManager::OnModify(size_t object_index) {
  size_t leaf = LeafForObject(object_index);
  if (leaf >= leaf_count_) {
    // A brand-new object: it has no value at the previous checkpoint, so
    // there is nothing to copy; the leaf array grows at the next checkpoint.
    new_leaves_.insert(leaf);
    return;
  }
  if (!dirty_.insert(leaf).second) {
    return;  // already copied for the current checkpoint interval
  }
  if (full_copy_) {
    return;  // no COW: the next checkpoint snapshots everything anyway
  }
  // First modification since the latest checkpoint: snapshot the value the
  // object had at that checkpoint (it has not been modified since, so the
  // current abstract value IS the checkpoint value).
  auto it = checkpoints_.find(latest_seq_);
  assert(it != checkpoints_.end());
  ++cow_copies_taken_;
  it->second.cow.emplace(leaf, adapter_->GetObj(object_index));
}

CheckpointManager::Taken CheckpointManager::TakeCheckpoint(
    SeqNum seq, const Bytes& protocol_state) {
  assert(seq > latest_seq_);
  // Account for array growth since the previous checkpoint.
  size_t new_leaf_count = adapter_->ObjectCount() + 1;
  if (new_leaf_count > leaf_count_) {
    for (size_t leaf = leaf_count_; leaf < new_leaf_count; ++leaf) {
      dirty_.insert(leaf);
    }
    leaf_count_ = new_leaf_count;
    tree_.Resize(leaf_count_);
  }
  new_leaves_.clear();

  protocol_state_ = protocol_state;
  dirty_.insert(0);
  const SimTime node_cost =
      sim_->cost().DigestCost(tree_.branching() * Digest::kSize);
  Taken taken;

  if (full_copy_) {
    // Ablation mode (bench E4): snapshot the entire abstract state.
    Checkpoint full;
    full.seq = seq;
    full.leaf_count = leaf_count_;
    for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
      Bytes value = leaf == 0 ? protocol_state_
                              : adapter_->GetObj(ObjectForLeaf(leaf));
      taken.digest_cpu += sim_->cost().DigestCost(value.size());
      tree_.SetLeaf(leaf, Digest::Of(value));
      full.cow.emplace(leaf, std::move(value));
    }
    taken.root = tree_.Root();
    taken.digest_cpu +=
        static_cast<SimTime>(tree_.TakeRecomputedNodes()) * node_cost;
    full.root = taken.root;
    latest_seq_ = seq;
    latest_root_ = taken.root;
    checkpoints_.emplace(seq, std::move(full));
    last_checkpoint_updates_.clear();
    for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
      last_checkpoint_updates_.push_back(leaf);
    }
    dirty_.clear();
    return taken;
  }

  // Copy-on-write mode: only leaves touched since the previous checkpoint
  // need their digest recomputed; they are digested as interleaved SHA-256
  // lanes (same digests, simulated charges and logical-work counters as one
  // Digest::Of per leaf).
  std::vector<size_t> leaves(dirty_.begin(), dirty_.end());
  std::vector<Bytes> values;
  std::vector<BytesView> views;
  values.reserve(leaves.size());
  views.reserve(leaves.size());
  for (size_t leaf : leaves) {
    values.push_back(leaf == 0 ? protocol_state_
                               : adapter_->GetObj(ObjectForLeaf(leaf)));
    taken.digest_cpu += sim_->cost().DigestCost(values.back().size());
    views.emplace_back(values.back().data(), values.back().size());
  }
  std::vector<std::array<uint8_t, Digest::kSize>> digests(leaves.size());
  // Epilogue sharding: DigestMany processes inputs in independent groups of
  // kMaxLanes in order, so splitting the leaf range at lane-multiple
  // boundaries produces byte-identical digests AND identical logical-work
  // counters per chunk. Chunks run as worker-pool jobs (inline at the join
  // when the pool has no threads); `values`/`views`/`digests` outlive the
  // joins below, and the merge order is the fixed leaf order regardless of
  // which worker finished first.
  constexpr size_t kChunk = 8 * sha256_multi::kMaxLanes;
  const size_t count = leaves.size();
  if (count > kChunk) {
    std::vector<WorkerPool::JobRef> jobs;
    jobs.reserve(count / kChunk + 1);
    for (size_t off = 0; off < count; off += kChunk) {
      const size_t len = std::min(kChunk, count - off);
      const BytesView* in = views.data() + off;
      uint8_t(*out)[Digest::kSize] =
          reinterpret_cast<uint8_t(*)[Digest::kSize]>(digests.data() + off);
      ++hotpath::counters().pool_digest_shard_jobs;
      jobs.push_back(WorkerPool::Global().Submit(
          [in, out, len] { sha256_multi::DigestMany(in, out, len); }));
    }
    for (const WorkerPool::JobRef& job : jobs) {
      WorkerPool::Global().Join(job);
    }
  } else {
    sha256_multi::DigestMany(
        views.data(),
        reinterpret_cast<uint8_t(*)[Digest::kSize]>(digests.data()), count);
  }
  for (size_t i = 0; i < count; ++i) {
    tree_.SetLeaf(leaves[i], Digest(digests[i]));
  }
  taken.root = tree_.Root();
  taken.digest_cpu +=
      static_cast<SimTime>(tree_.TakeRecomputedNodes()) * node_cost;

  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = taken.root;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
  latest_seq_ = seq;
  latest_root_ = taken.root;
  last_checkpoint_updates_.assign(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return taken;
}

void CheckpointManager::DiscardBefore(SeqNum seq) {
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.lower_bound(seq));
  // Never drop the latest checkpoint: it is what we serve.
  if (checkpoints_.empty()) {
    Checkpoint checkpoint;
    checkpoint.seq = latest_seq_;
    checkpoint.root = latest_root_;
    checkpoint.leaf_count = leaf_count_;
    checkpoints_.emplace(latest_seq_, std::move(checkpoint));
  }
}

Digest CheckpointManager::LeafDigest(size_t index) {
  assert(index < leaf_count_);
  return tree_.Leaf(index);
}

Bytes CheckpointManager::LeafValue(size_t index) {
  assert(index < leaf_count_);
  // If the leaf was modified after the latest checkpoint, its checkpoint
  // value lives in the latest checkpoint's COW set.
  auto cp_it = checkpoints_.find(latest_seq_);
  if (cp_it != checkpoints_.end()) {
    auto cow_it = cp_it->second.cow.find(index);
    if (cow_it != cp_it->second.cow.end()) {
      return cow_it->second;
    }
  }
  if (index == 0) {
    return protocol_state_;
  }
  return adapter_->GetObj(ObjectForLeaf(index));
}

Digest CheckpointManager::CurrentLeafDigest(size_t index) {
  assert(index < leaf_count_);
  if (dirty_.count(index) == 0) {
    return tree_.Leaf(index);
  }
  if (index == 0) {
    // The live protocol blob is refreshed only at checkpoints; its current
    // digest equals the checkpointed one.
    return tree_.Leaf(index);
  }
  Bytes value = adapter_->GetObj(ObjectForLeaf(index));
  ChargeDigest(value.size());
  return Digest::Of(value);
}

bool CheckpointManager::HasDirtyInRange(size_t first, size_t last) const {
  auto it = dirty_.lower_bound(first);
  return it != dirty_.end() && *it < last;
}

Bytes CheckpointManager::InstallFetchedState(
    SeqNum seq, const Digest& root, size_t leaf_count,
    const std::vector<ObjectUpdate>& leaf_updates) {
  if (leaf_count > leaf_count_) {
    leaf_count_ = leaf_count;
    tree_.Resize(leaf_count_);
  }

  std::vector<ObjectUpdate> object_updates;
  object_updates.reserve(leaf_updates.size());
  for (const ObjectUpdate& update : leaf_updates) {
    assert(update.index < leaf_count_);
    ChargeDigest(update.value.size());
    tree_.SetLeaf(update.index, Digest::Of(update.value));
    if (update.index == 0) {
      protocol_state_ = update.value;
    } else {
      object_updates.push_back(
          ObjectUpdate{ObjectForLeaf(update.index), update.value});
    }
  }
  // One consistent put_objs call, as the library guarantees (paper §2.2).
  adapter_->PutObjs(object_updates);

  // Leaves modified since our last checkpoint whose LIVE value already
  // matched the target were (correctly) not fetched, but the tree still
  // holds their stale checkpoint digests; refresh them so the recomputed
  // root reflects the installed state.
  std::set<size_t> updated;
  for (const ObjectUpdate& update : leaf_updates) {
    updated.insert(update.index);
  }
  for (size_t leaf : dirty_) {
    if (leaf >= leaf_count_ || updated.count(leaf) > 0) {
      continue;
    }
    Bytes value =
        leaf == 0 ? protocol_state_ : adapter_->GetObj(ObjectForLeaf(leaf));
    ChargeDigest(value.size());
    tree_.SetLeaf(leaf, Digest::Of(value));
  }

  Digest recomputed = tree_.Root();
  tree_.TakeRecomputedNodes();
  last_install_root_ok_ = recomputed == root;
  if (recomputed != root) {
    // All individual values were digest-verified during the fetch, so a root
    // mismatch means our presumed-matching leaves did not actually match.
    // This fires only if local state was corrupted undetectably; log loudly.
    LOG_ERROR << "state install: root mismatch after fetch (have "
              << recomputed.Hex() << ", want " << root.Hex() << ")";
  }

  dirty_.clear();
  new_leaves_.clear();
  last_checkpoint_updates_.clear();
  checkpoints_.clear();
  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = root;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
  latest_seq_ = seq;
  latest_root_ = root;
  return protocol_state_;
}

void CheckpointManager::FullResync(SeqNum seq, const Bytes& protocol_state) {
  leaf_count_ = adapter_->ObjectCount() + 1;
  tree_.Resize(leaf_count_);
  protocol_state_ = protocol_state;
  // A cold state repeats values leaf after leaf (empty slots, free inodes),
  // so a leaf whose value equals its predecessor's reuses that digest. The
  // model still charges one digest per leaf: only real hashing is skipped.
  Bytes previous;
  Digest previous_digest;
  for (size_t leaf = 0; leaf < leaf_count_; ++leaf) {
    Bytes value =
        leaf == 0 ? protocol_state_ : adapter_->GetObj(ObjectForLeaf(leaf));
    ChargeDigest(value.size());
    if (leaf == 0 || value != previous) {
      previous_digest = Digest::Of(value);
      previous = std::move(value);
    }
    tree_.SetLeaf(leaf, previous_digest);
  }
  latest_root_ = tree_.Root();
  sim_->ChargeCpu(static_cast<SimTime>(tree_.TakeRecomputedNodes()) *
                  sim_->cost().DigestCost(tree_.branching() * Digest::kSize));
  latest_seq_ = seq;
  dirty_.clear();
  new_leaves_.clear();
  last_checkpoint_updates_.clear();
  checkpoints_.clear();
  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.root = latest_root_;
  checkpoint.leaf_count = leaf_count_;
  checkpoints_.emplace(seq, std::move(checkpoint));
}

size_t CheckpointManager::CowBytes() const {
  size_t total = 0;
  for (const auto& [seq, checkpoint] : checkpoints_) {
    for (const auto& [leaf, value] : checkpoint.cow) {
      total += value.size();
    }
  }
  return total;
}

}  // namespace bftbase
