#include "src/base/checkpoint_manager.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "src/crypto/sha256_multi.h"
#include "src/util/log.h"

namespace bftbase {

CheckpointManager::CheckpointManager(Simulation* sim, ServiceAdapter* adapter,
                                     bool full_copy_checkpoints)
    : sim_(sim), adapter_(adapter), full_copy_(full_copy_checkpoints) {
  FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
}

void CheckpointManager::ChargeDigest(size_t bytes) {
  sim_->ChargeCpu(sim_->cost().DigestCost(bytes));
}

bool CheckpointManager::MarkDirty(size_t leaf) {
  uint64_t& word = dirty_bits_[leaf / 64];
  const uint64_t bit = uint64_t{1} << (leaf % 64);
  if ((word & bit) != 0) {
    return false;
  }
  word |= bit;
  dirty_list_.push_back(leaf);
  return true;
}

void CheckpointManager::ClearDirty() {
  for (size_t leaf : dirty_list_) {
    dirty_bits_[leaf / 64] = 0;
  }
  dirty_list_.clear();
}

std::vector<size_t> CheckpointManager::DirtyLeaves() const {
  std::vector<size_t> leaves = dirty_list_;
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

void CheckpointManager::OnModify(size_t object_index) {
  size_t leaf = LeafForObject(object_index);
  if (leaf >= leaf_count_) {
    // A brand-new object: it has no value at the previous checkpoint, so
    // there is nothing to copy; the leaf array grows at the next checkpoint,
    // which marks every new leaf dirty.
    return;
  }
  if (!MarkDirty(leaf)) {
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
    const size_t old_leaf_count = leaf_count_;
    leaf_count_ = new_leaf_count;
    dirty_bits_.resize((leaf_count_ + 63) / 64, 0);
    for (size_t leaf = old_leaf_count; leaf < leaf_count_; ++leaf) {
      MarkDirty(leaf);
    }
    tree_.Resize(leaf_count_);
  }

  protocol_state_ = protocol_state;
  MarkDirty(0);
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
    ClearDirty();
    return taken;
  }

  // Copy-on-write mode: only leaves touched since the previous checkpoint
  // need their digest recomputed; they are digested, in ascending order, as
  // interleaved SHA-256 lanes (same digests, simulated charges and
  // logical-work counters as one Digest::Of per leaf).
  std::sort(dirty_list_.begin(), dirty_list_.end());
  const std::vector<size_t>& leaves = dirty_list_;
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
  const size_t count = leaves.size();
  sha256_multi::DigestMany(
      views.data(), reinterpret_cast<uint8_t(*)[Digest::kSize]>(digests.data()),
      count);
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
  last_checkpoint_updates_ = dirty_list_;
  ClearDirty();
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
  if (!IsDirty(index)) {
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
  if (dirty_list_.empty()) {
    return false;
  }
  last = std::min(last, leaf_count_);
  while (first < last) {
    const size_t offset = first % 64;
    const size_t span = std::min<size_t>(64 - offset, last - first);
    uint64_t bits = dirty_bits_[first / 64] >> offset;
    if (span < 64) {
      bits &= (uint64_t{1} << span) - 1;
    }
    if (bits != 0) {
      return true;
    }
    first += span;
  }
  return false;
}

Bytes CheckpointManager::InstallFetchedState(
    SeqNum seq, const Digest& root, size_t leaf_count,
    const std::vector<ObjectUpdate>& leaf_updates) {
  if (leaf_count > leaf_count_) {
    leaf_count_ = leaf_count;
    dirty_bits_.resize((leaf_count_ + 63) / 64, 0);
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
  // root reflects the installed state. A fetched leaf's digest is already
  // set, so its dirty bit is dropped first.
  for (const ObjectUpdate& update : leaf_updates) {
    dirty_bits_[update.index / 64] &= ~(uint64_t{1} << (update.index % 64));
  }
  std::sort(dirty_list_.begin(), dirty_list_.end());
  for (size_t leaf : dirty_list_) {
    if (!IsDirty(leaf)) {
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

  ClearDirty();
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
  // and the adapter says how far each value repeats (RunLength), so the walk
  // calls GetObj once per reported run, merges neighbouring runs whose bytes
  // are equal and hashes each merged run once. The model still charges one
  // digest per leaf, summed into one charge: only real work is skipped. The
  // longest run's digest becomes the tree's fill, so only the leaves that
  // differ from it are stored.
  struct Run {
    size_t first;
    Digest digest;
  };
  std::vector<Run> runs;
  Bytes previous;
  SimTime cpu = 0;
  for (size_t leaf = 0, length = 1; leaf < leaf_count_; leaf += length) {
    if (leaf > 0) {  // leaf 0, the protocol blob, is a run of its own
      length = std::clamp<size_t>(adapter_->RunLength(ObjectForLeaf(leaf)), 1,
                                  leaf_count_ - leaf);
    }
    Bytes value =
        leaf == 0 ? protocol_state_ : adapter_->GetObj(ObjectForLeaf(leaf));
    cpu += static_cast<SimTime>(length) * sim_->cost().DigestCost(value.size());
    if (leaf == 0 || value != previous) {
      runs.push_back(Run{leaf, Digest::Of(value)});
      previous = std::move(value);
    }
  }
  auto run_end = [&](size_t r) {
    return r + 1 < runs.size() ? runs[r + 1].first : leaf_count_;
  };
  size_t longest = 0;
  for (size_t r = 1; r < runs.size(); ++r) {
    if (run_end(r) - runs[r].first > run_end(longest) - runs[longest].first) {
      longest = r;
    }
  }
  const Digest fill = runs[longest].digest;
  tree_.Fill(fill);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].digest == fill) {
      continue;
    }
    for (size_t leaf = runs[r].first; leaf < run_end(r); ++leaf) {
      tree_.SetLeaf(leaf, runs[r].digest);
    }
  }
  latest_root_ = tree_.Root();
  cpu += static_cast<SimTime>(tree_.TakeRecomputedNodes()) *
         sim_->cost().DigestCost(tree_.branching() * Digest::kSize);
  sim_->ChargeCpu(cpu);
  latest_seq_ = seq;
  dirty_bits_.assign((leaf_count_ + 63) / 64, 0);
  dirty_list_.clear();
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
