// Copy-on-write checkpoints over the abstract state (paper §2.2).
//
// "Replicas keep just the current version of the concrete state plus copies
// of the abstract state produced every k-th request. ... the library uses
// copy-on-write such that checkpoints only contain the objects whose value
// is different in the current abstract state."
//
// The wrapper calls modify(i) before mutating object i; on the first call
// after a checkpoint the manager snapshots the object's value (obtained with
// get_obj) into that checkpoint's copy set. Leaf digests and the partition
// tree always reflect the LATEST checkpoint, which is also the state served
// to fetching replicas.
//
// Leaf layout: leaf 0 holds the replica's protocol-state blob (reply cache),
// so it is covered by the agreed state digest and travels with state
// transfer; leaf i (i >= 1) holds abstract object i-1. Keeping the protocol
// blob at index 0 keeps its position stable when the object array grows.
#ifndef SRC_BASE_CHECKPOINT_MANAGER_H_
#define SRC_BASE_CHECKPOINT_MANAGER_H_

#include <map>
#include <vector>

#include "src/base/adapter.h"
#include "src/base/partition_tree.h"
#include "src/bft/config.h"
#include "src/sim/simulation.h"

namespace bftbase {

class CheckpointManager {
 public:
  // `full_copy_checkpoints` disables copy-on-write and snapshots every object
  // at every checkpoint — only for the E4 ablation benchmark.
  CheckpointManager(Simulation* sim, ServiceAdapter* adapter,
                    bool full_copy_checkpoints = false);

  // Installed as the adapter's modify hook (`index` is an OBJECT index).
  void OnModify(size_t object_index);

  // Leaf index <-> object index mapping (leaf 0 is the protocol blob).
  static size_t LeafForObject(size_t object_index) { return object_index + 1; }
  static size_t ObjectForLeaf(size_t leaf_index) { return leaf_index - 1; }

  // Takes a checkpoint at `seq` with the given protocol-state blob. The root
  // digest (the agreed state digest for CHECKPOINT messages) is computed
  // now; the virtual CPU of the leaf digests and the tree rehash is returned
  // instead of charged, for the caller to run on the replica's idle lane.
  struct Taken {
    Digest root;
    SimTime digest_cpu = 0;
  };
  Taken TakeCheckpoint(SeqNum seq, const Bytes& protocol_state);

  // Discards checkpoints older than `seq` (the stable one).
  void DiscardBefore(SeqNum seq);

  // --- Serving state transfer (values/digests at the latest checkpoint) ----
  SeqNum latest_seq() const { return latest_seq_; }
  Digest latest_root() const { return latest_root_; }
  // Total leaves = ObjectCount() + 1 (protocol leaf) as of latest checkpoint.
  size_t LeafCount() const { return leaf_count_; }
  Digest LeafDigest(size_t index);
  // Protocol-state blob as of the latest checkpoint / installed state.
  const Bytes& protocol_state() const { return protocol_state_; }
  // Value of leaf `index` at the latest checkpoint (the protocol blob for
  // leaf 0, object ObjectForLeaf(index) otherwise).
  Bytes LeafValue(size_t index);
  PartitionTree& tree() { return tree_; }

  // --- Current-state digests (fetch-side comparison) -------------------------
  // Digest of the leaf's CURRENT value (recomputed on the fly for leaves
  // modified since the latest checkpoint). Used to decide what to fetch.
  Digest CurrentLeafDigest(size_t index);
  // True iff any leaf in [first, last) was modified since the latest
  // checkpoint (interior-node digests over such ranges are stale, so the
  // fetcher must descend).
  bool HasDirtyInRange(size_t first, size_t last) const;

  // --- Fetch-side application ------------------------------------------------
  // Installs fetched leaves as the new state at (seq, root). `updates` are
  // LEAF-indexed values covering exactly the leaves that differ from the
  // current state; object leaves go to the adapter through one PutObjs call
  // and the protocol leaf (if present) replaces the protocol blob, which is
  // returned. Resets dirty/copy bookkeeping to a single checkpoint at seq.
  Bytes InstallFetchedState(SeqNum seq, const Digest& root, size_t leaf_count,
                            const std::vector<ObjectUpdate>& leaf_updates);

  // Recomputes every leaf digest from the adapter (used after RestartClean
  // during recovery and by tests/benches that need a cold start). Walks the
  // objects in the runs the adapter reports (ServiceAdapter::RunLength),
  // with one GetObj per run. Charges one digest per leaf, but hashes only
  // runs whose value differs from the previous run's; the longest run of
  // equal values becomes the tree's fill and only the other leaves are
  // stored.
  void FullResync(SeqNum seq, const Bytes& protocol_state);

  // Number of checkpoints currently retained.
  size_t RetainedCheckpoints() const { return checkpoints_.size(); }
  // Bytes held in copy-on-write snapshots (telemetry for E4).
  size_t CowBytes() const;
  uint64_t cow_copies_taken() const { return cow_copies_taken_; }

  // Leaves whose digest was recomputed by the most recent TakeCheckpoint —
  // exactly the leaves whose durable page is stale, so the durable layer
  // persists these (and only these) per checkpoint.
  const std::vector<size_t>& last_checkpoint_updates() const {
    return last_checkpoint_updates_;
  }
  // Leaves modified since the latest checkpoint, ascending (snapshot for the
  // durable layer before an install clears the set).
  std::vector<size_t> DirtyLeaves() const;
  // False iff the most recent InstallFetchedState recomputed a root that did
  // not match the requested one (corrupt local/durable state).
  bool last_install_root_ok() const { return last_install_root_ok_; }

 private:
  struct Checkpoint {
    SeqNum seq = 0;
    Digest root;
    size_t leaf_count = 0;
    // Copy-on-write set: value AS OF this checkpoint for leaves modified
    // after it was taken.
    std::map<size_t, Bytes> cow;
  };

  void ChargeDigest(size_t bytes);
  bool IsDirty(size_t leaf) const {
    return (dirty_bits_[leaf / 64] >> (leaf % 64)) & 1;
  }
  // Marks `leaf` dirty; false if it already was.
  bool MarkDirty(size_t leaf);
  void ClearDirty();

  Simulation* sim_;
  ServiceAdapter* adapter_;
  bool full_copy_;

  // The only copy of the leaf digests (as of the latest checkpoint).
  PartitionTree tree_;
  // Leaves modified since the latest checkpoint: one bit per leaf (sized to
  // leaf_count_) for membership and range queries, plus the set leaves in
  // the order they were marked (sorted where order matters).
  std::vector<uint64_t> dirty_bits_;
  std::vector<size_t> dirty_list_;
  size_t leaf_count_ = 1;  // objects + protocol leaf
  SeqNum latest_seq_ = 0;
  Digest latest_root_;
  Bytes protocol_state_;  // as of the latest checkpoint
  std::map<SeqNum, Checkpoint> checkpoints_;
  uint64_t cow_copies_taken_ = 0;
  std::vector<size_t> last_checkpoint_updates_;
  bool last_install_root_ok_ = true;
};

}  // namespace bftbase

#endif  // SRC_BASE_CHECKPOINT_MANAGER_H_
