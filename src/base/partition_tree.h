// Hierarchical state-partition tree (a Merkle tree over abstract objects).
//
// The paper (§2.2): "The library employs a hierarchical state partition
// scheme to transfer state efficiently. When a replica is fetching state, it
// recurses down a hierarchy of meta-data to determine which partitions are
// out of date." The leaves are the abstract objects; interior nodes hash
// their children, and the root digest is the checkpoint state digest the
// replicas agree on.
//
// Updates are lazy: SetLeaf marks the path dirty and Root()/NodeDigest()
// recompute only dirty nodes, so the cost of a checkpoint is proportional to
// the number of objects modified since the previous one.
#ifndef SRC_BASE_PARTITION_TREE_H_
#define SRC_BASE_PARTITION_TREE_H_

#include <cstdint>
#include <vector>

#include "src/crypto/digest.h"

namespace bftbase {

class PartitionTree {
 public:
  // `branching`: children per interior node (the paper's implementation used
  // a small fixed hierarchy; 16 gives 4 levels for 64Ki objects).
  explicit PartitionTree(size_t branching = 16);

  // Grows (never shrinks) the leaf array. New leaves hold the zero digest.
  void Resize(size_t leaf_count);

  void SetLeaf(size_t index, const Digest& digest);
  Digest Leaf(size_t index) const;

  // Root digest; recomputes dirty interior nodes. The number of interior
  // hashes performed is returned through TakeRecomputedNodes() since the
  // last call, so callers can charge the cost model.
  Digest Root();

  // Digest of interior/leaf node `index` at `level` (level 0 = root). Leaves
  // are at level depth().
  Digest NodeDigest(int level, size_t index);

  // Digests of the children of interior node (level, index).
  std::vector<Digest> ChildDigests(int level, size_t index);

  // Number of nodes at `level`.
  size_t LevelWidth(int level) const;

  // Range [first, last) of leaves covered by node (level, index).
  std::pair<size_t, size_t> LeafRange(int level, size_t index) const;

  size_t leaf_count() const { return leaf_count_; }
  size_t branching() const { return branching_; }
  // Leaves are at this level; interior levels are 0 .. depth()-1.
  int depth() const { return static_cast<int>(levels_.size()); }

  // Interior hashes performed since the last call (for cost accounting).
  uint64_t TakeRecomputedNodes() {
    uint64_t n = recomputed_nodes_;
    recomputed_nodes_ = 0;
    return n;
  }

 private:
  // `dirty` is the cost-model flag: a dirty node is counted in
  // recomputed_nodes_ when next visited. `stale` is the real flag: the
  // digest bytes need rebuilding. They diverge only across a grow (Resize
  // re-dirties every node for the model, but digests of subtrees that were
  // complete under the old leaf count are still valid), so a checkpoint
  // after a grow re-hashes only genuinely changed paths while the model
  // charges a full rebuild.
  struct Node {
    Digest digest;
    bool dirty = true;
    bool stale = true;
  };

  void Rebuild();
  void MarkPathDirty(size_t leaf_index);
  Digest ComputeNode(int level, size_t index);

  size_t branching_;
  size_t leaf_count_ = 0;
  std::vector<Digest> leaves_;
  // levels_[0] is the root level (width 1); levels_.back() is the level just
  // above the leaves.
  std::vector<std::vector<Node>> levels_;
  uint64_t recomputed_nodes_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BASE_PARTITION_TREE_H_
