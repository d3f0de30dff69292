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
//
// Leaves are stored sparsely: a fill digest (the cold state's common value,
// set by Fill) plus the leaves whose digest differs from it, grouped by
// block (the `branching` leaves under one bottom interior node), so a
// replica's memory per object follows the objects that left the cold state.
// Interior nodes are sparse too. A node whose whole subtree is uniform (a
// cold subtree after a Fill, or a region a grow added) is stored once,
// unsplit, and every node below it is implied by its flags. A node is split
// (its `branching` children are stored as copies of it) only when a leaf
// write goes below it or a query below it needs different flags, so a cold
// tree stores the path to its last leaf. An interior node's digest covers
// its height and its children (InteriorDigest), not its position, so every
// complete subtree whose leaves all hold the fill has one digest per height,
// hashed once, and the cost model's count of an unsplit cold subtree follows
// from its height.
#ifndef SRC_BASE_PARTITION_TREE_H_
#define SRC_BASE_PARTITION_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/crypto/digest.h"

namespace bftbase {

class PartitionTree {
 public:
  // `branching`: children per interior node (the paper's implementation used
  // a small fixed hierarchy; 16 gives 4 levels for 64Ki objects).
  explicit PartitionTree(size_t branching = 16);

  // The digest rules, shared with state transfer's verification. An interior
  // node `height` levels above the leaves hashes (height, children in
  // order); a child's position is committed through its parent's ordered
  // children, and the root binds the leaf count, which fixes the shape.
  static Digest InteriorDigest(int height, std::span<const Digest> children);
  static Digest RootDigest(const Digest& top, size_t leaf_count);
  // Interior levels of a tree over `leaf_count` leaves.
  static int DepthFor(size_t leaf_count, size_t branching);

  // Grows (never shrinks) the leaf array. New leaves hold the zero digest.
  void Resize(size_t leaf_count);

  // Sets every leaf to `digest` (leaves added by a later Resize still hold
  // the zero digest). The next Root() counts every interior node as
  // recomputed, as if each leaf had been set one by one.
  void Fill(const Digest& digest);
  const Digest& fill() const { return fill_; }

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
  int depth() const { return static_cast<int>(widths_.size()) - 1; }
  // Leaves stored explicitly: those whose digest differs from the fill (or,
  // past the filled range, from zero).
  size_t override_count() const { return override_count_; }
  // Interior nodes stored: the root and `branching` per split node. A cold
  // tree stores at most branching x depth + 1, the dense tree every one.
  size_t stored_nodes() const { return 1 + groups_.size() * branching_; }

  // Interior hashes the cost model counts since the last call (for cost
  // accounting). Real hashing can be less: see Node.
  uint64_t TakeRecomputedNodes() {
    uint64_t n = recomputed_nodes_;
    recomputed_nodes_ = 0;
    return n;
  }

 private:
  // `dirty` is the cost-model flag: a dirty node is counted in
  // recomputed_nodes_ when next visited, and its dirty descendants with it.
  // `stale` is the real flag: the digest bytes need rebuilding. `cold` marks
  // a complete subtree inside the filled range with no override beneath:
  // its digest is its height's cold digest. A Fill dirties every node for
  // the model, and a grow re-dirties every node while complete subtrees
  // keep their digests, so the model charges a full rebuild where real
  // hashing covers only the paths that changed. `children` is 0 while the
  // node is unsplit, else 1 + the index of its children in groups_. Below
  // an unsplit node every node has its flags and, once hashed, its height's
  // cold digest: a clean unsplit node (above height 1) is cold, and an
  // unsplit node that is not cold is dirty and stale.
  struct Node {
    Digest digest;
    uint32_t children : 29 = 0;
    uint32_t dirty : 1 = 1;
    uint32_t stale : 1 = 1;
    uint32_t cold : 1 = 0;
  };

  // A leaf whose digest differs from its cold one, by its offset in its block.
  struct Override {
    uint32_t offset;
    Digest digest;
  };

  // The digest of a leaf with no override.
  Digest ColdLeaf(size_t index) const {
    return index < filled_ ? fill_ : Digest();
  }
  // The digest of a complete subtree of `height` whose leaves all hold the
  // fill; hashed on first use after each Fill.
  Digest ColdDigest(int height);
  // branching ^ height: the leaves under a node of `height`.
  size_t Span(int height) const;
  Node* Children(const Node& node) const {
    return groups_[node.children - 1].get();
  }
  // Stores `branching` copies of `node` (of `height`) as its children.
  void Split(Node& node, int height);
  // The stored node (level, index), or nullptr if it lies below a clean
  // unsplit node. A dirty unsplit node on the way is split, since the
  // caller is about to clean the nodes below it.
  Node* Find(int level, size_t index);
  void MarkPathDirty(size_t leaf_index);
  // The digest of `node` at (height, index), recomputed if it is dirty.
  Digest Visit(Node& node, int height, size_t index);
  std::vector<Digest> VisitChildren(const Node& node, int height,
                                    size_t index);
  // Moves each maximal subtree below `node` at (height, index) of a
  // smaller tree that was complete under its `old_leaf_count` leaves to the
  // same (height, index) here.
  void GraftComplete(const Node& node, int height, size_t index,
                     size_t old_leaf_count,
                     std::vector<std::unique_ptr<Node[]>>& old_groups);
  // `node` with its stored subtree moved out of `old_groups`, every node
  // dirty.
  Node Graft(Node node, std::vector<std::unique_ptr<Node[]>>& old_groups);

  size_t branching_;
  size_t leaf_count_ = 0;
  // Leaves [0, filled_) default to fill_, the rest to the zero digest.
  Digest fill_;
  size_t filled_ = 0;
  // cold_digests_[h] is ColdDigest(h); [0] is the fill.
  std::vector<Digest> cold_digests_;
  // Per block: 0 if it has held no override since the last Fill, else 1 +
  // the index of its overrides (in no particular order) in override_blocks_.
  std::vector<uint32_t> block_slots_;
  std::vector<std::vector<Override>> override_blocks_;
  size_t override_count_ = 0;
  // widths_[h] is the number of nodes at height h; widths_[0] is the leaf
  // count and widths_.back() 1, the root's.
  std::vector<size_t> widths_;
  Node root_;
  // The stored children of split nodes, `branching` per group (those past
  // the end of a level are unused).
  std::vector<std::unique_ptr<Node[]>> groups_;
  uint64_t recomputed_nodes_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BASE_PARTITION_TREE_H_
