// Hierarchical state-partition tree (a Merkle tree over abstract objects).
//
// The paper (§2.2): "The library employs a hierarchical state partition
// scheme to transfer state efficiently. When a replica is fetching state, it
// recurses down a hierarchy of meta-data to determine which partitions are
// out of date." The leaves are the abstract objects; interior nodes hash
// their children, and the root digest is the checkpoint state digest the
// replicas agree on.
//
// The tree is built once at its leaf count, which the abstract-state array
// fixes (ServiceAdapter::ObjectCount), and never changes shape.
//
// Updates are lazy: SetLeaf marks the path dirty and Root()/NodeDigest()
// recompute only dirty nodes, so the cost of a checkpoint is proportional to
// the number of objects modified since the previous one.
//
// Leaves are stored sparsely: a fill digest (the cold state's common value,
// zero until the first Fill) plus the leaves whose digest differs from it,
// grouped by block (the `branching` leaves under one bottom interior node),
// so a replica's memory per object follows the objects that left the cold
// state. Interior nodes are sparse too. A node whose whole subtree is cold
// (every leaf holds the fill) is stored once, unsplit, and every node below
// it is implied by its flags. A node is split (its `branching` children are
// stored as copies of it) only when a leaf write goes below it or a query
// below it needs different flags, so a cold tree stores the path to its
// last leaf. An interior node's digest covers its height and its children
// (InteriorDigest), not its position, so every complete subtree whose
// leaves all hold the fill has one digest per height, hashed once, and the
// cost model's count of an unsplit cold subtree follows from its height.
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
  // A cold tree over `leaf_count` (at least 1) leaves, each holding the zero
  // digest. `branching`: children per interior node (the paper's
  // implementation used a small fixed hierarchy; 16 gives 4 levels for 64Ki
  // objects).
  explicit PartitionTree(size_t leaf_count, size_t branching = 16);

  // The digest rules, shared with state transfer's verification. An interior
  // node `height` levels above the leaves hashes (height, children in
  // order); a child's position is committed through its parent's ordered
  // children, and the root binds the leaf count, which fixes the shape.
  static Digest InteriorDigest(int height, std::span<const Digest> children);
  static Digest RootDigest(const Digest& top, size_t leaf_count);

  // Sets every leaf to `digest`. The next Root() counts every interior node
  // as recomputed, as if each leaf had been set one by one.
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
  // Leaves stored explicitly: those whose digest differs from the fill.
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
  // A dirty node is recomputed when next visited: it is counted in
  // recomputed_nodes_, with its dirty descendants, and its digest rebuilt.
  // `cold` marks a complete subtree with no override beneath: its digest is
  // its height's cold digest, so an unsplit cold node is counted from its
  // height and never hashed. A Fill dirties every node for the model, so
  // the model charges a full rebuild where real hashing covers only the
  // path to the last leaf. `children` is 0 while the node is unsplit, else
  // 1 + the index of its children in groups_. Below an unsplit node every
  // node has its flags and, once hashed, its height's cold digest: an
  // unsplit node above height 1 is cold (or past the end of its level, and
  // never visited).
  struct Node {
    Digest digest;
    uint32_t children : 30 = 0;
    uint32_t dirty : 1 = 1;
    uint32_t cold : 1 = 0;
  };

  // A leaf whose digest differs from the fill, by its offset in its block.
  struct Override {
    uint32_t offset;
    Digest digest;
  };

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
  // Turns a lone, unsplit root into a cold tree: the path to the last leaf.
  void StoreColdPath();
  // The stored node (level, index), or nullptr if it lies below a clean
  // unsplit node. A dirty unsplit node on the way is split, since the
  // caller is about to clean the nodes below it.
  Node* Find(int level, size_t index);
  void MarkPathDirty(size_t leaf_index);
  // The digest of `node` at (height, index), recomputed if it is dirty.
  Digest Visit(Node& node, int height, size_t index);
  std::vector<Digest> VisitChildren(const Node& node, int height,
                                    size_t index);

  size_t branching_;
  size_t leaf_count_;
  // The digest of every leaf without an override.
  Digest fill_;
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
