// Unit and property tests for the hierarchical state-partition tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/partition_tree.h"
#include "src/util/hotpath.h"
#include "src/util/rng.h"

namespace bftbase {
namespace {

Digest LeafDigest(int i) {
  return Digest::Of(ToBytes("leaf" + std::to_string(i)));
}

TEST(PartitionTree, RootChangesWithAnyLeaf) {
  PartitionTree tree(64, 4);
  for (int i = 0; i < 64; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  Digest root = tree.Root();
  tree.SetLeaf(37, Digest::Of(ToBytes("changed")));
  EXPECT_NE(tree.Root(), root);
  tree.SetLeaf(37, LeafDigest(37));
  EXPECT_EQ(tree.Root(), root);  // restoring the leaf restores the root
}

TEST(PartitionTree, IdenticalLeavesGiveIdenticalRoots) {
  PartitionTree a(100, 16);
  PartitionTree b(100, 16);
  for (int i = 0; i < 100; ++i) {
    a.SetLeaf(i, LeafDigest(i));
  }
  // Set b's leaves in a different order; the root must not care.
  for (int i = 99; i >= 0; --i) {
    b.SetLeaf(i, LeafDigest(i));
  }
  EXPECT_EQ(a.Root(), b.Root());
}

TEST(PartitionTree, DifferentSizesGiveDifferentRoots) {
  PartitionTree a(10, 16);
  PartitionTree b(11, 16);
  // Same digests for the shared prefix; extra zero leaf in b.
  for (int i = 0; i < 10; ++i) {
    a.SetLeaf(i, LeafDigest(i));
    b.SetLeaf(i, LeafDigest(i));
  }
  EXPECT_NE(a.Root(), b.Root());
}

TEST(PartitionTree, LazyRecomputationTouchesOnlyDirtyPath) {
  PartitionTree tree(16 * 16 * 16, 16);  // three interior levels
  for (size_t i = 0; i < tree.leaf_count(); ++i) {
    tree.SetLeaf(i, LeafDigest(static_cast<int>(i)));
  }
  tree.Root();
  tree.TakeRecomputedNodes();

  tree.SetLeaf(123, Digest::Of(ToBytes("x")));
  tree.Root();
  uint64_t recomputed = tree.TakeRecomputedNodes();
  // Only the path from the leaf to the root (depth nodes) is recomputed.
  EXPECT_LE(recomputed, static_cast<uint64_t>(tree.depth()));
  EXPECT_GE(recomputed, 1u);
}

TEST(PartitionTree, ChildDigestsMatchNodeDigests) {
  PartitionTree tree(64, 4);
  for (int i = 0; i < 64; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Root();
  for (int level = 0; level < tree.depth(); ++level) {
    for (size_t index = 0; index < tree.LevelWidth(level); ++index) {
      auto children = tree.ChildDigests(level, index);
      for (size_t c = 0; c < children.size(); ++c) {
        EXPECT_EQ(children[c], tree.NodeDigest(level + 1, index * 4 + c));
      }
    }
  }
}

TEST(PartitionTree, LeafRangeCoversAllLeavesExactlyOnce) {
  PartitionTree tree(50, 4);  // not a power of the branching factor
  for (int level = 0; level <= tree.depth(); ++level) {
    std::vector<bool> covered(tree.leaf_count(), false);
    size_t width = tree.LevelWidth(level);
    for (size_t index = 0; index < width; ++index) {
      auto [first, last] = tree.LeafRange(level, index);
      for (size_t leaf = first; leaf < last; ++leaf) {
        EXPECT_FALSE(covered[leaf]) << "level " << level;
        covered[leaf] = true;
      }
    }
    for (size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
      EXPECT_TRUE(covered[leaf]) << "level " << level << " leaf " << leaf;
    }
  }
}

// Property sweep: across branching factors and sizes, incremental updates
// always give the same root as a freshly built tree with the same leaves.
class PartitionTreeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionTreeProperty, IncrementalEqualsFresh) {
  auto [branching, leaves] = GetParam();
  Rng rng(branching * 1000 + leaves);
  PartitionTree incremental(leaves, branching);
  std::vector<Digest> values(leaves);
  for (int i = 0; i < leaves; ++i) {
    values[i] = LeafDigest(i);
    incremental.SetLeaf(i, values[i]);
  }
  incremental.Root();
  // 100 random single-leaf updates with interleaved root queries.
  for (int step = 0; step < 100; ++step) {
    int leaf = static_cast<int>(rng.NextBelow(leaves));
    values[leaf] = Digest::Of(ToBytes("v" + std::to_string(step)));
    incremental.SetLeaf(leaf, values[leaf]);
    if (step % 7 == 0) {
      incremental.Root();
    }
  }
  PartitionTree fresh(leaves, branching);
  for (int i = 0; i < leaves; ++i) {
    fresh.SetLeaf(i, values[i]);
  }
  EXPECT_EQ(incremental.Root(), fresh.Root());
}

// A dense reference for the sparse tree: every leaf digest stored, an
// interior digest rebuilt from its children, as H(height, children) with a
// plain Digest::Builder, whenever its subtree changed (no cold shortcut),
// and the cost-model count taken as the dirty nodes a query visits (a new
// tree or a fill dirties every node, a leaf write its path).
class DenseReferenceTree {
 public:
  // `leaf_count` leaves, each holding the zero digest.
  DenseReferenceTree(size_t leaf_count, size_t branching)
      : branching_(branching), leaves_(leaf_count) {
    std::vector<size_t> widths;
    size_t width = leaf_count;
    do {
      width = (width + branching_ - 1) / branching_;
      widths.push_back(width);
    } while (width > 1);
    for (auto it = widths.rbegin(); it != widths.rend(); ++it) {
      levels_.emplace_back(*it);
    }
  }

  void Fill(const Digest& digest) {
    std::fill(leaves_.begin(), leaves_.end(), digest);
    for (auto& level : levels_) {
      for (Node& node : level) {
        node.dirty = true;
      }
    }
  }

  void SetLeaf(size_t leaf, const Digest& digest) {
    leaves_[leaf] = digest;
    for (int level = depth() - 1; level >= 0; --level) {
      leaf /= branching_;
      levels_[level][leaf].dirty = true;
    }
  }

  Digest Leaf(size_t leaf) const { return leaves_[leaf]; }

  Digest NodeDigest(int level, size_t index) {
    if (level == depth()) {
      return leaves_[index];
    }
    Node& node = levels_[level][index];
    if (node.dirty) {
      Digest::Builder builder;
      builder.Add(static_cast<uint64_t>(depth() - level));  // the height
      for (const Digest& child : ChildDigests(level, index)) {
        builder.Add(child);
      }
      node.digest = builder.Build();
      node.dirty = false;
      ++recomputed_;
    }
    return node.digest;
  }

  std::vector<Digest> ChildDigests(int level, size_t index) {
    std::vector<Digest> out;
    const size_t first = index * branching_;
    const size_t last = std::min(first + branching_, LevelWidth(level + 1));
    for (size_t child = first; child < last; ++child) {
      out.push_back(NodeDigest(level + 1, child));
    }
    return out;
  }

  Digest Root() {
    return Digest::Builder()
        .Add(NodeDigest(0, 0))
        .Add(static_cast<uint64_t>(leaves_.size()))
        .Build();
  }

  uint64_t TakeRecomputedNodes() { return std::exchange(recomputed_, 0); }
  size_t LevelWidth(int level) const {
    return level == depth() ? leaves_.size() : levels_[level].size();
  }
  int depth() const { return static_cast<int>(levels_.size()); }
  size_t leaf_count() const { return leaves_.size(); }

 private:
  struct Node {
    Digest digest;
    bool dirty = true;
  };
  size_t branching_;
  std::vector<Digest> leaves_;
  std::vector<std::vector<Node>> levels_;
  uint64_t recomputed_ = 0;
};

// Random leaf writes (some back to the fill, some to the last leaf, whose
// nodes are the partial last ones of their levels) and fill resets, with
// digests drawn from a small pool so that writes often restore a leaf to
// the fill or to zero. After every step the sparse tree answers every query
// as the dense reference does, cost-model counts included, and a tree that
// reaches the same leaves by one SetLeaf each, with no Fill, has the same
// root.
TEST_P(PartitionTreeProperty, MatchesDenseReference) {
  auto [branching, leaves] = GetParam();
  Rng rng(branching * 7919 + leaves);
  PartitionTree tree(leaves, branching);
  DenseReferenceTree reference(leaves, branching);
  std::vector<Digest> pool = {Digest()};
  for (int i = 0; i < 5; ++i) {
    pool.push_back(LeafDigest(i));
  }
  auto pick = [&] { return pool[rng.NextBelow(pool.size())]; };
  Digest fill;

  for (int step = 0; step < 60; ++step) {
    const size_t count = tree.leaf_count();
    const uint64_t op = rng.NextBelow(100);
    if (op < 82) {
      // Some writes restore the fill; some hit the last leaf.
      const size_t leaf = op < 72 ? rng.NextBelow(count) : count - 1;
      const Digest digest = op >= 60 && op < 72 ? fill : pick();
      tree.SetLeaf(leaf, digest);
      reference.SetLeaf(leaf, digest);
    } else {
      fill = pick();
      tree.Fill(fill);
      reference.Fill(fill);
    }
    ASSERT_EQ(tree.leaf_count(), reference.leaf_count()) << "step " << step;
    ASSERT_EQ(tree.depth(), reference.depth()) << "step " << step;

    // A partial query before the root: one node and one node's children.
    const int level = static_cast<int>(rng.NextBelow(tree.depth() + 1));
    const size_t index = rng.NextBelow(tree.LevelWidth(level));
    EXPECT_EQ(tree.NodeDigest(level, index),
              reference.NodeDigest(level, index))
        << "step " << step << " node (" << level << ", " << index << ")";
    const int parent = static_cast<int>(rng.NextBelow(tree.depth()));
    const size_t parent_index = rng.NextBelow(tree.LevelWidth(parent));
    EXPECT_EQ(tree.ChildDigests(parent, parent_index),
              reference.ChildDigests(parent, parent_index))
        << "step " << step;
    EXPECT_EQ(tree.TakeRecomputedNodes(), reference.TakeRecomputedNodes())
        << "step " << step;

    const Digest root = tree.Root();
    ASSERT_EQ(root, reference.Root()) << "step " << step;
    EXPECT_EQ(tree.TakeRecomputedNodes(), reference.TakeRecomputedNodes())
        << "step " << step;
    PartitionTree per_leaf(tree.leaf_count(), branching);
    for (size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
      ASSERT_EQ(tree.Leaf(leaf), reference.Leaf(leaf))
          << "step " << step << " leaf " << leaf;
      per_leaf.SetLeaf(leaf, reference.Leaf(leaf));
    }
    ASSERT_EQ(per_leaf.Root(), root) << "step " << step;
  }
}

// A tree is built at its leaf count as a cold tree whose leaves all hold
// the zero digest: it stores the path to its last leaf and no other interior
// node, and its first root hashes one node per height plus the partial ones
// while the cost model counts every interior node, as the dense reference
// does.
TEST(PartitionTree, NewTreeIsColdAndZeroFilled) {
  constexpr size_t kLeaves = (size_t{1} << 18) + 1;
  PartitionTree tree(kLeaves, 16);
  const auto depth = static_cast<uint64_t>(tree.depth());
  EXPECT_LE(tree.stored_nodes(), 16 * depth + 1);
  EXPECT_EQ(tree.override_count(), 0u);
  EXPECT_TRUE(tree.Leaf(kLeaves - 1).IsZero());

  DenseReferenceTree reference(kLeaves, 16);
  const uint64_t before = hotpath::counters().tree_nodes_rehashed;
  EXPECT_EQ(tree.Root(), reference.Root());
  EXPECT_LE(hotpath::counters().tree_nodes_rehashed - before, 2 * depth);
  EXPECT_EQ(tree.TakeRecomputedNodes(), 17481u);
  EXPECT_EQ(reference.TakeRecomputedNodes(), 17481u);
}

// A Fill leaves every complete subtree cold: one digest per height, hashed
// once, so the root of a 2^18+1-leaf tree costs the cold digests plus the
// partial last node of each level, while the cost model still counts every
// interior node.
TEST(PartitionTree, ColdTreeHashesOneNodePerHeight) {
  constexpr size_t kLeaves = (size_t{1} << 18) + 1;
  PartitionTree tree(kLeaves, 16);
  tree.Fill(LeafDigest(7));
  const uint64_t before = hotpath::counters().tree_nodes_rehashed;
  const Digest root = tree.Root();
  const uint64_t rehashed = hotpath::counters().tree_nodes_rehashed - before;
  EXPECT_LE(rehashed, 2u * static_cast<uint64_t>(tree.depth()));
  EXPECT_EQ(tree.TakeRecomputedNodes(), 17481u);

  DenseReferenceTree reference(kLeaves, 16);
  reference.Fill(LeafDigest(7));
  EXPECT_EQ(root, reference.Root());
  EXPECT_EQ(reference.TakeRecomputedNodes(), 17481u);
}

// A cold tree stores the path to its last leaf and no other interior node:
// its root counts all 17,481 nodes from the shape of its unsplit subtrees,
// a read inside a clean cold subtree stores and counts nothing, and a leaf
// write splits its path and costs one node per level.
TEST(PartitionTree, ColdTreeStoresOnePathPerLevel) {
  constexpr size_t kLeaves = (size_t{1} << 18) + 1;
  PartitionTree tree(kLeaves, 16);
  tree.Fill(LeafDigest(7));
  uint64_t before = hotpath::counters().tree_nodes_rehashed;
  const Digest root = tree.Root();
  const auto depth = static_cast<uint64_t>(tree.depth());
  const size_t path_bound = 16 * depth + 1;
  EXPECT_LE(tree.stored_nodes(), path_bound);
  EXPECT_EQ(tree.TakeRecomputedNodes(), 17481u);
  EXPECT_LE(hotpath::counters().tree_nodes_rehashed - before, 2 * depth);

  DenseReferenceTree reference(kLeaves, 16);
  reference.Fill(LeafDigest(7));
  ASSERT_EQ(root, reference.Root());

  const size_t stored = tree.stored_nodes();
  before = hotpath::counters().tree_nodes_rehashed;
  const int bottom = tree.depth() - 1;
  EXPECT_EQ(tree.NodeDigest(bottom, 12345),
            reference.NodeDigest(bottom, 12345));
  EXPECT_EQ(tree.ChildDigests(bottom - 1, 500),
            reference.ChildDigests(bottom - 1, 500));
  EXPECT_EQ(tree.ChildDigests(bottom, 7), reference.ChildDigests(bottom, 7));
  EXPECT_EQ(tree.stored_nodes(), stored);
  EXPECT_EQ(tree.TakeRecomputedNodes(), 0u);
  EXPECT_EQ(hotpath::counters().tree_nodes_rehashed, before);

  tree.SetLeaf(100000, LeafDigest(8));
  reference.SetLeaf(100000, LeafDigest(8));
  EXPECT_EQ(tree.Root(), reference.Root());
  EXPECT_EQ(tree.TakeRecomputedNodes(), depth);
  EXPECT_EQ(hotpath::counters().tree_nodes_rehashed - before, depth);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionTreeProperty,
    ::testing::Combine(::testing::Values(2, 4, 16, 64),
                       ::testing::Values(1, 5, 16, 100, 1000)));

}  // namespace
}  // namespace bftbase
