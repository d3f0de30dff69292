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
  PartitionTree tree(4);
  tree.Resize(64);
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
  PartitionTree a(16);
  PartitionTree b(16);
  a.Resize(100);
  b.Resize(100);
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
  PartitionTree a(16);
  PartitionTree b(16);
  a.Resize(10);
  b.Resize(11);
  // Same digests for the shared prefix; extra zero leaf in b.
  for (int i = 0; i < 10; ++i) {
    a.SetLeaf(i, LeafDigest(i));
    b.SetLeaf(i, LeafDigest(i));
  }
  EXPECT_NE(a.Root(), b.Root());
}

TEST(PartitionTree, LazyRecomputationTouchesOnlyDirtyPath) {
  PartitionTree tree(16);
  tree.Resize(16 * 16 * 16);  // three interior levels
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
  PartitionTree tree(4);
  tree.Resize(64);
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
  PartitionTree tree(4);
  tree.Resize(50);  // not a power of the branching factor
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

TEST(PartitionTree, GrowKeepsExistingLeaves) {
  PartitionTree tree(4);
  tree.Resize(10);
  for (int i = 0; i < 10; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Resize(100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tree.Leaf(i), LeafDigest(i));
  }
  EXPECT_TRUE(tree.Leaf(50).IsZero());
}

TEST(PartitionTree, IncrementalGrowRehashMatchesFullRebuild) {
  // Growing the tree and re-digesting only the genuinely stale paths must
  // give, at every step, the root of a tree built fresh at that size. The
  // cost-model node count (which feeds the simulated CPU charge) must still
  // charge each grow as a full rebuild: the pinned totals are what the
  // rebuild-everything path counted (commit fb72bea).
  struct Case {
    int branching;
    uint64_t model_recomputed;
  };
  const std::vector<int> sizes = {5, 9, 16, 40, 41, 100};
  for (const Case& c : {Case{2, 219}, Case{4, 76}, Case{16, 19}}) {
    PartitionTree tree(c.branching);
    uint64_t preserved = 0;
    int set = 0;
    for (int size : sizes) {
      tree.Resize(size);
      for (; set < size; ++set) {
        tree.SetLeaf(set, LeafDigest(set));
      }
      const uint64_t before = hotpath::counters().tree_nodes_preserved;
      const Digest root = tree.Root();
      preserved += hotpath::counters().tree_nodes_preserved - before;
      PartitionTree fresh(c.branching);
      fresh.Resize(size);
      for (int i = 0; i < size; ++i) {
        fresh.SetLeaf(i, LeafDigest(i));
      }
      EXPECT_EQ(root, fresh.Root())
          << "branching " << c.branching << " size " << size;
    }
    EXPECT_EQ(tree.TakeRecomputedNodes(), c.model_recomputed)
        << "branching " << c.branching;
    EXPECT_GT(preserved, 0u) << "branching " << c.branching;
  }
}

TEST(PartitionTree, GrowThenMutateOldAndNewLeavesStaysConsistent) {
  // Preserved subtree digests must not go stale silently: after a grow,
  // mutate leaves inside and outside the preserved region and compare
  // against a freshly built tree.
  PartitionTree tree(4);
  tree.Resize(16);
  for (int i = 0; i < 16; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.Root();
  tree.Resize(60);  // same depth for branching 4 (capacity 64)
  for (int i = 16; i < 60; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
  }
  tree.SetLeaf(3, Digest::Of(ToBytes("mutated-old")));
  tree.SetLeaf(45, Digest::Of(ToBytes("mutated-new")));
  PartitionTree fresh(4);
  fresh.Resize(60);
  for (int i = 0; i < 60; ++i) {
    fresh.SetLeaf(i, LeafDigest(i));
  }
  fresh.SetLeaf(3, Digest::Of(ToBytes("mutated-old")));
  fresh.SetLeaf(45, Digest::Of(ToBytes("mutated-new")));
  EXPECT_EQ(tree.Root(), fresh.Root());
}

// Property sweep: across branching factors and sizes, incremental updates
// always give the same root as a freshly built tree with the same leaves.
class PartitionTreeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionTreeProperty, IncrementalEqualsFresh) {
  auto [branching, leaves] = GetParam();
  Rng rng(branching * 1000 + leaves);
  PartitionTree incremental(branching);
  incremental.Resize(leaves);
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
  PartitionTree fresh(branching);
  fresh.Resize(leaves);
  for (int i = 0; i < leaves; ++i) {
    fresh.SetLeaf(i, values[i]);
  }
  EXPECT_EQ(incremental.Root(), fresh.Root());
}

// A dense reference for the sparse tree: every leaf digest stored, an
// interior digest rebuilt from its children, as H(height, children) with a
// plain Digest::Builder, whenever its subtree changed (no cold or preserved
// shortcut), and the cost-model count taken as the dirty nodes a query
// visits (a grow or a fill dirties every node, a leaf write its path).
class DenseReferenceTree {
 public:
  explicit DenseReferenceTree(size_t branching) : branching_(branching) {
    Resize(1);
  }

  void Resize(size_t leaf_count) {
    if (leaf_count <= leaves_.size()) {
      return;
    }
    leaves_.resize(leaf_count);  // new leaves hold the zero digest
    std::vector<size_t> widths;
    size_t width = leaf_count;
    do {
      width = (width + branching_ - 1) / branching_;
      widths.push_back(width);
    } while (width > 1);
    levels_.clear();  // a grow dirties every node
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
// nodes are the partial last ones of their levels), grows (some that change
// the depth, some no-ops) and fill resets (some followed by a grow across a
// depth change), with digests drawn from a small pool so that writes often
// restore a leaf to the fill or to zero. After every step the sparse tree
// answers every query as the dense reference does, cost-model counts
// included, and a tree that reaches the same leaves by one SetLeaf each,
// with no Fill, has the same root.
TEST_P(PartitionTreeProperty, MatchesDenseReference) {
  auto [branching, leaves] = GetParam();
  Rng rng(branching * 7919 + leaves);
  PartitionTree tree(branching);
  DenseReferenceTree reference(branching);
  tree.Resize(leaves);
  reference.Resize(leaves);
  std::vector<Digest> pool = {Digest()};
  for (int i = 0; i < 5; ++i) {
    pool.push_back(LeafDigest(i));
  }
  auto pick = [&] { return pool[rng.NextBelow(pool.size())]; };
  Digest fill;

  for (int step = 0; step < 60; ++step) {
    const size_t count = tree.leaf_count();
    const uint64_t op = rng.NextBelow(100);
    if (op < 67) {
      // Some writes restore the fill; some hit the last leaf.
      const size_t leaf = op < 60 ? rng.NextBelow(count) : count - 1;
      const Digest digest = op >= 52 && op < 60 ? fill : pick();
      tree.SetLeaf(leaf, digest);
      reference.SetLeaf(leaf, digest);
    } else if (op < 77) {
      const size_t grown =
          count < 4096 ? count + 1 + rng.NextBelow(count) : count;
      tree.Resize(grown);
      reference.Resize(grown);
    } else if (op < 82) {
      const size_t smaller = rng.NextBelow(count + 1);  // never shrinks
      tree.Resize(smaller);
      reference.Resize(smaller);
    } else {
      fill = pick();
      tree.Fill(fill);
      reference.Fill(fill);
      // The leaves the current depth can hold; one more deepens the tree.
      size_t capacity = 1;
      for (int level = 0; level < tree.depth(); ++level) {
        capacity *= branching;
      }
      if (op >= 92 && capacity < 8192) {
        const size_t grown = capacity + 1 + rng.NextBelow(capacity);
        tree.Resize(grown);
        reference.Resize(grown);
      }
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
    PartitionTree per_leaf(branching);
    per_leaf.Resize(tree.leaf_count());
    for (size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
      ASSERT_EQ(tree.Leaf(leaf), reference.Leaf(leaf))
          << "step " << step << " leaf " << leaf;
      per_leaf.SetLeaf(leaf, reference.Leaf(leaf));
    }
    ASSERT_EQ(per_leaf.Root(), root) << "step " << step;
  }
}

// A Fill leaves every complete subtree cold: one digest per height, hashed
// once, so the root of a 2^18+1-leaf tree costs the cold digests plus the
// partial last node of each level, while the cost model still counts every
// interior node.
TEST(PartitionTree, ColdTreeHashesOneNodePerHeight) {
  constexpr size_t kLeaves = (size_t{1} << 18) + 1;
  PartitionTree tree(16);
  tree.Resize(kLeaves);
  tree.Fill(LeafDigest(7));
  const uint64_t before = hotpath::counters().tree_nodes_rehashed;
  const Digest root = tree.Root();
  const uint64_t rehashed = hotpath::counters().tree_nodes_rehashed - before;
  EXPECT_LE(rehashed, 2u * static_cast<uint64_t>(tree.depth()));
  EXPECT_EQ(tree.TakeRecomputedNodes(), 17481u);

  DenseReferenceTree reference(16);
  reference.Resize(kLeaves);
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
  PartitionTree tree(16);
  tree.Resize(kLeaves);
  tree.Fill(LeafDigest(7));
  uint64_t before = hotpath::counters().tree_nodes_rehashed;
  const Digest root = tree.Root();
  const auto depth = static_cast<uint64_t>(tree.depth());
  const size_t path_bound = 16 * depth + 1;
  EXPECT_LE(tree.stored_nodes(), path_bound);
  EXPECT_EQ(tree.TakeRecomputedNodes(), 17481u);
  EXPECT_LE(hotpath::counters().tree_nodes_rehashed - before, 2 * depth);

  DenseReferenceTree reference(16);
  reference.Resize(kLeaves);
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

// A node's digest does not depend on its depth, so a grow that adds a level
// keeps every subtree that was complete: 4,096 -> 4,097 leaves (depth 3 ->
// 4) re-hashes only the path to the new leaf, while the cost model still
// charges all 277 interior nodes.
TEST(PartitionTree, GrowAcrossDepthKeepsCompleteSubtrees) {
  PartitionTree tree(16);
  DenseReferenceTree reference(16);
  tree.Resize(4096);
  reference.Resize(4096);
  for (int i = 0; i < 4096; ++i) {
    tree.SetLeaf(i, LeafDigest(i));
    reference.SetLeaf(i, LeafDigest(i));
  }
  ASSERT_EQ(tree.Root(), reference.Root());
  ASSERT_EQ(tree.depth(), 3);
  tree.TakeRecomputedNodes();
  reference.TakeRecomputedNodes();

  tree.Resize(4097);
  reference.Resize(4097);
  ASSERT_EQ(tree.depth(), 4);
  const uint64_t before = hotpath::counters().tree_nodes_rehashed;
  const Digest root = tree.Root();
  EXPECT_EQ(hotpath::counters().tree_nodes_rehashed - before, 4u);
  EXPECT_EQ(tree.TakeRecomputedNodes(), 277u);
  EXPECT_EQ(root, reference.Root());
  EXPECT_EQ(reference.TakeRecomputedNodes(), 277u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionTreeProperty,
    ::testing::Combine(::testing::Values(2, 4, 16, 64),
                       ::testing::Values(1, 5, 16, 100, 1000)));

}  // namespace
}  // namespace bftbase
