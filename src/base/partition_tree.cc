#include "src/base/partition_tree.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/hotpath.h"

namespace bftbase {

PartitionTree::PartitionTree(size_t branching) : branching_(branching) {
  assert(branching >= 2);
  Resize(1);
}

Digest PartitionTree::InteriorDigest(int height,
                                     std::span<const Digest> children) {
  Digest::Builder builder;
  builder.Add(static_cast<uint64_t>(height));
  for (const Digest& child : children) {
    builder.Add(child);
  }
  return builder.Build();
}

Digest PartitionTree::RootDigest(const Digest& top, size_t leaf_count) {
  // Bind the leaf count so states of different sizes cannot collide.
  return Digest::Builder()
      .Add(top)
      .Add(static_cast<uint64_t>(leaf_count))
      .Build();
}

int PartitionTree::DepthFor(size_t leaf_count, size_t branching) {
  int depth = 0;
  size_t width = std::max<size_t>(leaf_count, 1);
  do {
    width = (width + branching - 1) / branching;
    ++depth;
  } while (width > 1);
  return depth;
}

void PartitionTree::Resize(size_t leaf_count) {
  if (leaf_count <= leaf_count_ && !levels_.empty()) {
    return;  // never shrinks
  }
  const size_t old_leaf_count = leaf_count_;
  std::vector<std::vector<Node>> old_levels = std::move(levels_);
  leaf_count_ = std::max<size_t>(leaf_count, 1);
  block_slots_.resize((leaf_count_ + branching_ - 1) / branching_, 0);
  Rebuild();
  // The cost model charges a grow as a full rebuild: every interior node is
  // dirty and the next Root() counts each one as recomputed. Real hashing
  // can do better: a node's hash covers (height, children), so the node at
  // the same height and index, once its leaf range was complete under the
  // old leaf count, covers the same leaves as before, whether or not the
  // depth grew. Those nodes keep their digest and their stale and cold
  // marks; the next Root() re-hashes only the paths to the new leaves.
  size_t span = 1;  // leaves covered per node at the current height
  for (size_t height = 1; height <= old_levels.size(); ++height) {
    span *= branching_;
    const auto& old_level = old_levels[old_levels.size() - height];
    auto& new_level = levels_[levels_.size() - height];
    for (size_t i = 0; i < old_leaf_count / span; ++i) {
      new_level[i] = old_level[i];
      new_level[i].dirty = true;
    }
  }
}

void PartitionTree::Rebuild() {
  // Every node starts dirty and stale; the top level has width 1.
  levels_.assign(DepthFor(leaf_count_, branching_), {});
  size_t width = leaf_count_;
  for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
    width = (width + branching_ - 1) / branching_;
    level->resize(width);
  }
}

void PartitionTree::Fill(const Digest& digest) {
  fill_ = digest;
  filled_ = leaf_count_;
  cold_digests_.assign(1, digest);
  std::fill(block_slots_.begin(), block_slots_.end(), 0);
  override_blocks_.clear();
  override_count_ = 0;
  // Nodes whose whole leaf range lies in the filled range are cold; the
  // partial last node of each level is hashed from its children.
  size_t span = 1;
  for (int level = depth() - 1; level >= 0; --level) {
    span *= branching_;
    const size_t complete = filled_ / span;
    std::vector<Node>& nodes = levels_[level];
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].dirty = true;
      nodes[i].stale = true;
      nodes[i].cold = i < complete;
    }
  }
}

void PartitionTree::SetLeaf(size_t index, const Digest& digest) {
  assert(index < leaf_count_);
  MarkPathDirty(index);
  const bool cold = digest == ColdLeaf(index);
  uint32_t& slot = block_slots_[index / branching_];
  if (slot == 0) {
    if (cold) {
      return;
    }
    override_blocks_.emplace_back();
    slot = static_cast<uint32_t>(override_blocks_.size());
  }
  std::vector<Override>& overrides = override_blocks_[slot - 1];
  const auto offset = static_cast<uint32_t>(index % branching_);
  auto it = std::find_if(overrides.begin(), overrides.end(),
                         [offset](const Override& o) {
                           return o.offset == offset;
                         });
  if (it != overrides.end()) {
    if (cold) {
      *it = overrides.back();
      overrides.pop_back();
      --override_count_;
    } else {
      it->digest = digest;
    }
  } else if (!cold) {
    overrides.push_back(Override{offset, digest});
    ++override_count_;
  }
}

Digest PartitionTree::Leaf(size_t index) const {
  assert(index < leaf_count_);
  if (const uint32_t slot = block_slots_[index / branching_]; slot != 0) {
    const auto offset = static_cast<uint32_t>(index % branching_);
    for (const Override& o : override_blocks_[slot - 1]) {
      if (o.offset == offset) {
        return o.digest;
      }
    }
  }
  return ColdLeaf(index);
}

void PartitionTree::MarkPathDirty(size_t leaf_index) {
  size_t index = leaf_index;
  for (int level = depth() - 1; level >= 0; --level) {
    index /= branching_;
    Node& node = levels_[level][index];
    if (node.dirty && node.stale && !node.cold) {
      break;  // everything above is already marked
    }
    // A grow can leave nodes dirty (model) but not stale (digest preserved),
    // and a Fill leaves them cold; a real leaf change must invalidate the
    // digest, so keep walking until the node is dirty, stale and not cold.
    node.dirty = true;
    node.stale = true;
    node.cold = false;
  }
}

size_t PartitionTree::LevelWidth(int level) const {
  if (level == depth()) {
    return leaf_count_;
  }
  return levels_[level].size();
}

std::pair<size_t, size_t> PartitionTree::LeafRange(int level,
                                                   size_t index) const {
  // span(level) = branching ^ (depth - level)
  size_t span = 1;
  for (int l = level; l < depth(); ++l) {
    span *= branching_;
  }
  size_t first = index * span;
  size_t last = std::min(first + span, leaf_count_);
  return {first, last};
}

Digest PartitionTree::ColdDigest(int height) {
  while (cold_digests_.size() <= static_cast<size_t>(height)) {
    const std::vector<Digest> children(branching_, cold_digests_.back());
    ++hotpath::counters().tree_nodes_rehashed;
    cold_digests_.push_back(InteriorDigest(
        static_cast<int>(cold_digests_.size()), children));
  }
  return cold_digests_[height];
}

Digest PartitionTree::ComputeNode(int level, size_t index) {
  const Node& node = levels_[level][index];
  const int height = depth() - level;
  ++recomputed_nodes_;
  if (node.stale && !node.cold) {
    ++hotpath::counters().tree_nodes_rehashed;
    return InteriorDigest(height, ChildDigests(level, index));
  }
  // The digest is known without hashing: preserved across a grow, or the
  // cold digest of its height. The interior children still get their model
  // visit (the cost model charges a whole-subtree recompute), but no bytes
  // are hashed for them unless their own digests are stale.
  if (height > 1) {
    const size_t first = index * branching_;
    const size_t last = std::min(first + branching_, LevelWidth(level + 1));
    for (size_t child = first; child < last; ++child) {
      NodeDigest(level + 1, child);
    }
  }
  if (!node.stale) {
    ++hotpath::counters().tree_nodes_preserved;
    return node.digest;
  }
  return ColdDigest(height);
}

Digest PartitionTree::NodeDigest(int level, size_t index) {
  if (level == depth()) {
    return Leaf(index);
  }
  Node& node = levels_[level][index];
  if (node.dirty) {
    node.digest = ComputeNode(level, index);
    node.dirty = false;
    node.stale = false;
  }
  return node.digest;
}

std::vector<Digest> PartitionTree::ChildDigests(int level, size_t index) {
  std::vector<Digest> out;
  size_t child_width = LevelWidth(level + 1);
  size_t first = index * branching_;
  size_t last = std::min(first + branching_, child_width);
  out.reserve(last - first);
  for (size_t child = first; child < last; ++child) {
    out.push_back(NodeDigest(level + 1, child));
  }
  return out;
}

Digest PartitionTree::Root() {
  return RootDigest(NodeDigest(0, 0), leaf_count_);
}

}  // namespace bftbase
