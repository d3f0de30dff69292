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

void PartitionTree::Resize(size_t leaf_count) {
  if (leaf_count <= leaf_count_ && !levels_.empty()) {
    return;  // never shrinks
  }
  const size_t old_leaf_count = levels_.empty() ? 0 : leaf_count_;
  std::vector<std::vector<Node>> old_levels = std::move(levels_);
  leaf_count_ = std::max<size_t>(leaf_count, 1);
  block_slots_.resize((leaf_count_ + branching_ - 1) / branching_, 0);
  Rebuild();
  // The cost model charges a grow as a full rebuild: every interior node is
  // dirty and the next Root() counts each one as recomputed. Real hashing
  // can do better: a node's hash covers (level, index, children), so when
  // the depth is unchanged, any node whose leaf range was complete under the
  // old leaf count — and whose digest was current — hashes to the same
  // bytes. Keep those digests; the next Root() skips re-hashing them. Depth
  // growth shifts every node's level id (which is bound into its hash), so
  // nothing is preservable then.
  if (old_leaf_count == 0 || old_levels.size() != levels_.size()) {
    return;
  }
  size_t span = 1;  // leaves covered per node at the current level
  for (int level = depth() - 1; level >= 0; --level) {
    span *= branching_;
    const auto& old_level = old_levels[level];
    auto& new_level = levels_[level];
    const size_t limit = std::min(old_level.size(), new_level.size());
    for (size_t i = 0; i < limit; ++i) {
      if (!old_level[i].stale && (i + 1) * span <= old_leaf_count) {
        new_level[i].digest = old_level[i].digest;
        new_level[i].stale = false;  // dirty stays true for the model
      }
    }
  }
}

void PartitionTree::Rebuild() {
  // Number of interior levels needed so the top level has width 1.
  levels_.clear();
  size_t width = leaf_count_;
  std::vector<size_t> widths;
  do {
    width = (width + branching_ - 1) / branching_;
    widths.push_back(width);
  } while (width > 1);
  // widths are bottom-up; levels_ is top-down.
  for (auto it = widths.rbegin(); it != widths.rend(); ++it) {
    levels_.emplace_back(*it);  // all nodes start dirty
  }
}

void PartitionTree::Fill(const Digest& digest) {
  fill_ = digest;
  filled_ = leaf_count_;
  std::fill(block_slots_.begin(), block_slots_.end(), 0);
  override_blocks_.clear();
  override_count_ = 0;
  for (auto& level : levels_) {
    for (Node& node : level) {
      node.dirty = true;
      node.stale = true;
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
    if (node.dirty && node.stale) {
      break;  // everything above is already marked
    }
    // A grow can leave nodes dirty (model) but not stale (digest preserved);
    // a real leaf change must invalidate the digest too, so keep walking
    // until both flags are set.
    node.dirty = true;
    node.stale = true;
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

Digest PartitionTree::ComputeNode(int level, size_t index) {
  size_t child_width = LevelWidth(level + 1);
  size_t first = index * branching_;
  size_t last = std::min(first + branching_, child_width);
  Node& node = levels_[level][index];
  if (!node.stale) {
    // Digest preserved across a grow. The children still get their model
    // visit (the cost model charges a grow as a whole-subtree recompute),
    // but no bytes are hashed for them unless their own digests are stale.
    for (size_t child = first; child < last; ++child) {
      NodeDigest(level + 1, child);
    }
    ++recomputed_nodes_;
    ++hotpath::counters().tree_nodes_preserved;
    return node.digest;
  }
  ++hotpath::counters().tree_nodes_rehashed;
  Digest::Builder builder;
  builder.Add(static_cast<uint64_t>(level));
  builder.Add(static_cast<uint64_t>(index));
  // The leaves of a block with no override hold their cold digest.
  const bool cold_block = level + 1 == depth() && block_slots_[index] == 0;
  for (size_t child = first; child < last; ++child) {
    builder.Add(cold_block ? ColdLeaf(child) : NodeDigest(level + 1, child));
  }
  ++recomputed_nodes_;
  return builder.Build();
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
  // Bind the leaf count so states of different sizes cannot collide.
  return Digest::Builder()
      .Add(NodeDigest(0, 0))
      .Add(static_cast<uint64_t>(leaf_count_))
      .Build();
}

}  // namespace bftbase
