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

size_t PartitionTree::Span(int height) const {
  size_t span = 1;
  for (int h = 0; h < height; ++h) {
    span *= branching_;
  }
  return span;
}

void PartitionTree::Resize(size_t leaf_count) {
  if (leaf_count <= leaf_count_) {
    return;  // never shrinks
  }
  const size_t old_leaf_count = leaf_count_;
  const int old_depth = static_cast<int>(widths_.size()) - 1;
  Node old_root = root_;
  std::vector<std::unique_ptr<Node[]>> old_groups =
      std::exchange(groups_, {});
  leaf_count_ = leaf_count;
  block_slots_.resize((leaf_count_ + branching_ - 1) / branching_, 0);
  widths_.assign(1, leaf_count_);
  do {
    widths_.push_back((widths_.back() + branching_ - 1) / branching_);
  } while (widths_.back() > 1);
  // Every node starts dirty and stale: one unsplit root.
  root_ = Node{};
  // The cost model charges a grow as a full rebuild: every interior node is
  // dirty and the next Root() counts each one as recomputed. Real hashing
  // can do better: a node's hash covers (height, children), so the node at
  // the same height and index, once its leaf range was complete under the
  // old leaf count, covers the same leaves as before, whether or not the
  // depth grew. Those subtrees keep their digests and their stale and cold
  // marks; the next Root() re-hashes only the paths to the new leaves.
  if (old_leaf_count > 0) {
    GraftComplete(old_root, old_depth, 0, old_leaf_count, old_groups);
  }
}

void PartitionTree::GraftComplete(
    const Node& node, int height, size_t index, size_t old_leaf_count,
    std::vector<std::unique_ptr<Node[]>>& old_groups) {
  if ((index + 1) * Span(height) <= old_leaf_count) {
    *Find(depth() - height, index) = Graft(node, old_groups);
    return;
  }
  // A partial node left unsplit is dirty and stale below, as a new node
  // is; so is the unused end of a group.
  if (node.children == 0) {
    return;
  }
  const Node* children = old_groups[node.children - 1].get();
  for (size_t k = 0; k < branching_; ++k) {
    GraftComplete(children[k], height - 1, index * branching_ + k,
                  old_leaf_count, old_groups);
  }
}

PartitionTree::Node PartitionTree::Graft(
    Node node, std::vector<std::unique_ptr<Node[]>>& old_groups) {
  node.dirty = true;
  if (node.children != 0) {
    std::unique_ptr<Node[]> group = std::move(old_groups[node.children - 1]);
    for (size_t k = 0; k < branching_; ++k) {
      group[k] = Graft(group[k], old_groups);
    }
    groups_.push_back(std::move(group));
    node.children = static_cast<uint32_t>(groups_.size());
  }
  return node;
}

void PartitionTree::Split(Node& node, int height) {
  assert(node.children == 0 && height > 1);
  Node child = node;
  if (node.cold && !node.stale) {
    child.digest = ColdDigest(height - 1);  // hashed with the node's own
  }
  auto group = std::make_unique<Node[]>(branching_);
  std::fill_n(group.get(), branching_, child);
  groups_.push_back(std::move(group));
  node.children = static_cast<uint32_t>(groups_.size());
  assert(node.children == groups_.size());
}

void PartitionTree::Fill(const Digest& digest) {
  fill_ = digest;
  filled_ = leaf_count_;
  cold_digests_.assign(1, digest);
  std::fill(block_slots_.begin(), block_slots_.end(), 0);
  override_blocks_.clear();
  override_count_ = 0;
  // Every node is dirty and stale, and cold if its leaf range is complete.
  // Only the nodes on the path to the last leaf can be partial, so the
  // stored tree is that path, each node split into its complete (cold)
  // children, its child on the path and the unused rest.
  groups_.clear();
  root_ = Node{};
  Node* node = &root_;
  for (int height = depth();; --height) {
    node->cold = leaf_count_ % Span(height) == 0;
    if (node->cold || height == 1) {
      break;
    }
    Split(*node, height);
    const size_t on_path = (leaf_count_ - 1) / Span(height - 1) % branching_;
    Node* children = Children(*node);
    for (size_t k = 0; k < on_path; ++k) {
      children[k].cold = true;
    }
    node = &children[on_path];
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
  // Top down: an unsplit node is split before it is marked, so that its
  // other children keep its flags.
  Node* node = &root_;
  size_t span = Span(depth() - 1);  // leaves under each of its children
  for (int height = depth();; --height, span /= branching_) {
    if (height > 1 && node->children == 0) {
      Split(*node, height);
    }
    // A grow can leave nodes dirty (model) but not stale (digest preserved),
    // and a Fill leaves them cold; a real leaf change must invalidate the
    // digest, so every node on the path ends dirty, stale and not cold.
    node->dirty = true;
    node->stale = true;
    node->cold = false;
    if (height == 1) {
      break;
    }
    node = &Children(*node)[leaf_index / span % branching_];
  }
}

size_t PartitionTree::LevelWidth(int level) const {
  return widths_[depth() - level];
}

std::pair<size_t, size_t> PartitionTree::LeafRange(int level,
                                                   size_t index) const {
  const size_t span = Span(depth() - level);
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

PartitionTree::Node* PartitionTree::Find(int level, size_t index) {
  Node* node = &root_;
  size_t span = Span(level) / branching_;  // nodes at `level` per child
  for (int l = 0; l < level; ++l, span /= branching_) {
    if (node->children == 0) {
      if (!node->dirty) {
        return nullptr;
      }
      Split(*node, depth() - l);
    }
    node = &Children(*node)[index / span % branching_];
  }
  return node;
}

Digest PartitionTree::Visit(Node& node, int height, size_t index) {
  if (!node.dirty) {
    return node.digest;
  }
  if (node.cold && node.children == 0) {
    // A whole cold subtree: the model counts each of its nodes, as a visit
    // of each would; its digest is its height's cold digest, kept across a
    // grow or hashed once per fill.
    uint64_t nodes = 0;
    for (int h = 0; h < height; ++h) {
      nodes = nodes * branching_ + 1;
    }
    recomputed_nodes_ += nodes;
    if (node.stale) {
      node.digest = ColdDigest(height);
    } else {
      hotpath::counters().tree_nodes_preserved += nodes;
    }
  } else {
    if (node.children == 0 && height > 1) {
      Split(node, height);  // a region a grow added: hashed node by node
    }
    ++recomputed_nodes_;
    if (node.stale && !node.cold) {
      ++hotpath::counters().tree_nodes_rehashed;
      node.digest = InteriorDigest(height, VisitChildren(node, height, index));
    } else {
      // The digest is known without hashing: preserved across a grow, or
      // the cold digest of its height. The interior children still get
      // their model visit (the cost model charges a whole-subtree
      // recompute), but no bytes are hashed for them unless their own
      // digests are stale.
      if (height > 1) {
        VisitChildren(node, height, index);
      }
      if (node.stale) {
        node.digest = ColdDigest(height);
      } else {
        ++hotpath::counters().tree_nodes_preserved;
      }
    }
  }
  node.dirty = false;
  node.stale = false;
  return node.digest;
}

std::vector<Digest> PartitionTree::VisitChildren(const Node& node, int height,
                                                 size_t index) {
  const size_t first = index * branching_;
  const size_t last = std::min(first + branching_, widths_[height - 1]);
  std::vector<Digest> out;
  out.reserve(last - first);
  for (size_t child = first; child < last; ++child) {
    out.push_back(height == 1 ? Leaf(child)
                              : Visit(Children(node)[child - first],
                                      height - 1, child));
  }
  return out;
}

Digest PartitionTree::NodeDigest(int level, size_t index) {
  if (level == depth()) {
    return Leaf(index);
  }
  // Below a clean unsplit node every node holds its height's cold digest:
  // a read there splits nothing and counts nothing.
  Node* node = Find(level, index);
  const int height = depth() - level;
  return node != nullptr ? Visit(*node, height, index) : ColdDigest(height);
}

std::vector<Digest> PartitionTree::ChildDigests(int level, size_t index) {
  const int height = depth() - level;
  Node* node = Find(level, index);
  if (node != nullptr && node->children == 0 && height > 1) {
    if (node->dirty) {
      Split(*node, height);  // its children are cleaned, it stays dirty
    } else {
      node = nullptr;
    }
  }
  if (node == nullptr) {
    // A clean cold subtree: every child holds the cold digest of its height
    // (a leaf, the fill).
    return std::vector<Digest>(branching_, ColdDigest(height - 1));
  }
  return VisitChildren(*node, height, index);
}

Digest PartitionTree::Root() {
  return RootDigest(Visit(root_, depth(), 0), leaf_count_);
}

}  // namespace bftbase
