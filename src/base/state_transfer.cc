#include "src/base/state_transfer.h"

#include <algorithm>
#include <cassert>

#include "src/util/codec.h"
#include "src/util/log.h"

namespace bftbase {

namespace {

// Leaves requested per FETCH-DATA message.
constexpr size_t kDataBatch = 32;
// Retransmission interval for unanswered fetches.
constexpr SimTime kRetryInterval = 200 * kMillisecond;

}  // namespace

StateTransfer::StateTransfer(Simulation* sim, const Config& config,
                             NodeId self, CheckpointManager* cm,
                             Options options)
    : sim_(sim), config_(config), self_(self), cm_(cm), options_(options) {}

void StateTransfer::HandleMessage(NodeId from, BytesView payload) {
  if (payload.empty()) {
    return;
  }
  Decoder dec(payload);
  uint8_t sub = dec.GetU8();
  BytesView rest = payload.subspan(1);
  if (serving_held_ &&
      (sub == kFetchRoot || sub == kFetchMeta || sub == kFetchData)) {
    if (held_requests_.size() < kMaxHeldRequests) {
      held_requests_.emplace_back(from, Bytes(payload.begin(), payload.end()));
    }
    return;
  }
  switch (sub) {
    case kFetchRoot:
      ServeFetchRoot(from);
      break;
    case kRootInfo:
      HandleRootInfo(from, rest);
      break;
    case kFetchMeta:
      ServeFetchMeta(from, rest);
      break;
    case kMeta:
      HandleMeta(from, rest);
      break;
    case kFetchData:
      ServeFetchData(from, rest);
      break;
    case kData:
      HandleData(from, rest);
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------------ server

void StateTransfer::ReleaseServing() {
  serving_held_ = false;
  std::deque<std::pair<NodeId, Bytes>> held;
  held.swap(held_requests_);
  for (const auto& [from, payload] : held) {
    HandleMessage(from, BytesView(payload.data(), payload.size()));
  }
}

void StateTransfer::DropHeldRequests() {
  serving_held_ = false;
  held_requests_.clear();
}

void StateTransfer::ServeFetchRoot(NodeId from) {
  if (!serving_ || !send_) {
    return;
  }
  Encoder enc;
  enc.PutU8(kRootInfo);
  enc.PutU64(cm_->latest_seq());
  enc.PutFixed(cm_->latest_root().view());
  enc.PutU64(cm_->LeafCount());
  send_(from, enc.Take());
}

void StateTransfer::ServeFetchMeta(NodeId from, BytesView payload) {
  if (!serving_ || !send_) {
    return;
  }
  Decoder dec(payload);
  SeqNum seq = dec.GetU64();
  int level = static_cast<int>(dec.GetU32());
  size_t index = dec.GetU64();
  if (!dec.AtEnd()) {
    return;
  }
  if (seq != cm_->latest_seq()) {
    // Cannot serve that checkpoint (superseded); hint our latest instead.
    ServeFetchRoot(from);
    return;
  }
  PartitionTree& tree = cm_->tree();
  if (level < 0 || level >= tree.depth() ||
      index >= tree.LevelWidth(level)) {
    return;
  }
  std::vector<Digest> children = tree.ChildDigests(level, index);
  Encoder enc;
  enc.PutU8(kMeta);
  enc.PutU64(seq);
  enc.PutU32(static_cast<uint32_t>(level));
  enc.PutU64(index);
  enc.PutU64(cm_->LeafCount());
  enc.PutU32(static_cast<uint32_t>(children.size()));
  for (const Digest& child : children) {
    enc.PutFixed(child.view());
  }
  send_(from, enc.Take());
}

void StateTransfer::ServeFetchData(NodeId from, BytesView payload) {
  if (!serving_ || !send_) {
    return;
  }
  Decoder dec(payload);
  SeqNum seq = dec.GetU64();
  uint32_t count = dec.GetU32();
  if (seq != cm_->latest_seq() || count > 4 * kDataBatch) {
    return;
  }
  Encoder enc;
  enc.PutU8(kData);
  enc.PutU64(seq);
  std::vector<std::pair<size_t, Bytes>> values;
  for (uint32_t i = 0; i < count; ++i) {
    size_t leaf = dec.GetU64();
    if (!dec.ok() || leaf >= cm_->LeafCount()) {
      return;
    }
    Bytes value = cm_->LeafValue(leaf);
    if (poison_serving_) {
      // State-transfer lying: flip bits in the served value. The fetcher's
      // per-leaf digest verification must reject this and rotate sources.
      for (uint8_t& b : value) {
        b ^= 0xA5;
      }
      if (value.empty()) {
        value.push_back(0xA5);  // even empty leaves lie
      }
      ++poisoned_values_served_;
    }
    values.emplace_back(leaf, std::move(value));
  }
  if (!dec.AtEnd()) {
    return;
  }
  enc.PutU32(static_cast<uint32_t>(values.size()));
  for (auto& [leaf, value] : values) {
    enc.PutU64(leaf);
    enc.PutBytes(value);
  }
  send_(from, enc.Take());
}

// ----------------------------------------------------------------- fetcher

void StateTransfer::Start(SeqNum target_seq, const Digest& target_root) {
  if (active_) {
    return;
  }
  active_ = true;
  target_verified_ = false;
  root_claims_.clear();
  outstanding_meta_.clear();
  needed_leaves_.clear();
  requested_leaves_.clear();
  data_queue_.clear();
  fetched_values_.clear();

  if (target_seq == 0 && target_root.IsZero()) {
    discovering_ = true;
    Encoder enc;
    enc.PutU8(kFetchRoot);
    Bytes payload = enc.Take();
    for (NodeId r = 0; r < config_.n(); ++r) {
      if (r != self_ && send_) {
        send_(r, payload);
      }
    }
  } else {
    discovering_ = false;
    target_seq_ = target_seq;
    target_root_ = target_root;
    BeginDescent();
  }

  retry_timer_ = sim_->After(self_, kRetryInterval, [this] { OnRetryTimer(); });
}

void StateTransfer::Abort() {
  active_ = false;
  discovering_ = false;
  target_verified_ = false;
  target_seq_ = 0;
  target_root_ = Digest();
  root_claims_.clear();
  outstanding_meta_.clear();
  needed_leaves_.clear();
  requested_leaves_.clear();
  data_queue_.clear();
  fetched_values_.clear();
  if (retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }
}

NodeId StateTransfer::NextSource() {
  for (int i = 0; i < config_.n(); ++i) {
    next_source_ = (next_source_ + 1) % config_.n();
    if (next_source_ != self_) {
      return next_source_;
    }
  }
  return (self_ + 1) % config_.n();
}

void StateTransfer::BeginDescent() {
  // The root node's expected digest is checked through the root equation
  // (H(node0 || leaf_count) == target_root) rather than a parent digest.
  RequestMeta(0, 0, Digest());
}

void StateTransfer::RequestMeta(int level, size_t index,
                                const Digest& expected) {
  outstanding_meta_[{level, index}] = expected;
  ++meta_requests_sent_;
  Encoder enc;
  enc.PutU8(kFetchMeta);
  enc.PutU64(target_seq_);
  enc.PutU32(static_cast<uint32_t>(level));
  enc.PutU64(index);
  if (send_) {
    send_(NextSource(), enc.Take());
  }
}

void StateTransfer::HandleRootInfo(NodeId from, BytesView payload) {
  if (!active_ || !discovering_) {
    return;
  }
  Decoder dec(payload);
  const SeqNum seq = dec.GetU64();
  const Digest root = Digest::FromBytes(dec.GetFixed(Digest::kSize));
  const uint64_t leaf_count = dec.GetU64();
  if (!dec.AtEnd()) {
    return;
  }
  if (leaf_count != cm_->LeafCount()) {
    LOG_WARN << "state transfer: ROOT-INFO claims " << leaf_count
             << " leaves, we have " << cm_->LeafCount();
    return;
  }
  root_claims_[{seq, root}].insert(from);

  // Adopt the highest checkpoint vouched for by f+1 replicas (at least one
  // of which must be correct).
  const std::pair<SeqNum, Digest>* best = nullptr;
  for (const auto& [candidate, voters] : root_claims_) {
    if (voters.size() >= static_cast<size_t>(config_.f + 1)) {
      if (best == nullptr || candidate.first > best->first) {
        best = &candidate;
      }
    }
  }
  if (best == nullptr) {
    return;
  }
  discovering_ = false;
  target_seq_ = best->first;
  target_root_ = best->second;
  BeginDescent();
}

void StateTransfer::HandleMeta(NodeId /*from*/, BytesView payload) {
  if (!active_ || discovering_) {
    return;
  }
  Decoder dec(payload);
  SeqNum seq = dec.GetU64();
  int level = static_cast<int>(dec.GetU32());
  size_t index = dec.GetU64();
  const uint64_t leaf_count = dec.GetU64();
  uint32_t count = dec.GetU32();
  if (seq != target_seq_ || count > 1024) {
    return;
  }
  if (leaf_count != cm_->LeafCount()) {
    LOG_WARN << "state transfer: META claims " << leaf_count
             << " leaves, we have " << cm_->LeafCount();
    return;  // the retry timer re-requests from another source
  }
  std::vector<Digest> children;
  children.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    children.push_back(Digest::FromBytes(dec.GetFixed(Digest::kSize)));
  }
  if (!dec.AtEnd()) {
    return;
  }

  auto out_it = outstanding_meta_.find({level, index});
  if (out_it == outstanding_meta_.end()) {
    return;  // not requested (duplicate or unsolicited)
  }

  Digest node =
      PartitionTree::InteriorDigest(cm_->tree().depth() - level, children);
  sim_->ChargeCpu(sim_->cost().DigestCost(children.size() * Digest::kSize));
  if (level == 0) {
    // Verify through the root equation, which binds the leaf count.
    if (PartitionTree::RootDigest(node, leaf_count) != target_root_) {
      LOG_WARN << "state transfer: root META failed verification";
      return;  // Byzantine or stale; the retry timer re-requests
    }
    target_verified_ = true;
  } else {
    if (node != out_it->second) {
      LOG_WARN << "state transfer: META digest mismatch at level " << level;
      return;
    }
  }
  outstanding_meta_.erase(out_it);
  ProcessMetaNode(level, index, children);
  MaybeFinish();
}

void StateTransfer::ProcessMetaNode(int level, size_t index,
                                    const std::vector<Digest>& children) {
  const size_t branching = cm_->tree().branching();
  const bool children_are_leaves = level + 1 == cm_->tree().depth();

  size_t first_child = index * branching;
  for (size_t i = 0; i < children.size(); ++i) {
    size_t child = first_child + i;
    const Digest& expected = children[i];
    if (children_are_leaves) {
      ConsiderLeaf(child, expected);
      continue;
    }
    // Interior child: skip the whole subtree when it matches our local tree
    // and nothing under it was modified since our latest checkpoint.
    if (!options_.fetch_everything) {
      auto [lo, hi] = cm_->tree().LeafRange(level + 1, child);
      if (!cm_->HasDirtyInRange(lo, hi) &&
          cm_->tree().NodeDigest(level + 1, child) == expected) {
        continue;
      }
    }
    RequestMeta(level + 1, child, expected);
  }
}

void StateTransfer::ConsiderLeaf(size_t leaf, const Digest& expected) {
  if (!options_.fetch_everything &&
      cm_->CurrentLeafDigest(leaf) == expected) {
    return;  // already up to date
  }
  if (local_source_) {
    std::optional<Bytes> local = local_source_(leaf, expected);
    if (local.has_value()) {
      fetched_values_[leaf] = std::move(*local);
      ++leaves_from_local_;
      return;
    }
  }
  if (needed_leaves_.emplace(leaf, expected).second) {
    data_queue_.push_back(leaf);
  }
  FlushDataRequests(/*force=*/false);
}

void StateTransfer::FlushDataRequests(bool force) {
  while (data_queue_.size() >= kDataBatch ||
         (force && !data_queue_.empty())) {
    Encoder enc;
    enc.PutU8(kFetchData);
    enc.PutU64(target_seq_);
    size_t batch = std::min(kDataBatch, data_queue_.size());
    enc.PutU32(static_cast<uint32_t>(batch));
    for (size_t i = 0; i < batch; ++i) {
      size_t leaf = data_queue_.front();
      data_queue_.pop_front();
      enc.PutU64(leaf);
      requested_leaves_.insert(leaf);
    }
    if (send_) {
      send_(NextSource(), enc.Take());
    }
  }
}

void StateTransfer::HandleData(NodeId /*from*/, BytesView payload) {
  if (!active_ || discovering_) {
    return;
  }
  Decoder dec(payload);
  SeqNum seq = dec.GetU64();
  uint32_t count = dec.GetU32();
  if (seq != target_seq_ || count > 4 * kDataBatch) {
    return;
  }
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    size_t leaf = dec.GetU64();
    Bytes value = dec.GetBytes();
    auto it = needed_leaves_.find(leaf);
    if (it == needed_leaves_.end()) {
      continue;
    }
    sim_->ChargeCpu(sim_->cost().DigestCost(value.size()));
    if (Digest::Of(value) != it->second) {
      LOG_WARN << "state transfer: DATA digest mismatch for leaf " << leaf;
      continue;  // Byzantine value; retry will re-request elsewhere
    }
    bytes_fetched_ += value.size();
    ++leaves_fetched_;
    fetched_values_[leaf] = std::move(value);
    needed_leaves_.erase(it);
    requested_leaves_.erase(leaf);
  }
  MaybeFinish();
}

void StateTransfer::MaybeFinish() {
  if (!active_ || discovering_ || !target_verified_) {
    return;
  }
  // Flush any straggler batch once the meta descent has finished.
  if (outstanding_meta_.empty()) {
    FlushDataRequests(/*force=*/true);
  }
  if (!outstanding_meta_.empty() || !needed_leaves_.empty() ||
      !data_queue_.empty()) {
    return;
  }
  active_ = false;
  if (retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }

  std::vector<ObjectUpdate> updates;
  updates.reserve(fetched_values_.size());
  for (auto& [leaf, value] : fetched_values_) {
    updates.push_back(ObjectUpdate{leaf, std::move(value)});
  }
  fetched_values_.clear();
  if (installer_) {
    installer_(target_seq_, target_root_, updates);
  } else {
    cm_->InstallFetchedState(target_seq_, target_root_, updates);
  }
  LOG_INFO << "state transfer complete: seq " << target_seq_ << ", "
           << leaves_fetched_ << " leaves fetched, " << leaves_from_local_
           << " from local source";
  if (done_) {
    done_(target_seq_, target_root_);
  }
}

void StateTransfer::OnRetryTimer() {
  retry_timer_ = 0;
  if (!active_) {
    return;
  }
  if (discovering_) {
    Encoder enc;
    enc.PutU8(kFetchRoot);
    Bytes payload = enc.Take();
    for (NodeId r = 0; r < config_.n(); ++r) {
      if (r != self_ && send_) {
        send_(r, payload);
      }
    }
  } else {
    // Re-request all outstanding metas and re-batch all unanswered leaves
    // from a different source.
    auto metas = outstanding_meta_;
    for (const auto& [key, expected] : metas) {
      Encoder enc;
      enc.PutU8(kFetchMeta);
      enc.PutU64(target_seq_);
      enc.PutU32(static_cast<uint32_t>(key.first));
      enc.PutU64(key.second);
      if (send_) {
        send_(NextSource(), enc.Take());
      }
      ++meta_requests_sent_;
    }
    data_queue_.clear();
    requested_leaves_.clear();
    for (const auto& [leaf, expected] : needed_leaves_) {
      data_queue_.push_back(leaf);
    }
    FlushDataRequests(/*force=*/true);
  }
  retry_timer_ = sim_->After(self_, kRetryInterval, [this] { OnRetryTimer(); });
}

}  // namespace bftbase
