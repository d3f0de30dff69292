// The replica message log: per-sequence-number protocol state inside the
// current watermark window, plus certificate bookkeeping.
#ifndef SRC_BFT_LOG_H_
#define SRC_BFT_LOG_H_

#include <map>
#include <optional>
#include <set>

#include "src/bft/message.h"

namespace bftbase {

// Everything the replica knows about one sequence number in one view.
struct LogEntry {
  std::optional<PrePrepareMsg> pre_prepare;
  // Raw signed envelope of the pre-prepare, kept for view-change proofs.
  Bytes pre_prepare_wire;
  ViewNum view = 0;
  Digest digest;

  // PREPARE/COMMIT messages received for this (view, seq), keyed by sender.
  // Messages may arrive before the pre-prepare, so they are pooled with
  // their claimed digest and matched once the digest is known. The raw
  // prepare envelopes are kept for view-change proofs.
  struct Vote {
    Digest digest;
    Bytes wire;
  };
  std::map<NodeId, Vote> prepare_pool;
  std::map<NodeId, Digest> commit_pool;

  // Every request body the pre-prepare lists is held in the replica's store
  // (a replica prepares only then).
  bool has_bodies = false;
  // Installed from a NEW-VIEW re-proposal or a durable prepared certificate:
  // a quorum already vouched for the batch.
  bool certified = false;
  bool prepared = false;
  bool committed = false;
  bool executed = false;

  // Number of pooled votes whose digest matches the accepted pre-prepare.
  size_t MatchingPrepares() const {
    size_t count = 0;
    for (const auto& [node, vote] : prepare_pool) {
      if (vote.digest == digest) {
        ++count;
      }
    }
    return count;
  }
  size_t MatchingCommits() const {
    size_t count = 0;
    for (const auto& [node, d] : commit_pool) {
      if (d == digest) {
        ++count;
      }
    }
    return count;
  }
};

class MessageLog {
 public:
  // Entry accessors; Get creates on demand.
  LogEntry& Get(SeqNum seq) { return entries_[seq]; }
  const LogEntry* Find(SeqNum seq) const {
    auto it = entries_.find(seq);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool Contains(SeqNum seq) const { return entries_.count(seq) > 0; }

  // Garbage-collects entries at or below the stable checkpoint.
  void TruncateBelow(SeqNum stable_seq) {
    entries_.erase(entries_.begin(), entries_.lower_bound(stable_seq + 1));
  }

  // Clears per-view certificate state when moving to a new view, keeping
  // executed markers. Entries whose requests prepared are reported by the
  // view-change machinery before this is called.
  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  std::map<SeqNum, LogEntry>& entries() { return entries_; }
  const std::map<SeqNum, LogEntry>& entries() const { return entries_; }

 private:
  std::map<SeqNum, LogEntry> entries_;
};

}  // namespace bftbase

#endif  // SRC_BFT_LOG_H_
