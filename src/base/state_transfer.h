// Abstract state transfer (paper §2.2).
//
// "When a replica is fetching state, it recurses down a hierarchy of
// meta-data to determine which partitions are out of date. When it reaches
// the leaves of the hierarchy (which are the abstract objects), it fetches
// only the objects that are corrupt or out of date."
//
// Wire sub-protocol (carried opaquely in the BFT layer's STATE envelopes):
//   FETCH-ROOT             -> ROOT-INFO {seq, root, leaf_count}
//   FETCH-META {seq,l,i}   -> META {seq, l, i, child digests}
//   FETCH-DATA {seq, idx*} -> DATA {seq, (idx, value)*}
//
// Replies are self-verifying: every META is checked against the parent
// digest (the root against the agreed checkpoint digest), and every DATA
// value against its leaf digest, so a Byzantine replica can at worst waste
// our time. Discovery mode (unknown target) requires f+1 replicas to agree
// on (seq, root) before adopting it: at least one of them is correct, and a
// correct replica's checkpoint is on the canonical history.
//
// During proactive recovery the fetcher is given a "local source" (the
// abstract state saved to disk before the reboot): a leaf whose saved digest
// matches the group's digest is installed from disk without touching the
// network — that is what makes frequent recoveries cheap.
#ifndef SRC_BASE_STATE_TRANSFER_H_
#define SRC_BASE_STATE_TRANSFER_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/base/checkpoint_manager.h"
#include "src/bft/config.h"
#include "src/crypto/digest.h"
#include "src/util/bytes.h"

namespace bftbase {

class StateTransfer {
 public:
  struct Options {
    // Ablation (bench E5): disable the hierarchical optimization and fetch
    // every leaf regardless of whether the local copy already matches.
    bool fetch_everything = false;
  };

  StateTransfer(Simulation* sim, const Config& config, NodeId self,
                CheckpointManager* cm, Options options);
  StateTransfer(Simulation* sim, const Config& config, NodeId self,
                CheckpointManager* cm)
      : StateTransfer(sim, config, self, cm, Options{}) {}

  // Transport installed by the replica service.
  using SendFn = std::function<void(NodeId to, const Bytes& payload)>;
  void SetSender(SendFn fn) { send_ = std::move(fn); }

  // Completion handler: (seq, root) of the installed state.
  using DoneFn = std::function<void(SeqNum, const Digest&)>;
  void SetDone(DoneFn fn) { done_ = std::move(fn); }

  // Optional local source consulted before fetching a leaf: returns the
  // saved value if its digest matches `expected`.
  using LocalSourceFn =
      std::function<std::optional<Bytes>(size_t leaf, const Digest& expected)>;
  void SetLocalSource(LocalSourceFn fn) { local_source_ = std::move(fn); }

  // Starts fetching toward checkpoint (seq, root). seq == 0 means "discover
  // the group's latest checkpoint" (used by proactive recovery).
  void Start(SeqNum target_seq, const Digest& target_root);
  bool active() const { return active_; }

  // Abandons an in-progress transfer: drops every partial fetch and cancels
  // the retry timer. A crash or recovery restart MUST call this before
  // starting a new transfer — otherwise Start() is a silent no-op while
  // active_ and the half-applied partition set from the old target could be
  // resumed against a different one.
  void Abort();

  // Optional install hook: when set, MaybeFinish hands the verified updates
  // to this function instead of calling CheckpointManager::InstallFetchedState
  // directly. The durable layer uses it to persist the installed checkpoint
  // (pages + header + WAL truncation) atomically with the install.
  using InstallFn = std::function<void(SeqNum, const Digest&, size_t,
                                       const std::vector<ObjectUpdate>&)>;
  void SetInstaller(InstallFn fn) { installer_ = std::move(fn); }

  // Enables/disables answering Fetch* requests (disabled while this
  // replica's own state is mid-rebuild).
  void SetServing(bool serving) { serving_ = serving; }

  // While held, Fetch* requests are queued (up to kMaxHeldRequests, the rest
  // dropped for the fetcher to retry) instead of answered: the latest
  // checkpoint is taken but its digest work has not run yet, so no answer
  // about it may leave the replica. ReleaseServing answers the queued
  // requests in arrival order; DropHeldRequests (a crash) discards them.
  void HoldServing() { serving_held_ = true; }
  void ReleaseServing();
  void DropHeldRequests();

  // Byzantine fault hook: serve garbled partition values in DATA replies
  // (the state-transfer lying adversary). Fetchers verify every value
  // against its leaf digest, so poisoned values must be rejected and
  // re-fetched from another source — the property the adversary tests pin.
  void SetPoisonServing(bool poison) { poison_serving_ = poison; }
  uint64_t poisoned_values_served() const { return poisoned_values_served_; }

  // Entry point for all STATE messages (both directions).
  void HandleMessage(NodeId from, BytesView payload);

  // Telemetry.
  uint64_t leaves_fetched() const { return leaves_fetched_; }
  uint64_t leaves_from_local_source() const { return leaves_from_local_; }
  uint64_t meta_requests_sent() const { return meta_requests_sent_; }
  uint64_t bytes_fetched() const { return bytes_fetched_; }
  void ResetCounters() {
    leaves_fetched_ = leaves_from_local_ = meta_requests_sent_ =
        bytes_fetched_ = 0;
  }

 private:
  enum SubType : uint8_t {
    kFetchRoot = 1,
    kRootInfo = 2,
    kFetchMeta = 3,
    kMeta = 4,
    kFetchData = 5,
    kData = 6,
  };

  // --- Server side -----------------------------------------------------------
  void ServeFetchRoot(NodeId from);
  void ServeFetchMeta(NodeId from, BytesView payload);
  void ServeFetchData(NodeId from, BytesView payload);

  // --- Fetcher side ----------------------------------------------------------
  void HandleRootInfo(NodeId from, BytesView payload);
  void HandleMeta(NodeId from, BytesView payload);
  void HandleData(NodeId from, BytesView payload);

  void BeginDescent();
  void RequestMeta(int level, size_t index, const Digest& expected);
  void ProcessMetaNode(int level, size_t index,
                       const std::vector<Digest>& children);
  void ConsiderLeaf(size_t leaf, const Digest& expected);
  void FlushDataRequests(bool force);
  void MaybeFinish();
  void OnRetryTimer();
  NodeId NextSource();

  Simulation* sim_;
  Config config_;
  NodeId self_;
  CheckpointManager* cm_;
  Options options_;
  SendFn send_;
  DoneFn done_;
  LocalSourceFn local_source_;
  InstallFn installer_;

  bool serving_ = true;
  static constexpr size_t kMaxHeldRequests = 1024;
  bool serving_held_ = false;
  std::deque<std::pair<NodeId, Bytes>> held_requests_;
  bool poison_serving_ = false;
  uint64_t poisoned_values_served_ = 0;
  bool active_ = false;
  bool discovering_ = false;
  SeqNum target_seq_ = 0;
  Digest target_root_;
  size_t target_leaf_count_ = 0;
  bool target_verified_ = false;  // root equation checked against a META

  // Discovery votes: (seq, root, leaf_count) -> replicas.
  struct RootClaim {
    SeqNum seq;
    Digest root;
    uint64_t leaf_count;
    bool operator<(const RootClaim& o) const {
      if (seq != o.seq) {
        return seq < o.seq;
      }
      if (!(root == o.root)) {
        return root < o.root;
      }
      return leaf_count < o.leaf_count;
    }
  };
  std::map<RootClaim, std::set<NodeId>> root_claims_;

  // Outstanding meta fetches: (level, index) -> expected digest.
  std::map<std::pair<int, size_t>, Digest> outstanding_meta_;
  // Leaves that must be fetched: leaf -> expected digest.
  std::map<size_t, Digest> needed_leaves_;
  // Leaves currently requested, grouped by request batch.
  std::set<size_t> requested_leaves_;
  std::deque<size_t> data_queue_;
  // Collected updates (leaf-indexed).
  std::map<size_t, Bytes> fetched_values_;

  TimerId retry_timer_ = 0;
  int next_source_ = 0;

  uint64_t leaves_fetched_ = 0;
  uint64_t leaves_from_local_ = 0;
  uint64_t meta_requests_sent_ = 0;
  uint64_t bytes_fetched_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BASE_STATE_TRANSFER_H_
