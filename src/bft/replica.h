// BFT replica: the PBFT three-phase protocol, checkpointing, view changes,
// state-transfer triggering and proactive recovery driving.
//
// The replica is service-agnostic: execution, checkpoint digests and state
// transfer are delegated to a ServiceInterface (for BASE services that is
// base::ReplicaService, which implements them with the abstraction upcalls).
#ifndef SRC_BFT_REPLICA_H_
#define SRC_BFT_REPLICA_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "src/bft/channel.h"
#include "src/bft/config.h"
#include "src/bft/log.h"
#include "src/bft/message.h"
#include "src/bft/observer.h"
#include "src/bft/service.h"
#include "src/sim/simulation.h"

namespace bftbase {

class Replica : public SimNode {
 public:
  Replica(Simulation* sim, KeyTable* keys, const Config& config, NodeId id,
          ServiceInterface* service);

  void OnMessage(NodeId from, const Bytes& wire) override;

  // --- Proactive recovery ---------------------------------------------------

  // Arms a self-rearming watchdog that triggers StartProactiveRecovery every
  // `period`, first firing after `initial_delay` (use distinct delays per
  // replica to stagger recoveries so at most f recover at once).
  void EnableProactiveRecovery(SimTime period, SimTime initial_delay);
  // Recovers now: saves state to (simulated) disk, reboots, refreshes keys,
  // restarts the service from a clean state and rebuilds it from the saved
  // abstract state plus fetches of out-of-date objects.
  void StartProactiveRecovery();
  bool recovering() const { return recovering_; }
  uint64_t recoveries_completed() const { return recoveries_completed_; }
  SimTime last_recovery_duration() const { return last_recovery_duration_; }

  // --- Crash / restart-from-disk --------------------------------------------

  // Power loss: every piece of volatile protocol state is discarded (view,
  // log, reply cache, vote tallies, stashed messages, timers) and the crash
  // propagates to the service (which loses its unsynced WAL tail). The
  // replica object stays registered but drops all traffic until restarted.
  void Crash();
  // Restart after a crash: reload the durable checkpoint, replay the WAL
  // tail through the service, and rebuild the reply cache from the replayed
  // results. Falls back to a full group rebuild (the proactive-recovery
  // path) when the durable state fails verification or there is no storage.
  void RestartFromStorage();
  bool crashed() const { return crashed_; }

  // --- Introspection --------------------------------------------------------
  NodeId id() const { return id_; }
  ViewNum view() const { return view_; }
  bool IsPrimary() const { return config_.PrimaryOf(view_) == id_; }
  SeqNum last_executed() const { return last_executed_; }
  SeqNum stable_seq() const { return stable_seq_; }
  const Digest& stable_digest() const { return stable_digest_; }
  const MessageLog& log() const { return log_; }
  // Protocol counters live in the simulation's MetricsRegistry (keyed by
  // replica id) so benches can aggregate them; these are typed shortcuts.
  uint64_t requests_executed() const;
  uint64_t batches_executed() const;
  uint64_t view_changes_started() const;
  bool in_view_change() const { return in_view_change_; }
  // Current view-change timeout: doubles while view changes cascade, resets
  // to config().view_change_timeout once a view installs (tests assert the
  // reset after cascades).
  SimTime current_view_change_timeout() const { return view_change_timeout_; }
  const Config& config() const { return config_; }
  ServiceInterface* service() { return service_; }
  // Reply-cache size (regression tests for volatile state across restarts).
  size_t reply_cache_size() const { return reply_cache_.size(); }
  // Whether a prepared certificate for `seq` is retained — what VIEW-CHANGE
  // messages draw from (regression tests for durable restarts).
  bool has_prepared_cert(SeqNum seq) const {
    return prepared_certs_.count(seq) > 0;
  }
  // Clients with a request pending here, and request bodies held (pending
  // or listed by a batch above the stable checkpoint).
  size_t pending_request_count() const { return pending_.size(); }
  size_t stored_request_count() const { return requests_.size(); }
  // Provable stable checkpoint (may lag stable_seq() after a restart whose
  // local checkpoint never gathered 2f+1 votes).
  SeqNum proofed_stable_seq() const { return proofed_stable_seq_; }

  // Registers an observer for protocol transitions (see observer.h). One
  // observer per replica; pass nullptr to detach. Not owned.
  void SetObserver(ProtocolObserver* observer) { observer_ = observer; }

  // --- Fault-injection hooks (used by tests and experiment E7) --------------

  // Muted replica drops every message (crash/unresponsive model that keeps
  // the object alive).
  void SetMute(bool mute) { mute_ = mute; }
  // Byzantine: sends garbage execution results to clients.
  void SetCorruptReplies(bool corrupt) { corrupt_replies_ = corrupt; }
  // Byzantine primary: assigns conflicting digests to the same sequence
  // number for different backups (forces a view change to resolve).
  void SetEquivocate(bool equivocate) { equivocate_ = equivocate; }
  // Per-destination equivocation targeting: replicas whose bit is set in
  // `mask` receive the conflicting PRE-PREPARE, the rest receive the honest
  // one (two disjoint backup subsets see different digests). 0 restores the
  // legacy odd/even split used by SetEquivocate. Only effective while
  // SetEquivocate(true) is armed.
  void SetEquivocateMask(uint32_t mask) { equivocate_mask_ = mask; }
  // Byzantine slow primary: every PRE-PREPARE multicast is held back by
  // `delay` before hitting the wire (the primary's own log entry installs
  // immediately). Calibrated just under the backups' view-change timeout
  // this throttles the group while staying technically live — the attack
  // the primary quality monitor (config.primary_quality_monitor) detects.
  // 0 disables.
  void SetProposalDelay(SimTime delay) { proposal_delay_ = delay; }
  // Proactive view changes fired by the primary quality monitor.
  uint64_t quality_view_changes() const;

 private:
  // --- Null-request heartbeat -------------------------------------------------
  void ArmNullRequestTimer();
  void OnNullRequestTimer();
  TimerId null_request_timer_ = 0;
  SeqNum null_timer_marker_ = 0;  // next_seq_ when the timer was armed

  // --- Normal-case protocol -------------------------------------------------
  // Handlers receive both the parsed message and the raw wire envelope; the
  // wire is retained where it may serve in a transferable proof (pre-prepare,
  // prepare, checkpoint) or be passed on (client requests, relayed to the
  // primary or served to a peer's FETCH).
  void HandleRequest(const WireMessage& msg, const Bytes& wire);
  void MaybeSendPrePrepare();
  // When the primary first refused a proposal because its next sequence
  // number was past the high watermark (-1: not stalled); the next
  // PRE-PREPARE observes the stall in "replica.watermark_stall_us".
  SimTime watermark_stall_since_ = -1;
  // --- Adaptive batching (config_.adaptive_batching) ------------------------
  // Controller state lives only on the primary path and is consulted only
  // when the kill switch is on; with it off the static max_batch path runs
  // unchanged. The cap reacts to queue depth after each proposal; the hold
  // timer briefly defers small batches while the pipeline is busy so they
  // coalesce, and is incarnation-guarded like every other replica timer.
  void ArmBatchHoldTimer();
  void AdaptBatch(int batch_size, int backlog);
  int adaptive_batch_cap_ = 0;       // current cap (requests per batch)
  SimTime adaptive_hold_us_ = 0;     // current hold before a small batch
  TimerId batch_hold_timer_ = 0;
  bool batch_hold_elapsed_ = false;  // set by the timer: propose now
  void HandlePrePrepare(const WireMessage& msg, const Bytes& wire);
  // Multicasts this backup's PREPARE for `entry` unless it already sent one.
  void SendPrepare(LogEntry& entry);
  void HandlePrepare(const WireMessage& msg, const Bytes& wire);
  void HandleCommit(const WireMessage& msg, const Bytes& wire);
  void TryPrepared(SeqNum seq);
  void TryCommitted(SeqNum seq);
  void ExecuteReady();
  void ExecuteBatch(SeqNum seq, LogEntry& entry);
  void SendReply(const RequestMsg& request, Bytes result, bool tentative);
  void ExecuteReadOnly(const RequestMsg& request);
  bool InWindow(SeqNum seq) const {
    return seq > stable_seq_ && seq <= stable_seq_ + config_.log_window;
  }

  // --- Reply cache -----------------------------------------------------------
  // Stores raw results (not sealed envelopes): the cache is part of the
  // checkpointed protocol state, so its encoding must be identical at every
  // correct replica. Retransmissions re-seal a fresh REPLY from it.
  // No view field: the cache is part of the agreed checkpoint state, and
  // the view a request happened to execute in is NOT agreed (a replica that
  // re-executes reproposals after a view change would diverge).
  struct CachedReply {
    uint64_t timestamp = 0;
    Bytes result;
  };
  Bytes EncodeReplyCache() const;
  void DecodeReplyCache(BytesView blob);

  // --- Checkpoints -----------------------------------------------------------
  void MaybeTakeCheckpoint();
  // Signs and multicasts our CHECKPOINT vote for (seq, digest) — used both
  // for checkpoints we computed and for checkpoints obtained through state
  // transfer (we hold the state either way, so we may vouch for it).
  void BroadcastCheckpointVote(SeqNum seq, const Digest& digest);
  void HandleCheckpoint(const WireMessage& msg, const Bytes& wire);
  void TryStabilizeCheckpoint(SeqNum seq);
  void AdoptStableCheckpoint(SeqNum seq, const Digest& digest,
                             std::vector<Bytes> proof);

  // --- State transfer --------------------------------------------------------
  void MaybeStartStateTransfer(SeqNum seq, const Digest& digest);
  void OnStateTransferDone(SeqNum seq, const Digest& digest);

  // --- View changes (replica_view_change.cc) ---------------------------------
  // The view-change timer is a deadline plus one pending wake. Re-arming
  // moves the deadline; the wake re-checks it when it fires and is replaced
  // only by an earlier deadline, so re-arms leave no cancelled events.
  void ArmViewChangeTimer();
  void SetViewChangeDeadline(SimTime deadline);
  void DisarmViewChangeTimer() { view_change_deadline_ = 0; }
  void OnViewChangeWake();
  void OnViewChangeTimeout();
  void StartViewChange(ViewNum target_view);
  // Whether this replica is catching up (catching_up_) and the group keeps
  // committing past a gap only it has: its log holds a committed entry above
  // last_executed_ + 1 newer than at the previous call.
  bool GroupCommitsPastOwnGap();
  void HandleViewChange(const WireMessage& msg, const Bytes& wire);
  void HandleNewView(const WireMessage& msg, const Bytes& wire);
  void MaybeSendNewView(ViewNum target_view);
  // Sends `to` the NEW-VIEW that installed the current view, once per
  // replica and view: `to` spoke an older view, so it missed the multicast.
  void MaybeForwardNewView(NodeId to);
  // Validates a VIEW-CHANGE message's embedded proofs. Returns the parsed
  // message on success.
  Result<ViewChangeMsg> ValidateViewChange(const WireMessage& msg);
  // Computes the new-view pre-prepare set from 2f+1 validated view changes.
  // Used by the new primary to build NEW-VIEW and by backups to check it.
  struct NewViewPlan {
    SeqNum stable_seq = 0;
    Digest stable_digest;
    std::vector<Bytes> stable_proof;
    // seq -> (nondet, requests) reproposals; empty vector = null request.
    std::map<SeqNum, PrePrepareMsg> pre_prepares;
  };
  Result<NewViewPlan> ComputeNewViewPlan(
      ViewNum target_view, const std::vector<ViewChangeMsg>& view_changes);
  void EnterNewView(ViewNum target_view, const NewViewPlan& plan,
                    const std::vector<Bytes>& new_view_pre_prepare_wires,
                    const Bytes& new_view_wire);

  // --- Recovery internals ----------------------------------------------------
  void FinishProactiveRecovery(SeqNum seq, const Digest& digest);

  Simulation* sim_;
  KeyTable* keys_;
  Config config_;
  NodeId id_;
  ServiceInterface* service_;
  Channel channel_;

  // Protocol state.
  ViewNum view_ = 0;
  SeqNum next_seq_ = 1;        // primary: next sequence number to assign
  SeqNum last_executed_ = 0;
  SeqNum stable_seq_ = 0;      // low watermark h
  Digest stable_digest_;
  // Proof-backed stable checkpoint for VIEW-CHANGE messages. May lag
  // stable_seq_ briefly after a recovery (which adopts a checkpoint without
  // collecting 2f+1 signed CHECKPOINT envelopes).
  SeqNum proofed_stable_seq_ = 0;
  Digest proofed_stable_digest_;
  std::vector<Bytes> stable_proof_;  // 2f+1 signed CHECKPOINT envelopes
  MessageLog log_;

  // Prepared certificates retained across view changes, highest view wins
  // (PBFT's P set). The per-view message log is cleared when a new view is
  // installed, but the promises it held must keep flowing into VIEW-CHANGE
  // messages until the stable checkpoint passes them — dropping them lets a
  // cascade of view changes re-propose a null batch at a sequence number
  // the group already executed. In durable mode this map is exactly what
  // the WAL's kPrepared records persist and restore.
  struct PreparedCert {
    ViewNum view = 0;
    Digest digest;
    Bytes pre_prepare_wire;
    std::vector<Bytes> prepare_wires;
  };
  std::map<SeqNum, PreparedCert> prepared_certs_;
  // Records (and in durable mode persists) the certificate proving `entry`
  // prepared; called at the prepared transition, before the COMMIT is sent.
  void RecordPreparedCert(SeqNum seq, const LogEntry& entry,
                          bool persist = true);

  // --- Separate request transmission (DESIGN.md §6) --------------------------
  // Clients multicast every request and PRE-PREPAREs list digests. A replica
  // authenticates and digests each body once, on receipt, and keeps it here
  // until its batch reaches the stable checkpoint.
  struct StoredRequest {
    NodeId client = 0;
    uint64_t timestamp = 0;
    // The client's authenticated envelope, sharing the Payload it was
    // delivered in when it can: relayed to the primary, served to a peer's
    // FETCH, persisted with the prepared certificate, and parsed again (not
    // hashed again) at execution.
    std::shared_ptr<const Payload> client_wire;
    SimTime received_at = 0;  // first arrival, for the quality monitor
    // Highest sequence number of a logged batch that lists this request
    // (0: none yet) and the view of the batch that last listed it.
    SeqNum batch_seq = 0;
    ViewNum batch_view = 0;
  };
  std::map<Digest, StoredRequest> requests_;
  // Each client's newest unexecuted request held here (at most one per
  // client): what the primary batches, and what keeps a backup's
  // view-change timer running.
  std::map<NodeId, Digest> pending_;
  // Makes a client's copy its pending request, storing the body if it is
  // new. False when the client already has a newer or an equal-timestamp
  // request pending (the first body under a timestamp wins).
  bool AdmitRequest(const Digest& digest, const RequestMsg& request,
                    const Bytes& wire);
  void StoreBody(const Digest& digest, const RequestMsg& request,
                 std::shared_ptr<const Payload> wire);
  // Drops `client`'s pending request once execution reached `timestamp`;
  // frees its body unless a batch lists it.
  void ReleasePending(NodeId client, uint64_t timestamp);
  // Records that the batch at `seq` lists every body it names that is held
  // here; returns whether all of them are.
  bool MarkListed(SeqNum seq, const LogEntry& entry);
  // A body just arrived: completes the unexecuted entries waiting for it.
  void OnBodyStored();
  // Whether a quorum already vouches for the entry's batch (NEW-VIEW
  // re-proposal, durable certificate, or 2f matching prepares); then a
  // fetched body needs only to match its digest, not the client's MAC.
  bool Certified(const LogEntry& entry) const;
  // Sends one FETCH for every body the unexecuted log lacks: to the primary,
  // or to every replica when `to_all` or a certified batch needs one.
  void FetchMissingBodies(bool to_all);
  void HandleFetch(const WireMessage& msg);
  void HandleFetchReply(const WireMessage& msg);
  // Frees the bodies whose batches the stable checkpoint at `seq` covers.
  void ReleaseBodiesThrough(SeqNum seq);

  // Per-client dedup + retransmission cache.
  std::map<NodeId, CachedReply> reply_cache_;
  std::map<NodeId, uint64_t> last_executed_timestamp_;

  // Checkpoint votes: seq -> replica -> (digest, signed wire).
  struct CheckpointVote {
    Digest digest;
    Bytes wire;
  };
  std::map<SeqNum, std::map<NodeId, CheckpointVote>> checkpoint_votes_;

  // View-change state.
  bool in_view_change_ = false;
  SimTime view_change_deadline_ = 0;  // 0 = disarmed
  TimerId view_change_wake_ = 0;
  SimTime view_change_wake_at_ = 0;
  SimTime view_change_timeout_ = 0;  // current (doubles on cascade)
  // target view -> sender -> validated message + wire.
  struct ViewChangeVote {
    ViewChangeMsg msg;
    Bytes wire;
  };
  std::map<ViewNum, std::map<NodeId, ViewChangeVote>> view_change_votes_;
  std::set<ViewNum> new_view_sent_;
  // The signed NEW-VIEW that installed view_ (the one this replica sent as
  // primary, or accepted as a backup); empty in view 0 and after a crash.
  // It is self-certifying, so any replica may hand it to one that missed it.
  Bytes new_view_wire_;
  // Replicas the current view's NEW-VIEW was already forwarded to.
  std::set<NodeId> new_view_forwarded_;

  // State-transfer / recovery state.
  bool fetching_state_ = false;
  bool recovering_ = false;
  bool crashed_ = false;
  // Set when this replica restarts from disk or installs a view whose
  // change it took no part in (either way it missed the group's traffic),
  // until its first executed batch or finished state transfer; with the
  // newest committed entry past its execution gap seen at the last
  // view-change timer expiry (GroupCommitsPastOwnGap).
  bool catching_up_ = false;
  SeqNum gap_commit_seen_ = 0;
  // Bumped on every Crash(): lets pending timers from a previous incarnation
  // (e.g. a proactive-recovery reboot scheduled before the crash) detect
  // they are stale and do nothing.
  uint64_t incarnation_ = 0;
  SimTime recovery_started_at_ = 0;
  SimTime last_recovery_duration_ = 0;
  uint64_t recoveries_completed_ = 0;
  SimTime recovery_period_ = 0;

  // Messages that arrived too early (e.g. a PREPARE for a view we are still
  // installing — small messages overtake large NEW-VIEWs on the wire).
  // Replayed after the next view installation. Bounded to avoid a Byzantine
  // memory-exhaustion vector.
  static constexpr size_t kMaxStashedWires = 4096;
  std::deque<Bytes> stashed_wires_;
  void StashWire(const Bytes& wire);
  void ReplayStashedWires();

  // Fault hooks.
  bool mute_ = false;
  bool corrupt_replies_ = false;
  bool equivocate_ = false;
  uint32_t equivocate_mask_ = 0;
  SimTime proposal_delay_ = 0;

  // --- Primary quality monitor (config_.primary_quality_monitor) -----------
  // Backups sample the request-to-commit latency of the requests pending
  // here (now - received_at at execution time) and start a proactive
  // view change when the per-view median crawls. Samples reset on every view
  // transition; at most one monitor-triggered view change per view.
  void NotePrimaryLatency(SimTime sample);
  std::vector<SimTime> primary_latency_samples_;
  bool quality_view_change_fired_ = false;

  // Observation (not owned; may be null).
  ProtocolObserver* observer_ = nullptr;
};

}  // namespace bftbase

#endif  // SRC_BFT_REPLICA_H_
