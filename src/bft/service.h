// The interface a replicated service presents to the BFT replica.
//
// The plain BFT library (this layer) only needs deterministic execution,
// checkpoint digests and a way to move state between replicas; the BASE
// layer (src/base) implements this interface once, on top of the abstraction
// upcalls from the paper's Figure 1, for any wrapped service.
#ifndef SRC_BFT_SERVICE_H_
#define SRC_BFT_SERVICE_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/bft/config.h"
#include "src/crypto/digest.h"
#include "src/sim/cost_model.h"
#include "src/util/bytes.h"

namespace bftbase {

class ServiceInterface {
 public:
  virtual ~ServiceInterface() = default;

  // Executes one operation. `nondet` is the agreed non-deterministic input
  // for the batch containing the operation (empty for services that need
  // none). When `tentative` is true the call comes from the read-only
  // optimization and must not modify state.
  virtual Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                        bool tentative) = 0;

  // Called at the primary to propose the non-deterministic input for the
  // next batch (e.g. the current clock reading for NFS timestamps).
  virtual Bytes ProposeNondet() = 0;

  // Called at backups to validate a proposed value before accepting the
  // pre-prepare (e.g.: timestamp is monotonic and close to the local clock).
  virtual bool CheckNondet(BytesView nondet) = 0;

  // Takes a checkpoint after executing sequence number `seq`. The digest of
  // the service state (for BASE: the state-partition tree root over the
  // abstract state) is fixed now, but `done(digest)` runs only after the
  // checkpoint's digest work has run and the checkpoint is durable; nothing
  // derived from the digest may leave the replica before that. The work runs
  // in the replica's idle time (Simulation::RunWhenIdle), paced by
  // PaceCheckpoints so that, unless the checkpoint is already stable,
  // `done` runs before the replica executes seq + D + 1
  // (D = Config::CheckpointVoteDeadline()). A crash or recovery restart in
  // between drops the call.
  using CheckpointDoneFn = std::function<void(const Digest&)>;
  virtual void TakeCheckpoint(SeqNum seq, CheckpointDoneFn done) = 0;

  // Called in the handler that executed batch `executed`, after its replies
  // were sent; `stable_seq` is the replica's stable checkpoint. A pending
  // checkpoint S < executed above `stable_seq` must have had at least
  // min(executed - S, D) / D of its digest work by now; the shortfall is
  // charged to this handler.
  virtual void PaceCheckpoints(SeqNum executed, SeqNum stable_seq) = 0;

  // The checkpoint at `seq` became stable; older checkpoints can go.
  virtual void DiscardCheckpointsBefore(SeqNum seq) = 0;

  // --- State transfer (implemented by the BASE layer) ----------------------

  // Handles a state-transfer message routed by the replica.
  virtual void HandleStateMessage(NodeId from, BytesView payload) = 0;

  // Brings this replica's state to the checkpoint (`seq`, `digest`) by
  // fetching out-of-date abstract objects from the other replicas. Completion
  // is signalled through the handler installed with SetStateTransferDone.
  virtual void StartStateTransfer(SeqNum seq, const Digest& digest) = 0;

  virtual bool InStateTransfer() const = 0;

  // Installed by the replica: called with (seq, digest) when a state
  // transfer started via StartStateTransfer has completed.
  using StateTransferDoneFn = std::function<void(SeqNum, const Digest&)>;
  virtual void SetStateTransferDone(StateTransferDoneFn fn) = 0;

  // Installed by the replica: the transport used to send state-transfer
  // messages to a peer replica.
  using StateSenderFn = std::function<void(NodeId to, const Bytes& payload)>;
  virtual void SetStateSender(StateSenderFn fn) = 0;

  // --- Proactive recovery ----------------------------------------------------

  // Saves the conformance rep, abstract-state copy and protocol state to
  // (simulated) stable storage ahead of a reboot. Returns the number of
  // bytes written so the replica can charge the cost model.
  virtual size_t SaveForRecovery() = 0;

  // Called after the simulated reboot: restart the concrete service from a
  // clean initial state; the saved abstract state (plus fetches of
  // out-of-date objects via StartStateTransfer) rebuilds it.
  virtual void RestartFromRecovery() = 0;

  // --- Protocol-state piggyback --------------------------------------------
  // The replica's reply cache must survive checkpoints/recovery so a
  // state-transferred replica does not re-execute old requests. The BASE
  // layer stores this blob as an extra leaf of the partition tree.
  virtual void SetProtocolState(const Bytes& blob) = 0;
  virtual Bytes GetProtocolState() const = 0;

  // --- Durable storage (WAL + checkpoint pages) -----------------------------
  // The Log* hooks write to a simulated StorageDevice. A service without one
  // (HasDurableStorage() false) ignores them, and its RecoverFromStorage
  // reports !ok.

  // One request the replica actually executed, as the WAL must remember it to
  // re-execute at recovery.
  struct ExecutedRequest {
    NodeId client = 0;
    uint64_t timestamp = 0;
    Bytes op;
  };

  // A reply regenerated by WAL replay; the replica uses these to rebuild its
  // reply cache after a restart from disk.
  struct ReplayedReply {
    NodeId client = 0;
    uint64_t timestamp = 0;
    Bytes result;
  };

  struct RecoveryInfo {
    bool ok = false;              // durable state loaded and digest-verified
    bool had_checkpoint = false;  // a committed checkpoint header was found
    bool torn_tail = false;       // the WAL ended in a torn/corrupt record
    uint64_t duplicate_records = 0;  // replay-skipped (idempotence)
    SeqNum checkpoint_seq = 0;
    Digest checkpoint_root;
    SeqNum last_seq = 0;  // highest batch applied (checkpoint + replay)
    ViewNum view = 0;     // latest durable view mark
    std::vector<ReplayedReply> replayed;
    // Durable prepared certificates above the checkpoint, latest per seq
    // (ascending). Opaque to the service layer; the replica re-installs them
    // into its message log so its promises survive the crash.
    std::vector<std::pair<SeqNum, Bytes>> prepared_certs;
    // Latest durable stable-checkpoint proof (0 / empty when none).
    SeqNum stable_proof_seq = 0;
    Bytes stable_proof;
    SimTime load_time_us = 0;    // virtual time to load checkpoint pages
    SimTime replay_time_us = 0;  // virtual time to replay the WAL tail
  };

  virtual bool HasDurableStorage() const = 0;

  // Logs one executed batch (agreed nondet + the requests that ran) and makes
  // it durable before the replica's replies can matter.
  virtual void LogBatch(SeqNum seq, BytesView nondet,
                        const std::vector<ExecutedRequest>& executed) = 0;

  // Logs a durable view mark when a new view is installed.
  virtual void LogViewMark(ViewNum view) = 0;

  // Logs a prepared certificate for `seq` — made durable BEFORE the COMMIT
  // message that announces the promise, so a crashed replica cannot forget
  // it. The blob is opaque to the service layer.
  virtual void LogPrepared(SeqNum seq, BytesView cert) = 0;

  // Logs the signed proof of the stable checkpoint at `seq` so a restarted
  // replica can prove its view-change window.
  virtual void LogStableProof(SeqNum seq, BytesView proof) = 0;

  // The replica process died: drop everything volatile on the service side
  // and propagate the crash to the storage device (unsynced tail is lost).
  virtual void OnCrash() = 0;

  // Restart-from-disk: load the last durable checkpoint, replay the WAL tail
  // and report what was reconstructed.
  virtual RecoveryInfo RecoverFromStorage() = 0;
};

}  // namespace bftbase

#endif  // SRC_BFT_SERVICE_H_
