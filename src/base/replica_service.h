// ReplicaService: the BASE library glue.
//
// Implements the BFT replica's ServiceInterface for ANY service that
// provides the paper's abstraction upcalls (a ServiceAdapter / conformance
// wrapper): execution with agreed non-determinism, copy-on-write abstract
// checkpoints, the hierarchical state-partition tree, abstract state
// transfer and the save/reboot/rebuild cycle of proactive recovery.
//
// This is the piece that makes the BFT layer reusable across the NFS and
// object-database examples without either knowing about the other.
#ifndef SRC_BASE_REPLICA_SERVICE_H_
#define SRC_BASE_REPLICA_SERVICE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/adapter.h"
#include "src/base/checkpoint_manager.h"
#include "src/base/state_transfer.h"
#include "src/base/wal.h"
#include "src/bft/service.h"
#include "src/sim/simulation.h"
#include "src/sim/storage.h"

namespace bftbase {

class ReplicaService : public ServiceInterface {
 public:
  struct Options {
    // E4 ablation: disable copy-on-write checkpoints.
    bool full_copy_checkpoints = false;
    StateTransfer::Options state_transfer;
    // Durable mode: a simulated storage device (owned by the caller, must
    // outlive the service). When set, executed batches are written to a WAL,
    // checkpoints are persisted as transactional pages, and the replica can
    // restart from disk (RecoverFromStorage).
    StorageDevice* storage = nullptr;
  };

  ReplicaService(Simulation* sim, const Config& config, NodeId self,
                 ServiceAdapter* adapter, Options options);
  ReplicaService(Simulation* sim, const Config& config, NodeId self,
                 ServiceAdapter* adapter)
      : ReplicaService(sim, config, self, adapter, Options{}) {}

  // --- ServiceInterface ------------------------------------------------------
  Bytes Execute(BytesView op, NodeId client, BytesView nondet,
                bool tentative) override;
  Bytes ProposeNondet() override;
  bool CheckNondet(BytesView nondet) override;
  void TakeCheckpoint(SeqNum seq, CheckpointDoneFn done) override;
  void PaceCheckpoints(SeqNum executed, SeqNum stable_seq) override;
  void DiscardCheckpointsBefore(SeqNum seq) override;
  void HandleStateMessage(NodeId from, BytesView payload) override;
  void StartStateTransfer(SeqNum seq, const Digest& digest) override;
  bool InStateTransfer() const override { return state_transfer_.active(); }
  void SetStateTransferDone(StateTransferDoneFn fn) override {
    done_fn_ = std::move(fn);
  }
  void SetStateSender(StateSenderFn fn) override;
  size_t SaveForRecovery() override;
  void RestartFromRecovery() override;
  void SetProtocolState(const Bytes& blob) override {
    pending_protocol_state_ = blob;
  }
  Bytes GetProtocolState() const override { return cm_.protocol_state(); }

  // --- Durable storage -------------------------------------------------------
  bool HasDurableStorage() const override { return storage_ != nullptr; }
  void LogBatch(SeqNum seq, BytesView nondet,
                const std::vector<ExecutedRequest>& executed) override;
  void LogViewMark(ViewNum view) override;
  void LogPrepared(SeqNum seq, BytesView cert) override;
  void LogStableProof(SeqNum seq, BytesView proof) override;
  void OnCrash() override;
  RecoveryInfo RecoverFromStorage() override;

  // --- Introspection ----------------------------------------------------------
  CheckpointManager& checkpoints() { return cm_; }
  StateTransfer& state_transfer() { return state_transfer_; }
  ServiceAdapter* adapter() { return adapter_; }
  uint64_t last_agreed_timestamp() const { return last_agreed_timestamp_; }
  WriteAheadLog* wal() { return wal_.get(); }

  // Encodes a virtual-time timestamp as a nondet blob (also used by tests).
  static Bytes EncodeNondet(SimTime time_us);
  static std::optional<SimTime> DecodeNondet(BytesView nondet);

 private:
  // A durable checkpoint ready to commit: the checkpoint values of the
  // leaves whose pages are stale, plus the header, captured when the
  // checkpoint is taken or installed.
  struct DurableCheckpoint {
    SeqNum seq = 0;
    std::vector<std::pair<size_t, Bytes>> pages;
    Bytes header;
    SimTime digest_cpu = 0;  // a pending checkpoint's lane job, in full
  };
  DurableCheckpoint CaptureCheckpoint(SeqNum seq, const Digest& root,
                                      const std::vector<size_t>& leaves);
  // Stages the pages plus the header and commits them atomically.
  void CommitCheckpoint(DurableCheckpoint checkpoint);
  // Finishes the oldest pending checkpoint, whose digest work just ran on
  // the idle lane: commits its pages (unless a newer checkpoint is already
  // on disk), cuts the WAL, then reports the root.
  void CompleteCheckpoint(const Digest& root, const CheckpointDoneFn& done);
  // The process died or rebooted: the idle-lane jobs of pending checkpoints
  // are dropped unrun, and so are the state-transfer requests they held
  // back.
  void DropPendingCheckpoints();

  Simulation* sim_;
  Config config_;
  NodeId self_;
  ServiceAdapter* adapter_;
  Options options_;
  CheckpointManager cm_;
  StateTransfer state_transfer_;
  StateTransferDoneFn done_fn_;
  Bytes pending_protocol_state_;
  uint64_t last_agreed_timestamp_ = 0;
  StorageDevice* storage_ = nullptr;
  std::unique_ptr<WriteAheadLog> wal_;
  // Seq of the checkpoint header currently committed to the page store: the
  // WAL's batch-truncation point. May lag the protocol's stable checkpoint
  // (stable adopted from the group before our pages caught up) or lead it
  // (local checkpoint taken, 2f+1 votes still outstanding).
  SeqNum durable_checkpoint_seq_ = 0;
  // Checkpoints taken whose idle-lane job has not run yet, oldest first,
  // each with its captured pages (none without storage); while any is
  // pending, state-transfer answers are held.
  std::deque<DurableCheckpoint> pending_checkpoints_;

  // Proactive-recovery "disk": the abstract state saved before the reboot.
  struct SavedLeaf {
    Bytes value;
    Digest digest;
  };
  struct RecoveryDisk {
    // Leaves [0, leaf_count) were saved: those that left the cold state one
    // by one, every other one as `fill`.
    std::map<size_t, SavedLeaf> leaves;
    SavedLeaf fill;
    size_t leaf_count = 0;
  };
  RecoveryDisk recovery_disk_;
  bool rebuilding_ = false;
};

}  // namespace bftbase

#endif  // SRC_BASE_REPLICA_SERVICE_H_
