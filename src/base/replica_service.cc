#include "src/base/replica_service.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/util/codec.h"
#include "src/util/log.h"

namespace bftbase {

namespace {

// Acceptable divergence between a proposed timestamp and the local clock
// when validating non-deterministic input.
constexpr SimTime kNondetTolerance = 500 * kMillisecond;

}  // namespace

ReplicaService::ReplicaService(Simulation* sim, const Config& config,
                               NodeId self, ServiceAdapter* adapter,
                               Options options)
    : sim_(sim),
      config_(config),
      self_(self),
      adapter_(adapter),
      options_(options),
      cm_(sim, adapter, options.full_copy_checkpoints),
      state_transfer_(sim, config, self, &cm_, options.state_transfer) {
  adapter_->SetModifyFn(
      [this](size_t object_index) { cm_.OnModify(object_index); });
  state_transfer_.SetDone([this](SeqNum seq, const Digest& root) {
    if (rebuilding_) {
      // The clean concrete state has been rebuilt from the saved abstract
      // state plus fetched objects; resume serving and drop the disk copy.
      rebuilding_ = false;
      recovery_disk_ = RecoveryDisk{};
      state_transfer_.SetServing(true);
    }
    if (done_fn_) {
      done_fn_(seq, root);
    }
  });
  if (options_.storage != nullptr) {
    storage_ = options_.storage;
    wal_ = std::make_unique<WriteAheadLog>(storage_);
    // A finished state transfer must also land on disk: persist the fetched
    // leaves PLUS every leaf whose page is stale — dirtied since our last
    // checkpoint, or captured by a checkpoint still pending on the idle lane,
    // whose commit the installed one supersedes. Those leaves were correctly
    // not fetched when the live value already matched the target. Then cut
    // the WAL back to the installed sequence number.
    state_transfer_.SetInstaller([this](SeqNum seq, const Digest& root,
                                        const std::vector<ObjectUpdate>&
                                            updates) {
      std::vector<size_t> stale = cm_.DirtyLeaves();
      cm_.InstallFetchedState(seq, root, updates);
      std::set<size_t> persist(stale.begin(), stale.end());
      for (const DurableCheckpoint& pending : pending_checkpoints_) {
        for (const auto& page : pending.pages) {
          persist.insert(page.first);
        }
      }
      for (const ObjectUpdate& update : updates) {
        persist.insert(update.index);
      }
      CommitCheckpoint(CaptureCheckpoint(
          seq, root, std::vector<size_t>(persist.begin(), persist.end())));
      wal_->TruncateThrough(seq);
    });
  }
}

Bytes ReplicaService::EncodeNondet(SimTime time_us) {
  Encoder enc;
  enc.PutI64(time_us);
  return enc.Take();
}

std::optional<SimTime> ReplicaService::DecodeNondet(BytesView nondet) {
  Decoder dec(nondet);
  SimTime t = dec.GetI64();
  if (!dec.AtEnd()) {
    return std::nullopt;
  }
  return t;
}

Bytes ReplicaService::Execute(BytesView op, NodeId client, BytesView nondet,
                              bool tentative) {
  Bytes effective = Bytes(nondet.begin(), nondet.end());
  if (!tentative) {
    auto t = DecodeNondet(nondet);
    if (t.has_value()) {
      // Enforce monotonic agreed timestamps even if the primary proposed a
      // slightly older clock reading than a previous one.
      uint64_t value = static_cast<uint64_t>(*t);
      if (value < last_agreed_timestamp_) {
        value = last_agreed_timestamp_;
      }
      last_agreed_timestamp_ = value;
      effective = EncodeNondet(static_cast<SimTime>(value));
    }
  }
  return adapter_->Execute(op, client, effective, tentative);
}

Bytes ReplicaService::ProposeNondet() {
  // The agreed non-deterministic input for a batch is the primary's clock
  // reading (the NFS wrapper turns it into time-last-modified values).
  Bytes proposal = adapter_->ProposeNondet();
  if (!proposal.empty()) {
    return proposal;
  }
  return EncodeNondet(sim_->Now());
}

bool ReplicaService::CheckNondet(BytesView nondet) {
  auto t = DecodeNondet(nondet);
  if (!t.has_value()) {
    // Not a timestamp: delegate to the adapter's own validator.
    return adapter_->CheckNondet(nondet);
  }
  // A primary signs whatever it proposes. A negative time would become a
  // huge agreed timestamp in Execute, and near INT64_MIN the distance to
  // `now` overflows; with both times non-negative it cannot.
  if (*t < 0) {
    return false;
  }
  SimTime now = sim_->Now();
  SimTime delta = *t > now ? *t - now : now - *t;
  return delta <= kNondetTolerance;
}

void ReplicaService::TakeCheckpoint(SeqNum seq, CheckpointDoneFn done) {
  CheckpointManager::Taken taken =
      cm_.TakeCheckpoint(seq, pending_protocol_state_);
  // The pages and header are captured now: the objects (and the agreed
  // timestamp) move on as later batches execute.
  DurableCheckpoint durable;
  durable.seq = seq;
  if (storage_ != nullptr) {
    durable = CaptureCheckpoint(seq, taken.root, cm_.last_checkpoint_updates());
  }
  durable.digest_cpu = taken.digest_cpu;
  // Copy-on-write froze this checkpoint's values, so its digest work can run
  // in idle time; until it has, the root stays inside the replica.
  pending_checkpoints_.push_back(std::move(durable));
  state_transfer_.HoldServing();
  sim_->RunWhenIdle(self_, taken.digest_cpu,
                    [this, root = taken.root, done = std::move(done)] {
                      CompleteCheckpoint(root, done);
                    });
}

void ReplicaService::PaceCheckpoints(SeqNum executed, SeqNum stable_seq) {
  // Only the oldest pending checkpoint's job is running: the lane is FIFO
  // and these are its only jobs. The others start when it completes.
  if (pending_checkpoints_.empty()) {
    return;
  }
  const DurableCheckpoint& oldest = pending_checkpoints_.front();
  if (oldest.seq <= stable_seq || executed <= oldest.seq) {
    return;
  }
  const SeqNum deadline = config_.CheckpointVoteDeadline();
  const SeqNum batches = std::min(executed - oldest.seq, deadline);
  const SimTime owed = static_cast<SimTime>(
      (static_cast<SeqNum>(oldest.digest_cpu) * batches + deadline - 1) /
      deadline);
  const SimTime had = oldest.digest_cpu - sim_->IdleCpuLeft(self_);
  if (owed > had) {
    sim_->ForceIdleCpu(self_, owed - had);
  }
}

void ReplicaService::CompleteCheckpoint(const Digest& root,
                                        const CheckpointDoneFn& done) {
  // Lane jobs run FIFO, so this job's checkpoint is the oldest pending one.
  assert(!pending_checkpoints_.empty());
  DurableCheckpoint checkpoint = std::move(pending_checkpoints_.front());
  pending_checkpoints_.pop_front();
  if (storage_ != nullptr) {
    // Persist order matters: commit the checkpoint pages first, THEN cut the
    // WAL. A crash between the two leaves both the checkpoint and the full
    // log on disk; replay skips records with seq <= the header's. A state
    // transfer may already have installed (and persisted) a newer
    // checkpoint, which this one must not overwrite. This local checkpoint
    // is not yet provably stable, so the cut only drops batch records —
    // prepared certificates survive until a stable proof at >= their seq is
    // durable (see WriteAheadLog::TruncateThrough).
    if (checkpoint.seq > durable_checkpoint_seq_) {
      CommitCheckpoint(std::move(checkpoint));
    }
    wal_->TruncateThrough(durable_checkpoint_seq_);
  }
  const bool last_pending = pending_checkpoints_.empty();
  done(root);
  if (last_pending) {
    state_transfer_.ReleaseServing();
  }
}

void ReplicaService::DropPendingCheckpoints() {
  sim_->DropIdleJobs(self_);
  pending_checkpoints_.clear();
  state_transfer_.DropHeldRequests();
}

void ReplicaService::DiscardCheckpointsBefore(SeqNum seq) {
  cm_.DiscardBefore(seq);
  if (wal_ != nullptr) {
    // The checkpoint at `seq` just became stable and its proof was logged
    // (LogStableProof runs before this hook) — prune the prepared
    // certificates the proof now covers, mirroring the replica's
    // prepared_certs_ erase. Batches are still cut at the durable header's
    // seq, which may lag `seq` when the stable checkpoint was adopted from
    // the group and our own pages have not caught up yet.
    wal_->TruncateThrough(durable_checkpoint_seq_);
  }
}

void ReplicaService::HandleStateMessage(NodeId from, BytesView payload) {
  state_transfer_.HandleMessage(from, payload);
}

void ReplicaService::StartStateTransfer(SeqNum seq, const Digest& digest) {
  state_transfer_.Start(seq, digest);
}

void ReplicaService::SetStateSender(StateSenderFn fn) {
  state_transfer_.SetSender(
      [fn = std::move(fn)](NodeId to, const Bytes& payload) {
        fn(to, payload);
      });
}

ReplicaService::DurableCheckpoint ReplicaService::CaptureCheckpoint(
    SeqNum seq, const Digest& root, const std::vector<size_t>& leaves) {
  DurableCheckpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.pages.reserve(leaves.size());
  for (size_t leaf : leaves) {
    checkpoint.pages.emplace_back(leaf, cm_.LeafValue(leaf));
  }
  Encoder header;
  header.PutU64(seq);
  header.PutFixed(root.view());
  header.PutU64(cm_.LeafCount());
  header.PutU64(last_agreed_timestamp_);
  checkpoint.header = header.Take();
  return checkpoint;
}

void ReplicaService::CommitCheckpoint(DurableCheckpoint checkpoint) {
  for (auto& [leaf, value] : checkpoint.pages) {
    storage_->StagePut(leaf, std::move(value));
  }
  storage_->StageHeader(std::move(checkpoint.header));
  storage_->CommitPages();
  durable_checkpoint_seq_ = checkpoint.seq;
}

void ReplicaService::LogBatch(SeqNum seq, BytesView nondet,
                              const std::vector<ExecutedRequest>& executed) {
  if (!wal_) {
    return;
  }
  Encoder payload;
  payload.PutBytes(nondet);
  payload.PutU32(static_cast<uint32_t>(executed.size()));
  for (const ExecutedRequest& request : executed) {
    payload.PutU64(static_cast<uint64_t>(request.client));
    payload.PutU64(request.timestamp);
    payload.PutBytes(BytesView(request.op.data(), request.op.size()));
  }
  Bytes body = payload.Take();
  wal_->Append(WriteAheadLog::kBatch, seq, BytesView(body.data(), body.size()));
  // Group commit at batch granularity: one sync per agreed batch.
  wal_->Sync();
}

void ReplicaService::LogViewMark(ViewNum view) {
  if (!wal_) {
    return;
  }
  wal_->Append(WriteAheadLog::kViewMark, view, BytesView());
  wal_->Sync();
}

void ReplicaService::LogPrepared(SeqNum seq, BytesView cert) {
  if (!wal_) {
    return;
  }
  wal_->Append(WriteAheadLog::kPrepared, seq, cert);
  wal_->Sync();
}

void ReplicaService::LogStableProof(SeqNum seq, BytesView proof) {
  if (!wal_) {
    return;
  }
  wal_->Append(WriteAheadLog::kStableProof, seq, proof);
  wal_->Sync();
}

void ReplicaService::OnCrash() {
  // Everything volatile on the service side dies with the process; only the
  // storage device survives (and loses its own unsynced tail).
  state_transfer_.Abort();
  state_transfer_.SetServing(true);
  state_transfer_.SetLocalSource(nullptr);
  DropPendingCheckpoints();
  rebuilding_ = false;
  recovery_disk_ = RecoveryDisk{};
  pending_protocol_state_.clear();
  last_agreed_timestamp_ = 0;
  durable_checkpoint_seq_ = 0;  // re-learned from the header on recovery
  if (storage_ != nullptr) {
    storage_->Crash();
  }
}

ServiceInterface::RecoveryInfo ReplicaService::RecoverFromStorage() {
  RecoveryInfo info;
  if (storage_ == nullptr) {
    return info;
  }
  SimTime load_start = sim_->CurrentHandlerFinishTime();

  // Restart the concrete service from a clean initial state, then bring the
  // abstract state to the durable checkpoint through the same install path a
  // state transfer uses — so the recomputed partition-tree root is checked
  // against the root digest the group agreed on.
  adapter_->RestartClean();
  cm_.FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
  pending_protocol_state_.clear();
  last_agreed_timestamp_ = 0;

  Bytes header = storage_->ReadHeader();
  if (header.empty()) {
    // Nothing durable yet: a crash before the first checkpoint recovers to
    // the initial state plus whatever the WAL holds.
    info.ok = true;
  } else {
    Decoder dec(BytesView(header.data(), header.size()));
    SeqNum seq = dec.GetU64();
    Digest root = Digest::FromBytes(dec.GetFixed(Digest::kSize));
    const uint64_t leaf_count = dec.GetU64();
    uint64_t agreed_ts = dec.GetU64();
    if (!dec.AtEnd()) {
      LOG_ERROR << "recovery: corrupt durable checkpoint header";
      return info;  // ok == false: caller falls back to a full rebuild
    }
    if (leaf_count != cm_.LeafCount()) {
      LOG_ERROR << "recovery: durable checkpoint has " << leaf_count
                << " leaves, the state has " << cm_.LeafCount();
      return info;
    }
    info.had_checkpoint = true;
    info.checkpoint_seq = seq;
    info.checkpoint_root = root;
    std::vector<ObjectUpdate> updates;
    updates.reserve(storage_->pages().size());
    for (const auto& [key, value] : storage_->pages()) {
      if (key >= cm_.LeafCount()) {
        continue;
      }
      updates.push_back(ObjectUpdate{key, storage_->ReadPage(key)});
    }
    pending_protocol_state_ = cm_.InstallFetchedState(seq, root, updates);
    info.ok = cm_.last_install_root_ok();
    if (!info.ok) {
      LOG_ERROR << "recovery: durable checkpoint failed root verification";
      return info;
    }
    last_agreed_timestamp_ = agreed_ts;
    durable_checkpoint_seq_ = seq;
    info.last_seq = seq;
  }
  SimTime replay_start = sim_->CurrentHandlerFinishTime();
  info.load_time_us = replay_start - load_start;

  // Replay the WAL tail through the normal execution path. Records at or
  // below the checkpoint sequence are duplicates a crash-during-truncate (or
  // a duplicated tail append) left behind; skipping them is what makes
  // replay idempotent.
  WriteAheadLog::ScanResult scan = wal_->Recover();
  info.torn_tail = scan.torn_tail;
  SeqNum applied = info.checkpoint_seq;
  ViewNum view = 0;
  std::map<SeqNum, Bytes> prepared;  // latest certificate per seq wins
  for (const WriteAheadLog::Record& record : scan.records) {
    if (record.type == WriteAheadLog::kViewMark) {
      view = std::max<ViewNum>(view, record.seq);
      continue;
    }
    if (record.type == WriteAheadLog::kPrepared) {
      prepared[record.seq] = record.payload;
      continue;
    }
    if (record.type == WriteAheadLog::kStableProof) {
      if (record.seq >= info.stable_proof_seq) {
        info.stable_proof_seq = record.seq;
        info.stable_proof = record.payload;
      }
      continue;
    }
    if (record.type != WriteAheadLog::kBatch) {
      continue;
    }
    if (record.seq <= applied) {
      ++info.duplicate_records;
      continue;
    }
    Decoder dec(BytesView(record.payload.data(), record.payload.size()));
    Bytes nondet = dec.GetBytes();
    uint32_t count = dec.GetU32();
    for (uint32_t i = 0; i < count && dec.ok(); ++i) {
      NodeId client = static_cast<NodeId>(dec.GetU64());
      uint64_t timestamp = dec.GetU64();
      Bytes op = dec.GetBytes();
      if (!dec.ok()) {
        break;
      }
      Bytes result = Execute(BytesView(op.data(), op.size()), client,
                             BytesView(nondet.data(), nondet.size()),
                             /*tentative=*/false);
      info.replayed.push_back(ReplayedReply{client, timestamp,
                                            std::move(result)});
    }
    applied = record.seq;
  }
  info.last_seq = applied;
  info.view = view;
  for (auto& [seq, cert] : prepared) {
    // A certificate stays useful past the local checkpoint: until a stable
    // proof at >= its seq is durable, the replica's VIEW-CHANGE messages can
    // only claim the (possibly older) proofed checkpoint and must supply the
    // certificates above it. Only certs the restored proof covers are dead.
    if (seq > info.stable_proof_seq) {
      info.prepared_certs.emplace_back(seq, std::move(cert));
    }
  }
  info.replay_time_us = sim_->CurrentHandlerFinishTime() - replay_start;
  LOG_INFO << "replica " << self_ << " recovered from storage: checkpoint seq "
           << info.checkpoint_seq << ", replayed through seq " << applied
           << (info.torn_tail ? " (torn tail repaired)" : "") << ", "
           << info.duplicate_records << " duplicate records skipped";
  return info;
}

size_t ReplicaService::SaveForRecovery() {
  if (storage_ != nullptr) {
    // Durable mode: the checkpoint pages and WAL are already on disk; the
    // pre-reboot save is just a final sync of anything buffered.
    wal_->Sync();
    return 0;
  }
  // Save the abstract value of every leaf (protocol blob + objects) to the
  // simulated disk. The digests let the rebuild use the saved copies for
  // every object the group agrees is current, so only divergent objects hit
  // the network. A leaf that is clean since the latest checkpoint and whose
  // digest there is the tree's fill holds the fill's value, so those leaves
  // share one saved copy; the model still charges and counts every leaf.
  recovery_disk_ = RecoveryDisk{};
  recovery_disk_.fill.digest = cm_.tree().fill();
  bool fill_saved = false;
  size_t total_bytes = 0;
  SimTime cpu = 0;
  for (size_t leaf = 0; leaf < cm_.LeafCount(); ++leaf) {
    const bool cold = leaf != 0 && !cm_.HasDirtyInRange(leaf, leaf + 1) &&
                      cm_.tree().Leaf(leaf) == recovery_disk_.fill.digest;
    if (cold && fill_saved) {
      cpu += sim_->cost().DigestCost(recovery_disk_.fill.value.size());
      total_bytes += recovery_disk_.fill.value.size();
      continue;
    }
    Bytes value = leaf == 0 ? pending_protocol_state_
                            : adapter_->GetObj(
                                  CheckpointManager::ObjectForLeaf(leaf));
    cpu += sim_->cost().DigestCost(value.size());
    total_bytes += value.size();
    if (cold) {
      recovery_disk_.fill.value = std::move(value);
      fill_saved = true;
    } else {
      const Digest digest = Digest::Of(value);
      recovery_disk_.leaves.emplace(leaf, SavedLeaf{std::move(value), digest});
    }
  }
  sim_->ChargeCpu(cpu);
  return total_bytes;
}

void ReplicaService::RestartFromRecovery() {
  // A recovery that begins while a state transfer is in flight must not let
  // the old transfer resume against the rebuilt state: its half-applied
  // partition set belongs to the pre-reboot incarnation. Drop it before
  // anything else (Start() is a no-op while a transfer is active, so without
  // this the recovery's own discovery fetch would be silently ignored).
  state_transfer_.Abort();
  DropPendingCheckpoints();
  rebuilding_ = true;
  state_transfer_.SetServing(false);
  if (storage_ != nullptr) {
    // Durable mode: reload the on-disk checkpoint and replay the WAL tail
    // locally; the discovery transfer that follows fetches only the objects
    // on which we diverge from the group.
    RecoverFromStorage();
    return;
  }
  adapter_->RestartClean();
  cm_.FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
  state_transfer_.SetLocalSource(
      [this](size_t leaf, const Digest& expected) -> std::optional<Bytes> {
        const SavedLeaf* saved = &recovery_disk_.fill;
        if (auto it = recovery_disk_.leaves.find(leaf);
            it != recovery_disk_.leaves.end()) {
          saved = &it->second;
        }
        if (saved->digest == expected) {
          return saved->value;
        }
        return std::nullopt;
      });
}

}  // namespace bftbase
