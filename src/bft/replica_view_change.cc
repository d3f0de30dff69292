// View-change machinery (PBFT section 4.4): suspecting the primary, building
// and validating VIEW-CHANGE messages with transferable proofs, computing and
// installing NEW-VIEW messages.
#include <algorithm>
#include <cassert>

#include "src/bft/replica.h"
#include "src/util/log.h"

namespace bftbase {

// ------------------------------------------------------------------ timers

void Replica::ArmViewChangeTimer() {
  SetViewChangeDeadline(sim_->Now() + view_change_timeout_);
}

void Replica::SetViewChangeDeadline(SimTime deadline) {
  view_change_deadline_ = deadline;
  if (view_change_wake_ != 0) {
    if (view_change_wake_at_ <= deadline) {
      return;  // the pending wake re-checks the deadline when it fires
    }
    sim_->Cancel(view_change_wake_);
  }
  view_change_wake_at_ = deadline;
  view_change_wake_ = sim_->After(id_, deadline - sim_->Now(),
                                  [this] { OnViewChangeWake(); });
}

void Replica::OnViewChangeWake() {
  view_change_wake_ = 0;
  if (view_change_deadline_ == 0) {
    return;  // disarmed since
  }
  if (sim_->Now() < view_change_deadline_) {
    SetViewChangeDeadline(view_change_deadline_);  // moved later since
    return;
  }
  view_change_deadline_ = 0;
  OnViewChangeTimeout();
}

void Replica::OnViewChangeTimeout() {
  if (recovering_) {
    return;
  }
  // A replica that is behind the group must not depose a working primary:
  // a view change it starts alone cannot be undone (it may not re-enter a
  // lower view), so it would cascade on its own. It keeps waiting while a
  // state transfer is in flight, and while catching up as long as the group
  // keeps committing past a gap only it has. The f+1 join rule still pulls
  // it into any view change the others start.
  if (!in_view_change_ && fetching_state_) {
    ArmViewChangeTimer();
    return;
  }
  if (!in_view_change_ && GroupCommitsPastOwnGap()) {
    // Progress is sampled once per expiry, and the live primary of an idle
    // group commits only a null request per null_request_interval (at worst
    // two intervals apart), so the next sample must not come sooner.
    SetViewChangeDeadline(
        sim_->Now() +
        std::max(view_change_timeout_, 2 * config_.null_request_interval));
    return;
  }
  // No progress: move to the next view. If we are already waiting for a
  // NEW-VIEW that never came, cascade to the view after that with a doubled
  // timeout (PBFT's liveness rule).
  StartViewChange(view_ + 1);
}

bool Replica::GroupCommitsPastOwnGap() {
  if (!catching_up_) {
    return false;
  }
  SeqNum newest = 0;
  for (auto it = log_.entries().rbegin();
       it != log_.entries().rend() && it->first > last_executed_ + 1; ++it) {
    if (it->second.committed) {
      newest = it->first;
      break;
    }
  }
  // Only a commit newer than at the previous expiry shows the group is still
  // making progress; an old one alone could mask a primary that died since.
  if (newest <= gap_commit_seen_) {
    return false;
  }
  gap_commit_seen_ = newest;
  return true;
}

// ------------------------------------------------------------- view change

void Replica::StartViewChange(ViewNum target_view) {
  if (target_view <= view_ && in_view_change_) {
    return;
  }
  if (target_view <= view_) {
    return;
  }
  LOG_INFO << "replica " << id_ << " starting view change to view "
           << target_view;
  sim_->metrics().Inc("replica.view_changes_started", id_);
  sim_->trace().Record(TraceEvent::kViewChangeStart, sim_->Now(), id_, -1,
                       target_view, 0);
  if (observer_ != nullptr) {
    observer_->OnViewChangeStart(id_, target_view);
  }
  in_view_change_ = true;
  view_ = target_view;
  DisarmViewChangeTimer();
  primary_latency_samples_.clear();

  ViewChangeMsg vc;
  vc.new_view = target_view;
  vc.stable_seq = proofed_stable_seq_;
  vc.stable_digest = proofed_stable_digest_;
  vc.checkpoint_proof = stable_proof_;
  vc.replica = id_;
  // P: prepared certificates above the stable checkpoint, drawn from the
  // retained certificate set — NOT the per-view message log, which is
  // cleared on every NEW-VIEW. A certificate gathered in view v is a promise
  // that must keep flowing into VIEW-CHANGE messages for every later view
  // until a stable checkpoint covers it; rebuilding P from the current
  // view's log drops those promises under message loss and lets a cascaded
  // view change repropose null at a committed sequence number.
  // Only entries inside the window provable from vc.stable_seq may be
  // included — after a proactive recovery the provable stable checkpoint can
  // lag the actual one until the next checkpoint gathers fresh signatures,
  // and entries beyond the provable window would make the whole VIEW-CHANGE
  // invalid.
  for (const auto& [seq, cert] : prepared_certs_) {
    if (seq <= vc.stable_seq || seq > vc.stable_seq + config_.log_window ||
        cert.pre_prepare_wire.empty() ||
        cert.prepare_wires.size() <
            static_cast<size_t>(config_.prepared_quorum())) {
      continue;  // outside the provable window or incomplete certificate
    }
    PreparedProof proof;
    proof.pre_prepare_wire = cert.pre_prepare_wire;
    proof.prepare_wires = cert.prepare_wires;
    vc.prepared.push_back(std::move(proof));
  }

  Bytes wire = channel_.SealSigned(MsgType::kViewChange, vc.Encode());
  view_change_votes_[target_view][id_] = ViewChangeVote{vc, wire};
  channel_.MulticastReplicas(wire, /*include_self=*/false);

  // If the new primary fails to install the view in time, cascade. The
  // timeout doubles (PBFT's liveness rule) but is capped so a long cascade
  // cannot leave a replica unresponsive for hours.
  view_change_timeout_ =
      std::min(view_change_timeout_ * 2,
               config_.view_change_timeout_cap *
                   config_.EffectiveViewChangeTimeout());
  ArmViewChangeTimer();

  MaybeSendNewView(target_view);
}

Result<ViewChangeMsg> Replica::ValidateViewChange(const WireMessage& msg) {
  auto vc = ViewChangeMsg::Decode(msg.payload);
  if (!vc.ok()) {
    return vc.status();
  }
  if (vc->replica != msg.sender || !config_.IsReplica(msg.sender)) {
    return InvalidArgument("VIEW-CHANGE sender mismatch");
  }

  // 1. Checkpoint proof: 2f+1 signed CHECKPOINT messages from distinct
  //    replicas matching (stable_seq, stable_digest). A genesis checkpoint
  //    (seq 0) needs no proof.
  if (vc->stable_seq > 0) {
    std::set<NodeId> signers;
    for (const Bytes& cp_wire : vc->checkpoint_proof) {
      auto cp_env = channel_.Open(cp_wire);
      if (!cp_env.ok() || cp_env->type != MsgType::kCheckpoint ||
          cp_env->auth != AuthKind::kSigned) {
        continue;
      }
      auto cp = CheckpointMsg::Decode(cp_env->payload);
      if (!cp.ok() || cp->replica != cp_env->sender ||
          cp->seq != vc->stable_seq || cp->state_digest != vc->stable_digest) {
        continue;
      }
      signers.insert(cp->replica);
    }
    if (signers.size() < static_cast<size_t>(config_.quorum())) {
      return PermissionDenied("VIEW-CHANGE checkpoint proof insufficient");
    }
  }

  // 2. Prepared certificates: signed pre-prepare + 2f signed prepares with
  //    matching (view, seq, digest) from distinct backups.
  for (const PreparedProof& proof : vc->prepared) {
    auto pp_env = channel_.Open(proof.pre_prepare_wire);
    if (!pp_env.ok() || pp_env->type != MsgType::kPrePrepare ||
        pp_env->auth != AuthKind::kSigned) {
      return PermissionDenied("prepared proof: bad pre-prepare");
    }
    auto pp = PrePrepareMsg::Decode(pp_env->payload);
    if (!pp.ok() || pp_env->sender != config_.PrimaryOf(pp->view)) {
      return PermissionDenied("prepared proof: pre-prepare not from primary");
    }
    if (pp->seq <= vc->stable_seq ||
        pp->seq > vc->stable_seq + config_.log_window) {
      return PermissionDenied("prepared proof: seq " + std::to_string(pp->seq) +
                              " outside window above " +
                              std::to_string(vc->stable_seq) + " from replica " +
                              std::to_string(vc->replica));
    }
    Digest digest = pp->ComputeDigest();
    std::set<NodeId> signers;
    for (const Bytes& p_wire : proof.prepare_wires) {
      auto p_env = channel_.Open(p_wire);
      if (!p_env.ok() || p_env->type != MsgType::kPrepare ||
          p_env->auth != AuthKind::kSigned) {
        continue;
      }
      auto prepare = PrepareMsg::Decode(p_env->payload);
      if (!prepare.ok() || prepare->replica != p_env->sender ||
          prepare->view != pp->view || prepare->seq != pp->seq ||
          prepare->digest != digest ||
          prepare->replica == config_.PrimaryOf(pp->view)) {
        continue;
      }
      signers.insert(prepare->replica);
    }
    if (signers.size() < static_cast<size_t>(config_.prepared_quorum())) {
      return PermissionDenied("prepared proof: not enough prepares");
    }
  }
  return vc;
}

void Replica::HandleViewChange(const WireMessage& msg, const Bytes& wire) {
  auto vc = ValidateViewChange(msg);
  if (!vc.ok()) {
    LOG_DEBUG << "replica " << id_ << " rejects VIEW-CHANGE: "
              << vc.status().ToString();
    return;
  }
  if (msg.auth != AuthKind::kSigned) {
    return;
  }
  ViewNum target = vc->new_view;
  if (target < view_ || (target == view_ && !in_view_change_)) {
    // Stale: the sender is still trying to reach a view we installed.
    MaybeForwardNewView(msg.sender);
    return;
  }
  if (config_.view_change_horizon > 0 &&
      target > view_ + config_.view_change_horizon) {
    // Spam defense: a Byzantine replica flooding votes for absurdly distant
    // views must not grow the vote table without bound. Catch-up through a
    // valid NEW-VIEW (which carries its own quorum) is unaffected.
    LOG_DEBUG << "replica " << id_ << " drops VIEW-CHANGE for far view "
              << target << " (own view " << view_ << ")";
    return;
  }
  view_change_votes_[target][msg.sender] = ViewChangeVote{*vc, wire};

  // Liveness rule: if f+1 replicas are trying to move past our view, join
  // them at the smallest such view even if our own timer has not fired.
  std::set<NodeId> movers;
  ViewNum smallest = 0;
  for (const auto& [tv, votes] : view_change_votes_) {
    if (tv <= view_ && !(tv == view_ && in_view_change_)) {
      continue;
    }
    if (tv > view_) {
      for (const auto& [node, vote] : votes) {
        movers.insert(node);
      }
      if (smallest == 0) {
        smallest = tv;
      }
    }
  }
  // (Applies even while waiting for a NEW-VIEW: f+1 replicas past us means
  // at least one correct replica timed out, so our own wait is hopeless.)
  if (smallest != 0 && smallest > view_ &&
      movers.size() >= static_cast<size_t>(config_.f + 1)) {
    StartViewChange(smallest);
    return;  // StartViewChange re-runs MaybeSendNewView
  }

  MaybeSendNewView(target);
}

Result<Replica::NewViewPlan> Replica::ComputeNewViewPlan(
    ViewNum target_view, const std::vector<ViewChangeMsg>& view_changes) {
  NewViewPlan plan;
  // min-s: the highest stable checkpoint among the view changes.
  const ViewChangeMsg* best = nullptr;
  for (const ViewChangeMsg& vc : view_changes) {
    if (best == nullptr || vc.stable_seq > best->stable_seq) {
      best = &vc;
    }
  }
  assert(best != nullptr);
  plan.stable_seq = best->stable_seq;
  plan.stable_digest = best->stable_digest;
  plan.stable_proof = best->checkpoint_proof;

  // max-s: the highest sequence number in any prepared certificate.
  SeqNum max_seq = plan.stable_seq;
  // seq -> (view, source pre-prepare) with the highest view wins.
  std::map<SeqNum, std::pair<ViewNum, PrePrepareMsg>> chosen;
  for (const ViewChangeMsg& vc : view_changes) {
    for (const PreparedProof& proof : vc.prepared) {
      auto pp_env = Channel::ParseUnverified(proof.pre_prepare_wire);
      if (!pp_env.ok()) {
        continue;  // cannot happen for validated view changes
      }
      auto pp = PrePrepareMsg::Decode(pp_env->payload);
      if (!pp.ok() || pp->seq <= plan.stable_seq) {
        continue;
      }
      max_seq = std::max(max_seq, pp->seq);
      auto it = chosen.find(pp->seq);
      if (it == chosen.end() || pp->view > it->second.first) {
        chosen[pp->seq] = {pp->view, *pp};
      }
    }
  }

  for (SeqNum seq = plan.stable_seq + 1; seq <= max_seq; ++seq) {
    PrePrepareMsg pp;
    pp.view = target_view;
    pp.seq = seq;
    auto it = chosen.find(seq);
    if (it != chosen.end()) {
      pp.nondet = it->second.second.nondet;
      pp.request_digests = it->second.second.request_digests;
    }
    // else: null request (empty batch) to fill the gap.
    plan.pre_prepares[seq] = std::move(pp);
  }
  return plan;
}

void Replica::MaybeSendNewView(ViewNum target_view) {
  if (config_.PrimaryOf(target_view) != id_ || !in_view_change_ ||
      view_ != target_view || new_view_sent_.count(target_view) > 0) {
    return;
  }
  auto votes_it = view_change_votes_.find(target_view);
  if (votes_it == view_change_votes_.end() ||
      votes_it->second.size() < static_cast<size_t>(config_.quorum())) {
    return;
  }

  std::vector<ViewChangeMsg> vcs;
  std::vector<Bytes> vc_wires;
  for (const auto& [node, vote] : votes_it->second) {
    vcs.push_back(vote.msg);
    vc_wires.push_back(vote.wire);
    if (vcs.size() >= static_cast<size_t>(config_.quorum())) {
      break;
    }
  }

  auto plan = ComputeNewViewPlan(target_view, vcs);
  if (!plan.ok()) {
    return;
  }

  NewViewMsg nv;
  nv.view = target_view;
  nv.view_changes = vc_wires;
  for (auto& [seq, pp] : plan->pre_prepares) {
    nv.pre_prepares.push_back(
        channel_.SealSigned(MsgType::kPrePrepare, pp.Encode()));
  }
  Bytes wire = channel_.SealSigned(MsgType::kNewView, nv.Encode());
  channel_.MulticastReplicas(wire, /*include_self=*/false);
  new_view_sent_.insert(target_view);
  LOG_INFO << "replica " << id_ << " sends NEW-VIEW for view " << target_view
           << " with " << nv.pre_prepares.size() << " reproposals";

  EnterNewView(target_view, *plan, nv.pre_prepares, wire);
}

void Replica::MaybeForwardNewView(NodeId to) {
  // At most once per (replica, view), so a replica replaying stale messages
  // (view-change-spam) cannot amplify them into a NEW-VIEW stream.
  if (in_view_change_ || new_view_wire_.empty() || to == id_ ||
      !new_view_forwarded_.insert(to).second) {
    return;
  }
  LOG_INFO << "replica " << id_ << " forwards NEW-VIEW for view " << view_
           << " to replica " << to;
  channel_.Send(to, new_view_wire_);
}

void Replica::HandleNewView(const WireMessage& msg, const Bytes& wire) {
  auto nv = NewViewMsg::Decode(msg.payload);
  if (!nv.ok() || msg.auth != AuthKind::kSigned) {
    return;
  }
  if (msg.sender != config_.PrimaryOf(nv->view)) {
    return;
  }
  if (nv->view < view_ || (nv->view == view_ && !in_view_change_)) {
    return;  // stale
  }

  // Validate the embedded view changes.
  std::vector<ViewChangeMsg> vcs;
  std::set<NodeId> senders;
  for (const Bytes& vc_wire : nv->view_changes) {
    auto vc_env = channel_.Open(vc_wire);
    if (!vc_env.ok() || vc_env->type != MsgType::kViewChange ||
        vc_env->auth != AuthKind::kSigned) {
      return;
    }
    auto vc = ValidateViewChange(*vc_env);
    if (!vc.ok() || vc->new_view != nv->view) {
      return;
    }
    if (!senders.insert(vc->replica).second) {
      return;  // duplicate sender
    }
    vcs.push_back(std::move(*vc));
  }
  if (senders.size() < static_cast<size_t>(config_.quorum())) {
    return;
  }

  // Recompute the plan and check the primary's pre-prepares against it.
  auto plan = ComputeNewViewPlan(nv->view, vcs);
  if (!plan.ok()) {
    return;
  }
  std::map<SeqNum, Digest> expected;
  for (const auto& [seq, pp] : plan->pre_prepares) {
    expected[seq] = pp.ComputeDigest();
  }
  std::map<SeqNum, Digest> offered;
  for (const Bytes& pp_wire : nv->pre_prepares) {
    auto pp_env = channel_.Open(pp_wire);
    if (!pp_env.ok() || pp_env->type != MsgType::kPrePrepare ||
        pp_env->auth != AuthKind::kSigned ||
        pp_env->sender != config_.PrimaryOf(nv->view)) {
      return;
    }
    auto pp = PrePrepareMsg::Decode(pp_env->payload);
    if (!pp.ok() || pp->view != nv->view) {
      return;
    }
    offered[pp->seq] = pp->ComputeDigest();
  }
  if (offered != expected) {
    LOG_WARN << "replica " << id_ << " rejects NEW-VIEW for view " << nv->view
             << ": pre-prepare set mismatch";
    return;
  }

  // A view whose change we took no part in: we missed the group's traffic
  // (typically this NEW-VIEW was forwarded to us), so we are catching up.
  if (nv->view > view_) {
    catching_up_ = true;
  }
  EnterNewView(nv->view, *plan, nv->pre_prepares, wire);
}

void Replica::EnterNewView(ViewNum target_view, const NewViewPlan& plan,
                           const std::vector<Bytes>& new_view_pre_prepares,
                           const Bytes& new_view_wire) {
  LOG_INFO << "replica " << id_ << " enters view " << target_view;
  view_ = target_view;
  in_view_change_ = false;
  new_view_wire_ = new_view_wire;
  new_view_forwarded_.clear();
  // A durable view mark: a replica restarting from disk must not come back
  // in an older view than the one it operated in.
  service_->LogViewMark(target_view);
  sim_->trace().Record(TraceEvent::kNewView, sim_->Now(), id_, -1,
                       target_view, 0);
  if (observer_ != nullptr) {
    observer_->OnNewView(id_, target_view);
  }
  view_change_timeout_ = config_.EffectiveViewChangeTimeout();
  DisarmViewChangeTimer();
  primary_latency_samples_.clear();
  quality_view_change_fired_ = false;
  watermark_stall_since_ = -1;  // a stall ends with the view it began in
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(target_view));

  if (plan.stable_seq > stable_seq_) {
    AdoptStableCheckpoint(plan.stable_seq, plan.stable_digest,
                          plan.stable_proof);
  }

  // Install the reproposed pre-prepares; certificates from old views are
  // obsolete.
  log_.Clear();
  bool is_primary = config_.PrimaryOf(target_view) == id_;
  for (const Bytes& pp_wire : new_view_pre_prepares) {
    auto pp_env = Channel::ParseUnverified(pp_wire);
    if (!pp_env.ok()) {
      continue;
    }
    auto pp = PrePrepareMsg::Decode(pp_env->payload);
    if (!pp.ok()) {
      continue;
    }
    SeqNum seq = pp->seq;
    LogEntry& entry = log_.Get(seq);
    entry.view = target_view;
    entry.digest = pp->ComputeDigest();
    entry.pre_prepare = std::move(*pp);
    entry.pre_prepare_wire = pp_wire;
    entry.executed = seq <= last_executed_;
    // Each re-proposal carries a prepared certificate (or is null), so a
    // missing body is fetched from everyone and taken on its digest.
    entry.certified = true;
    entry.has_bodies = MarkListed(seq, entry) || entry.executed;
    if (entry.has_bodies) {
      SendPrepare(entry);
    }
  }
  FetchMissingBodies(/*to_all=*/true);

  SeqNum max_assigned = plan.stable_seq;
  if (!plan.pre_prepares.empty()) {
    max_assigned = plan.pre_prepares.rbegin()->first;
  }
  next_seq_ = std::max(next_seq_, max_assigned + 1);
  if (next_seq_ <= stable_seq_) {
    next_seq_ = stable_seq_ + 1;
  }

  // Snapshot the sequence numbers first: TryPrepared can cascade into
  // execution and checkpointing, which mutate the log.
  std::vector<SeqNum> seqs;
  for (const auto& [seq, entry] : log_.entries()) {
    seqs.push_back(seq);
  }
  for (SeqNum seq : seqs) {
    if (log_.Contains(seq)) {
      TryPrepared(seq);
    }
  }
  // Messages that raced ahead of the NEW-VIEW can now be processed.
  ReplayStashedWires();
  if (is_primary) {
    MaybeSendPrePrepare();
  }
  if (!pending_.empty()) {
    ArmViewChangeTimer();
  }
}

}  // namespace bftbase
