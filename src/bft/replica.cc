#include "src/bft/replica.h"

#include <algorithm>
#include <cassert>

#include "src/util/codec.h"
#include "src/util/log.h"

namespace bftbase {

namespace {
constexpr const char kRequestsExecuted[] = "replica.requests_executed";
constexpr const char kBatchesExecuted[] = "replica.batches_executed";
constexpr const char kViewChangesStarted[] = "replica.view_changes_started";
// Virtual µs from taking a checkpoint to sending its CHECKPOINT vote.
constexpr const char kCheckpointVoteLag[] = "replica.checkpoint_vote_lag_us";
constexpr const char kFetchesSent[] = "replica.fetches_sent";
// Virtual µs a primary held proposable requests with its next sequence
// number past the high watermark: from the first refused proposal to the
// next PRE-PREPARE.
constexpr const char kWatermarkStall[] = "replica.watermark_stall_us";
constexpr const char kQualityViewChanges[] = "replica.quality_view_changes";

// Adaptive batching (Config::adaptive_batching): the batch cap stays within
// [kAdaptiveBatchMin, kAdaptiveBatchMax] and the batching hold grows up to
// kAdaptiveBatchHoldMax.
constexpr int kAdaptiveBatchMin = 1;
constexpr int kAdaptiveBatchMax = 64;
constexpr SimTime kAdaptiveBatchHoldMax = 2 * kMillisecond;
// Latency samples per view the primary quality monitor needs before judging.
constexpr size_t kPrimaryLatencyWindow = 8;

// The Payload `wire` was delivered in, shared instead of copied; a copy when
// `wire` is not the delivery being handled (e.g. a replayed stash).
std::shared_ptr<const Payload> ShareDelivered(Simulation* sim,
                                              const Bytes& wire) {
  const std::shared_ptr<const Payload>& delivery = sim->current_delivery();
  if (delivery != nullptr && delivery->bytes.data() == wire.data()) {
    return delivery;
  }
  return std::make_shared<const Payload>(wire);
}

// The body of a client's REQUEST envelope, parsed without authenticating
// it; an error unless the envelope's sender is the client the body names.
Result<RequestMsg> ParseRequestEnvelope(BytesView wire) {
  auto envelope = Channel::ParseUnverified(wire);
  if (!envelope.ok()) {
    return envelope.status();
  }
  auto request = RequestMsg::Decode(envelope->payload);
  if (request.ok() && (envelope->type != MsgType::kRequest ||
                       request->client != envelope->sender)) {
    return InvalidArgument("not a client's own REQUEST");
  }
  return request;
}
}  // namespace

uint64_t Replica::requests_executed() const {
  return sim_->metrics().Get(kRequestsExecuted, id_);
}

uint64_t Replica::batches_executed() const {
  return sim_->metrics().Get(kBatchesExecuted, id_);
}

uint64_t Replica::view_changes_started() const {
  return sim_->metrics().Get(kViewChangesStarted, id_);
}

uint64_t Replica::quality_view_changes() const {
  return sim_->metrics().Get(kQualityViewChanges, id_);
}

Replica::Replica(Simulation* sim, KeyTable* keys, const Config& config,
                 NodeId id, ServiceInterface* service)
    : sim_(sim),
      keys_(keys),
      config_(config),
      id_(id),
      service_(service),
      channel_(sim, keys, config, id),
      view_change_timeout_(config.EffectiveViewChangeTimeout()) {
  assert(config.IsReplica(id));
  adaptive_batch_cap_ =
      std::clamp(config_.max_batch, kAdaptiveBatchMin, kAdaptiveBatchMax);
  sim_->AddNode(id_, this);
  service_->SetStateSender([this](NodeId to, const Bytes& payload) {
    channel_.Send(to, channel_.SealMac(MsgType::kState, payload, to));
  });
  service_->SetStateTransferDone([this](SeqNum seq, const Digest& digest) {
    OnStateTransferDone(seq, digest);
  });
  ArmNullRequestTimer();
}

// ----------------------------------------------------- null-request ticks

void Replica::ArmNullRequestTimer() {
  if (config_.null_request_interval <= 0) {
    return;
  }
  null_timer_marker_ = next_seq_;
  null_request_timer_ = sim_->After(id_, config_.null_request_interval,
                                    [this] { OnNullRequestTimer(); });
}

void Replica::OnNullRequestTimer() {
  null_request_timer_ = 0;
  // Only the primary proposes, and only when the pipeline is fully idle:
  // no proposals since the timer was armed and everything executed.
  if (IsPrimary() && !in_view_change_ && !recovering_ && !fetching_state_ &&
      next_seq_ == null_timer_marker_ && last_executed_ + 1 == next_seq_ &&
      InWindow(next_seq_)) {
    PrePrepareMsg pp;
    pp.view = view_;
    pp.seq = next_seq_++;
    pp.nondet = service_->ProposeNondet();
    // requests stays empty: the null request.
    Bytes wire = channel_.SealSigned(MsgType::kPrePrepare, pp.Encode());
    LogEntry& entry = log_.Get(pp.seq);
    entry.view = view_;
    entry.digest = pp.ComputeDigest();
    entry.pre_prepare = std::move(pp);
    entry.pre_prepare_wire = wire;
    entry.has_bodies = true;
    channel_.MulticastReplicas(wire, /*include_self=*/false);
  }
  // Re-broadcast our newest unstabilized checkpoint vote. Checkpoint
  // envelopes are fire-and-forget; if they are lost (partition, drops) no
  // new checkpoint is ever taken — taking one requires executing past the
  // window, which requires the lost votes — and the window wedges
  // permanently. The heartbeat is the natural place to retry, and it runs
  // on every replica, not just the primary.
  if (!in_view_change_ && !recovering_ && !fetching_state_) {
    for (auto it = checkpoint_votes_.rbegin(); it != checkpoint_votes_.rend();
         ++it) {
      auto own = it->second.find(id_);
      if (it->first > stable_seq_ && own != it->second.end() &&
          !own->second.wire.empty()) {
        channel_.MulticastReplicas(own->second.wire, /*include_self=*/false);
        break;
      }
    }
    // Likewise a FETCH or its answer may have been lost: ask everyone again.
    FetchMissingBodies(/*to_all=*/true);
  }
  ArmNullRequestTimer();
}

void Replica::OnMessage(NodeId /*from*/, const Bytes& wire) {
  if (crashed_) {
    return;  // powered off: nothing is received, nothing survives
  }
  if (mute_) {
    return;
  }
  auto opened = channel_.Open(wire);
  if (!opened.ok()) {
    LOG_DEBUG << "replica " << id_ << " rejects message: "
              << opened.status().ToString();
    return;
  }
  const WireMessage& msg = *opened;

  if (recovering_) {
    // While "rebooted" the replica only talks to the state-transfer
    // machinery that is rebuilding it.
    if (msg.type == MsgType::kState && config_.IsReplica(msg.sender)) {
      service_->HandleStateMessage(msg.sender, msg.payload);
    }
    return;
  }

  switch (msg.type) {
    case MsgType::kRequest:
      HandleRequest(msg, wire);
      break;
    case MsgType::kPrePrepare:
      HandlePrePrepare(msg, wire);
      break;
    case MsgType::kPrepare:
      HandlePrepare(msg, wire);
      break;
    case MsgType::kCommit:
      HandleCommit(msg, wire);
      break;
    case MsgType::kCheckpoint:
      HandleCheckpoint(msg, wire);
      break;
    case MsgType::kViewChange:
      HandleViewChange(msg, wire);
      break;
    case MsgType::kNewView:
      HandleNewView(msg, wire);
      break;
    case MsgType::kState:
      if (config_.IsReplica(msg.sender)) {
        service_->HandleStateMessage(msg.sender, msg.payload);
      }
      break;
    case MsgType::kFetch:
      HandleFetch(msg);
      break;
    case MsgType::kFetchReply:
      HandleFetchReply(msg);
      break;
    case MsgType::kReply:
      break;  // replicas do not process replies
  }
}

// --------------------------------------------------------------- requests

void Replica::HandleRequest(const WireMessage& msg, const Bytes& wire) {
  auto request = RequestMsg::Decode(msg.payload);
  if (!request.ok() || request->client != msg.sender ||
      !config_.IsClient(request->client)) {
    return;
  }

  // Retransmission of an executed request: resend the cached reply.
  auto ts_it = last_executed_timestamp_.find(request->client);
  if (ts_it != last_executed_timestamp_.end() &&
      request->timestamp <= ts_it->second) {
    auto cache_it = reply_cache_.find(request->client);
    if (cache_it != reply_cache_.end() &&
        cache_it->second.timestamp == request->timestamp) {
      // Retransmission: re-seal the cached result (always the full result so
      // the client can finish even if the designated replier is faulty).
      ReplyMsg reply;
      reply.view = view_;
      reply.timestamp = cache_it->second.timestamp;
      reply.client = request->client;
      reply.replica = id_;
      reply.result = cache_it->second.result;
      if (corrupt_replies_ && !reply.result.empty()) {
        // The cache stores the honest result; an active reply-corruption
        // fault mangles only the outgoing copy (same as SendReply).
        for (uint8_t& b : reply.result) {
          b ^= 0x5a;
        }
      }
      channel_.Send(request->client,
                    channel_.SealMac(MsgType::kReply, reply.Encode(),
                                     request->client));
    }
    return;
  }

  if (request->read_only) {
    ExecuteReadOnly(*request);
    return;
  }

  // The one digest of this body at this replica: it keys the store, and the
  // PRE-PREPARE that orders the request lists it.
  Digest digest = request->ComputeDigest();
  const bool held = requests_.count(digest) > 0;
  auto pending = pending_.find(request->client);
  const bool retransmission =
      pending != pending_.end() && pending->second == digest;
  if (!AdmitRequest(digest, *request, wire)) {
    return;
  }
  if (!held) {
    OnBodyStored();
  }
  if (in_view_change_) {
    return;
  }
  if (IsPrimary()) {
    MaybeSendPrePrepare();
    return;
  }
  // Backup. A second copy from the client is a retransmission, so the
  // primary may have missed the first: relay it (the client's own
  // authenticator makes it verifiable there). And start suspecting the
  // primary if it fails to order the request. A running timer is left alone
  // (PBFT's liveness rule): restarting it on every retransmission would let
  // client retries postpone suspicion of a dead primary.
  if (retransmission) {
    channel_.Send(config_.PrimaryOf(view_), wire);
  }
  if (view_change_deadline_ == 0) {
    ArmViewChangeTimer();
  }
}

bool Replica::AdmitRequest(const Digest& digest, const RequestMsg& request,
                           const Bytes& wire) {
  auto pending = pending_.find(request.client);
  if (pending != pending_.end()) {
    if (pending->second == digest) {
      return true;
    }
    if (request.timestamp <= requests_.at(pending->second).timestamp) {
      return false;
    }
    // The client moved on, so its older request executed somewhere.
    ReleasePending(request.client, request.timestamp - 1);
  }
  if (requests_.count(digest) == 0) {
    StoreBody(digest, request, ShareDelivered(sim_, wire));
  }
  pending_[request.client] = digest;
  return true;
}

void Replica::StoreBody(const Digest& digest, const RequestMsg& request,
                        std::shared_ptr<const Payload> wire) {
  StoredRequest& body = requests_[digest];
  body.client = request.client;
  body.timestamp = request.timestamp;
  body.client_wire = std::move(wire);
  body.received_at = sim_->Now();
}

void Replica::ReleasePending(NodeId client, uint64_t timestamp) {
  auto pending = pending_.find(client);
  if (pending == pending_.end()) {
    return;
  }
  auto body = requests_.find(pending->second);
  if (body->second.timestamp > timestamp) {
    return;
  }
  if (body->second.batch_seq == 0) {
    requests_.erase(body);
  }
  pending_.erase(pending);
}

bool Replica::MarkListed(SeqNum seq, const LogEntry& entry) {
  bool all_held = true;
  for (const Digest& d : entry.pre_prepare->request_digests) {
    auto it = requests_.find(d);
    if (it == requests_.end()) {
      all_held = false;
      continue;
    }
    it->second.batch_seq = std::max(it->second.batch_seq, seq);
    it->second.batch_view = entry.view;
  }
  return all_held;
}

void Replica::OnBodyStored() {
  std::vector<SeqNum> ready;
  for (auto it = log_.entries().upper_bound(last_executed_);
       it != log_.entries().end(); ++it) {
    LogEntry& entry = it->second;
    if (entry.pre_prepare.has_value() && !entry.has_bodies &&
        MarkListed(it->first, entry)) {
      entry.has_bodies = true;
      ready.push_back(it->first);
    }
  }
  // An entry of an older view waits for the NEW-VIEW to re-propose it.
  for (SeqNum seq : ready) {
    LogEntry& entry = log_.Get(seq);
    if (in_view_change_ || entry.view != view_) {
      continue;
    }
    SendPrepare(entry);
    TryPrepared(seq);
  }
}

bool Replica::Certified(const LogEntry& entry) const {
  return entry.certified ||
         entry.MatchingPrepares() >=
             static_cast<size_t>(config_.prepared_quorum());
}

void Replica::FetchMissingBodies(bool to_all) {
  FetchMsg fetch;
  for (auto it = log_.entries().upper_bound(last_executed_);
       it != log_.entries().end(); ++it) {
    const LogEntry& entry = it->second;
    if (!entry.pre_prepare.has_value() || entry.has_bodies) {
      continue;
    }
    for (const Digest& d : entry.pre_prepare->request_digests) {
      if (requests_.count(d) == 0) {
        fetch.request_digests.push_back(d);
        to_all = to_all || Certified(entry);
      }
    }
  }
  std::sort(fetch.request_digests.begin(), fetch.request_digests.end());
  fetch.request_digests.erase(std::unique(fetch.request_digests.begin(),
                                          fetch.request_digests.end()),
                              fetch.request_digests.end());
  if (fetch.request_digests.empty()) {
    return;
  }
  if (fetch.request_digests.size() > kMaxBatch) {
    fetch.request_digests.resize(kMaxBatch);
  }
  sim_->metrics().Inc(kFetchesSent, id_);
  const NodeId primary = config_.PrimaryOf(view_);
  if (to_all || primary == id_) {
    channel_.MulticastReplicas(
        channel_.SealAuthenticated(MsgType::kFetch, fetch.Encode()),
        /*include_self=*/false);
  } else {
    channel_.Send(primary,
                  channel_.SealMac(MsgType::kFetch, fetch.Encode(), primary));
  }
}

void Replica::HandleFetch(const WireMessage& msg) {
  auto fetch = FetchMsg::Decode(msg.payload);
  if (!fetch.ok() || !config_.IsReplica(msg.sender) || msg.sender == id_) {
    return;
  }
  // Each body at most once, however often a faulty peer lists it.
  std::vector<Digest>& wanted = fetch->request_digests;
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  FetchReplyMsg reply;
  for (const Digest& d : wanted) {
    auto it = requests_.find(d);
    if (it != requests_.end()) {
      reply.request_wires.push_back(it->second.client_wire->bytes);
    }
  }
  if (!reply.request_wires.empty()) {
    channel_.Send(msg.sender, channel_.SealMac(MsgType::kFetchReply,
                                               reply.Encode(), msg.sender));
  }
}

void Replica::HandleFetchReply(const WireMessage& msg) {
  auto reply = FetchReplyMsg::Decode(msg.payload);
  if (!reply.ok() || !config_.IsReplica(msg.sender)) {
    return;
  }
  bool stored = false;
  for (const Bytes& wire : reply->request_wires) {
    auto request = ParseRequestEnvelope(wire);
    if (!request.ok() || !config_.IsClient(request->client)) {
      continue;
    }
    Digest digest = request->ComputeDigest();
    if (requests_.count(digest) > 0) {
      continue;
    }
    // Only bodies the unexecuted log waits for are taken. A batch a quorum
    // vouched for needs only the digest to match; one this replica has yet
    // to prepare needs the client's authenticator, or a faulty primary could
    // order a body no client sent.
    bool wanted = false;
    bool certified = false;
    for (auto it = log_.entries().upper_bound(last_executed_);
         it != log_.entries().end(); ++it) {
      const LogEntry& entry = it->second;
      if (!entry.pre_prepare.has_value() || entry.has_bodies) {
        continue;
      }
      const auto& listed = entry.pre_prepare->request_digests;
      if (std::find(listed.begin(), listed.end(), digest) != listed.end()) {
        wanted = true;
        certified = certified || Certified(entry);
      }
    }
    if (!wanted) {
      continue;
    }
    if (!certified) {
      auto opened = channel_.Open(wire);
      if (!opened.ok() || opened->type != MsgType::kRequest ||
          opened->sender != request->client) {
        continue;
      }
    }
    StoreBody(digest, *request, std::make_shared<const Payload>(wire));
    stored = true;
  }
  if (stored) {
    OnBodyStored();
  }
}

void Replica::ReleaseBodiesThrough(SeqNum seq) {
  for (auto it = requests_.begin(); it != requests_.end();) {
    StoredRequest& body = it->second;
    if (body.batch_seq == 0 || body.batch_seq > seq) {
      ++it;
      continue;
    }
    auto pending = pending_.find(body.client);
    if (pending != pending_.end() && pending->second == it->first) {
      // Still unexecuted here: its batch was dropped by a view change, so it
      // stays pending for the next primary to order.
      body.batch_seq = 0;
      ++it;
      continue;
    }
    it = requests_.erase(it);
  }
}

void Replica::MaybeSendPrePrepare() {
  while (next_seq_ <= last_executed_ + config_.EffectivePipelineDepth()) {
    // Proposable: pending requests no batch of this view lists yet, smallest
    // digest first.
    std::vector<Digest> proposable;
    for (const auto& [client, digest] : pending_) {
      const StoredRequest& body = requests_.at(digest);
      if (body.batch_seq == 0 || body.batch_view != view_) {
        proposable.push_back(digest);
      }
    }
    if (proposable.empty()) {
      return;
    }
    if (!InWindow(next_seq_)) {
      if (next_seq_ > stable_seq_ + config_.log_window &&
          watermark_stall_since_ < 0) {
        watermark_stall_since_ = sim_->Now();
      }
      return;
    }
    std::sort(proposable.begin(), proposable.end());
    const int batch_cap =
        config_.adaptive_batching ? adaptive_batch_cap_ : config_.max_batch;
    // Adaptive hold: when an earlier batch is already in flight and the
    // pending set has not filled the current cap, defer briefly so requests
    // coalesce instead of going out as a stream of tiny batches. Never holds
    // an idle pipeline (first batch always goes immediately), so unloaded
    // latency is unchanged.
    if (config_.adaptive_batching && !batch_hold_elapsed_ &&
        adaptive_hold_us_ > 0 &&
        next_seq_ > last_executed_ + 1 &&
        proposable.size() < static_cast<size_t>(batch_cap)) {
      ArmBatchHoldTimer();
      return;
    }
    batch_hold_elapsed_ = false;
    if (batch_hold_timer_ != 0) {
      sim_->Cancel(batch_hold_timer_);
      batch_hold_timer_ = 0;
    }
    if (watermark_stall_since_ >= 0) {
      sim_->metrics().Observe(kWatermarkStall,
                              sim_->Now() - watermark_stall_since_, id_);
      watermark_stall_since_ = -1;
    }
    PrePrepareMsg pp;
    pp.view = view_;
    pp.seq = next_seq_;
    pp.nondet = service_->ProposeNondet();
    // Batch up to the cap's worth of pending requests, by digest only: every
    // replica got the bodies from the clients.
    const size_t batched =
        std::min(proposable.size(), static_cast<size_t>(batch_cap));
    pp.request_digests.assign(proposable.begin(),
                              proposable.begin() + batched);
    ++next_seq_;

    Bytes wire = channel_.SealSigned(MsgType::kPrePrepare, pp.Encode());

    LogEntry& entry = log_.Get(pp.seq);
    entry.pre_prepare = pp;
    entry.pre_prepare_wire = wire;
    entry.view = view_;
    entry.digest = pp.ComputeDigest();
    entry.has_bodies = MarkListed(pp.seq, entry);

    if (equivocate_) {
      // Byzantine primary: send a conflicting batch (different nondet) to a
      // chosen subset of the backups — equivocate_mask_ when set, else the
      // odd-id half. Correct backups cannot assemble a prepared certificate
      // and will eventually change views.
      PrePrepareMsg evil = pp;
      evil.nondet.push_back(0xEE);
      Bytes evil_wire =
          channel_.SealSigned(MsgType::kPrePrepare, evil.Encode());
      for (NodeId r = 0; r < config_.n(); ++r) {
        if (r == id_) {
          continue;
        }
        bool send_evil = equivocate_mask_ != 0
                             ? ((equivocate_mask_ >> r) & 1u) != 0
                             : r % 2 != 0;
        channel_.Send(r, send_evil ? evil_wire : wire);
      }
    } else if (proposal_delay_ > 0) {
      // Byzantine slow primary: the entry above is installed immediately,
      // but the multicast is held back. The incarnation guard keeps a
      // delayed wire from a pre-crash life off the network.
      uint64_t incarnation = incarnation_;
      Bytes held = wire;
      sim_->After(id_, proposal_delay_, [this, incarnation, held] {
        if (incarnation_ != incarnation || crashed_ || mute_) {
          return;
        }
        channel_.MulticastReplicas(held, /*include_self=*/false);
      });
    } else {
      channel_.MulticastReplicas(wire, /*include_self=*/false);
    }

    if (config_.adaptive_batching) {
      AdaptBatch(static_cast<int>(batched),
                 static_cast<int>(proposable.size() - batched));
    }
    TryPrepared(pp.seq);
  }
}

void Replica::ArmBatchHoldTimer() {
  if (batch_hold_timer_ != 0) {
    return;
  }
  uint64_t incarnation = incarnation_;
  batch_hold_timer_ = sim_->After(id_, adaptive_hold_us_, [this, incarnation] {
    if (incarnation_ != incarnation || crashed_) {
      return;
    }
    batch_hold_timer_ = 0;
    if (!IsPrimary() || in_view_change_ || recovering_ || fetching_state_) {
      return;
    }
    batch_hold_elapsed_ = true;
    MaybeSendPrePrepare();
    batch_hold_elapsed_ = false;
  });
}

void Replica::AdaptBatch(int batch_size, int backlog) {
  if (backlog >= adaptive_batch_cap_) {
    // The queue refilled the cap before this batch even shipped: the cap is
    // the bottleneck, grow it.
    adaptive_batch_cap_ = std::min(adaptive_batch_cap_ * 2, kAdaptiveBatchMax);
  } else if (batch_size <= adaptive_batch_cap_ / 2) {
    // Batches are not close to filling the cap: shrink toward demand so a
    // later burst measurement is meaningful.
    adaptive_batch_cap_ = std::max(adaptive_batch_cap_ / 2, kAdaptiveBatchMin);
  }
  if (batch_size >= adaptive_batch_cap_ || backlog > 0) {
    // Demand outruns the hold: stop delaying, throughput needs the slots.
    adaptive_hold_us_ /= 2;
  } else if (next_seq_ > last_executed_ + 1) {
    // Small batch while the pipeline is busy: coalescing would have helped,
    // lengthen the hold (bounded).
    adaptive_hold_us_ = std::min(std::max(2 * adaptive_hold_us_, SimTime{250}),
                                 kAdaptiveBatchHoldMax);
  }
}

// ------------------------------------------------------------ pre-prepare

void Replica::HandlePrePrepare(const WireMessage& msg, const Bytes& wire) {
  auto pp = PrePrepareMsg::Decode(msg.payload);
  if (!pp.ok()) {
    return;
  }
  if (msg.auth != AuthKind::kSigned) {
    return;  // pre-prepares must be transferable for view-change proofs
  }
  if (msg.sender != config_.PrimaryOf(pp->view)) {
    return;
  }
  if (pp->view > view_ || (pp->view == view_ && in_view_change_)) {
    StashWire(wire);  // early: we have not installed that view yet
    return;
  }
  if (pp->view < view_) {
    MaybeForwardNewView(msg.sender);
    return;
  }
  // Accepted even while fetching state: execution still waits for the
  // transfer (everything up to its target is below the window), and the
  // batches after it are then ready to execute instead of leaving a gap
  // only the next checkpoint could fill.
  if (!InWindow(pp->seq)) {
    return;
  }

  Digest digest = pp->ComputeDigest();
  LogEntry& entry = log_.Get(pp->seq);
  if (entry.pre_prepare.has_value() && entry.view == pp->view) {
    if (entry.digest != digest) {
      LOG_WARN << "replica " << id_ << ": conflicting pre-prepare for seq "
               << pp->seq << " in view " << pp->view;
    }
    return;  // already accepted one for this (view, seq)
  }

  if (!service_->CheckNondet(pp->nondet)) {
    LOG_WARN << "replica " << id_ << ": rejecting nondet proposal at seq "
             << pp->seq;
    return;
  }

  entry.pre_prepare = std::move(*pp);
  entry.pre_prepare_wire = wire;  // kept for view-change proofs
  entry.view = entry.pre_prepare->view;
  entry.digest = digest;
  entry.has_bodies = MarkListed(entry.pre_prepare->seq, entry);
  sim_->trace().Record(TraceEvent::kPrePrepareAccepted, sim_->Now(), id_,
                       msg.sender, entry.view, entry.pre_prepare->seq,
                       digest.view());
  if (observer_ != nullptr) {
    observer_->OnPrePrepareAccepted(id_, entry.view, entry.pre_prepare->seq,
                                    digest);
  }

  // PREPARE only once every listed body is here, authenticated by its
  // client; until then ask the primary for the missing ones.
  if (entry.has_bodies) {
    SendPrepare(entry);
  } else {
    FetchMissingBodies(/*to_all=*/false);
  }
  ArmViewChangeTimer();
  TryPrepared(entry.pre_prepare->seq);
}

void Replica::SendPrepare(LogEntry& entry) {
  if (config_.PrimaryOf(entry.view) == id_ ||
      entry.prepare_pool.count(id_) > 0) {
    return;
  }
  // Signed, so it can serve in prepared proofs.
  PrepareMsg prepare;
  prepare.view = entry.view;
  prepare.seq = entry.pre_prepare->seq;
  prepare.digest = entry.digest;
  prepare.replica = id_;
  Bytes prepare_wire = channel_.SealSigned(MsgType::kPrepare, prepare.Encode());
  entry.prepare_pool[id_] = LogEntry::Vote{entry.digest, prepare_wire};
  channel_.MulticastReplicas(prepare_wire, /*include_self=*/false);
}

void Replica::HandlePrepare(const WireMessage& msg, const Bytes& wire) {
  auto prepare = PrepareMsg::Decode(msg.payload);
  if (!prepare.ok() || prepare->replica != msg.sender ||
      !config_.IsReplica(msg.sender)) {
    return;
  }
  if (msg.auth != AuthKind::kSigned) {
    return;
  }
  if (prepare->view > view_ || (prepare->view == view_ && in_view_change_)) {
    StashWire(wire);
    return;
  }
  if (prepare->view < view_) {
    MaybeForwardNewView(msg.sender);
    return;
  }
  if (!InWindow(prepare->seq)) {
    return;
  }
  if (msg.sender == config_.PrimaryOf(prepare->view)) {
    return;  // the primary's pre-prepare is its prepare
  }
  LogEntry& entry = log_.Get(prepare->seq);
  // Keep the raw envelope for prepared proofs.
  entry.prepare_pool[msg.sender] = LogEntry::Vote{prepare->digest, wire};
  if (entry.pre_prepare.has_value() && !entry.has_bodies &&
      entry.MatchingPrepares() ==
          static_cast<size_t>(config_.prepared_quorum())) {
    // The batch just became certified, so its missing bodies may now come
    // from anyone on their digest alone (e.g. envelopes whose MACs predate
    // this replica's key refresh).
    FetchMissingBodies(/*to_all=*/true);
  }
  TryPrepared(prepare->seq);
}

void Replica::HandleCommit(const WireMessage& msg, const Bytes& wire) {
  auto commit = CommitMsg::Decode(msg.payload);
  if (!commit.ok() || commit->replica != msg.sender ||
      !config_.IsReplica(msg.sender)) {
    return;
  }
  if (commit->view > view_ || (commit->view == view_ && in_view_change_)) {
    StashWire(wire);
    return;
  }
  if (commit->view < view_) {
    MaybeForwardNewView(msg.sender);
    return;
  }
  if (!InWindow(commit->seq)) {
    return;
  }
  LogEntry& entry = log_.Get(commit->seq);
  entry.commit_pool[msg.sender] = commit->digest;
  TryCommitted(commit->seq);
}

void Replica::TryPrepared(SeqNum seq) {
  LogEntry& entry = log_.Get(seq);
  if (entry.prepared || !entry.pre_prepare.has_value() || !entry.has_bodies) {
    return;
  }
  // prepared(m, v, n, i): the primary's pre-prepare stands in for its
  // prepare, so 2f matching prepares from distinct backups complete it.
  if (entry.MatchingPrepares() <
      static_cast<size_t>(config_.prepared_quorum())) {
    return;
  }
  entry.prepared = true;
  sim_->trace().Record(TraceEvent::kPrepared, sim_->Now(), id_, -1,
                       entry.view, seq, entry.digest.view());
  if (observer_ != nullptr) {
    observer_->OnPrepared(id_, entry.view, seq, entry.digest);
  }

  // Retain the certificate (and in durable mode persist it) BEFORE the
  // COMMIT below announces the promise.
  RecordPreparedCert(seq, entry);

  CommitMsg commit;
  commit.view = entry.view;
  commit.seq = seq;
  commit.digest = entry.digest;
  commit.replica = id_;
  Bytes wire =
      channel_.SealAuthenticated(MsgType::kCommit, commit.Encode());
  entry.commit_pool[id_] = entry.digest;
  channel_.MulticastReplicas(wire, /*include_self=*/false);
  TryCommitted(seq);
}

void Replica::RecordPreparedCert(SeqNum seq, const LogEntry& entry,
                                 bool persist) {
  if (entry.pre_prepare_wire.empty()) {
    return;
  }
  PreparedCert& cert = prepared_certs_[seq];
  if (cert.view > entry.view && !cert.prepare_wires.empty()) {
    return;  // a higher-view certificate already covers this seq
  }
  cert.view = entry.view;
  cert.digest = entry.digest;
  cert.pre_prepare_wire = entry.pre_prepare_wire;
  cert.prepare_wires.clear();
  for (const auto& [node, vote] : entry.prepare_pool) {
    if (vote.digest == entry.digest && !vote.wire.empty()) {
      cert.prepare_wires.push_back(vote.wire);
    }
  }
  // Durable promise: the certificate must hit disk before the COMMIT that
  // announces it. A crash may otherwise forget the promise, and two
  // overlapping crash-restarts can erase a committed batch's certificate
  // from every view-change quorum — the next NEW-VIEW would re-propose a
  // different batch at this sequence number.
  // The record also carries the batch's client envelopes, so a restart
  // never needs a peer for a body it promised.
  if (persist && service_->HasDurableStorage()) {
    Encoder enc;
    enc.PutBytes(BytesView(cert.pre_prepare_wire.data(),
                           cert.pre_prepare_wire.size()));
    enc.PutU32(static_cast<uint32_t>(cert.prepare_wires.size()));
    for (const Bytes& wire : cert.prepare_wires) {
      enc.PutBytes(BytesView(wire.data(), wire.size()));
    }
    // (An already executed batch may have none left; it needs none.)
    std::vector<const Bytes*> envelopes;
    for (const Digest& d : entry.pre_prepare->request_digests) {
      auto body = requests_.find(d);
      if (body != requests_.end()) {
        envelopes.push_back(&body->second.client_wire->bytes);
      }
    }
    enc.PutU32(static_cast<uint32_t>(envelopes.size()));
    for (const Bytes* wire : envelopes) {
      enc.PutBytes(*wire);
    }
    Bytes blob = enc.Take();
    service_->LogPrepared(seq, BytesView(blob.data(), blob.size()));
  }
}

void Replica::TryCommitted(SeqNum seq) {
  LogEntry& entry = log_.Get(seq);
  if (entry.committed || !entry.prepared) {
    return;
  }
  if (entry.MatchingCommits() < static_cast<size_t>(config_.quorum())) {
    return;
  }
  entry.committed = true;
  sim_->trace().Record(TraceEvent::kCommitted, sim_->Now(), id_, -1,
                       entry.view, seq, entry.digest.view());
  if (observer_ != nullptr) {
    observer_->OnCommitted(id_, entry.view, seq, entry.digest);
  }
  ExecuteReady();
}

// ---------------------------------------------------------------- execute

void Replica::ExecuteReady() {
  for (;;) {
    SeqNum next = last_executed_ + 1;
    auto* entry = log_.Find(next);
    if (entry == nullptr || !entry->committed || entry->executed) {
      break;
    }
    ExecuteBatch(next, log_.Get(next));
  }
}

void Replica::ExecuteBatch(SeqNum seq, LogEntry& entry) {
  assert(entry.pre_prepare.has_value());
  const PrePrepareMsg& pp = *entry.pre_prepare;
  const bool durable = service_->HasDurableStorage();
  std::vector<ServiceInterface::ExecutedRequest> executed_requests;
  struct PendingReply {
    Digest digest;
    RequestMsg request;
    Bytes result;
  };
  std::vector<PendingReply> replies;
  for (const Digest& d : pp.request_digests) {
    // Prepared implies every body is held, and bodies outlive their batch
    // until the stable checkpoint passes it. The envelope was authenticated
    // (or matched a certified digest) when it was stored.
    auto body = requests_.find(d);
    assert(body != requests_.end());
    if (body == requests_.end()) {
      continue;
    }
    auto ts_it = last_executed_timestamp_.find(body->second.client);
    if (ts_it != last_executed_timestamp_.end() &&
        body->second.timestamp <= ts_it->second) {
      continue;  // duplicate slipped into a batch; execute-once semantics
    }
    auto request = ParseRequestEnvelope(body->second.client_wire->bytes);
    if (!request.ok()) {
      continue;  // validated when stored; cannot happen
    }
    Bytes result = service_->Execute(request->op, request->client, pp.nondet,
                                     /*tentative=*/false);
    last_executed_timestamp_[request->client] = request->timestamp;
    if (durable) {
      executed_requests.push_back(ServiceInterface::ExecutedRequest{
          request->client, request->timestamp, request->op});
    }
    sim_->metrics().Inc(kRequestsExecuted, id_);
    replies.push_back(PendingReply{d, std::move(*request), std::move(result)});
  }
  if (durable) {
    // Every agreed batch is logged — including null/empty ones — so the
    // WAL's sequence tracking stays aligned with the protocol's. Write-ahead
    // discipline: the batch is durable (appended AND synced) before any
    // reply leaves, so a reply a client acts on can never name execution the
    // replica would forget across a crash.
    service_->LogBatch(seq, BytesView(pp.nondet.data(), pp.nondet.size()),
                       executed_requests);
  }
  for (PendingReply& reply : replies) {
    SendReply(reply.request, std::move(reply.result), /*tentative=*/false);
    auto pending = pending_.find(reply.request.client);
    if (pending != pending_.end() && pending->second == reply.digest &&
        config_.primary_quality_monitor && !IsPrimary()) {
      NotePrimaryLatency(sim_->Now() -
                         requests_.at(reply.digest).received_at);
    }
    ReleasePending(reply.request.client, reply.request.timestamp);
  }
  // Checkpoint digest work this batch owes runs once its replies have left,
  // so that the vote for checkpoint S leaves before S +
  // CheckpointVoteDeadline() + 1 executes (DESIGN.md §12).
  service_->PaceCheckpoints(seq, stable_seq_);
  entry.executed = true;
  last_executed_ = seq;
  catching_up_ = false;
  sim_->metrics().Inc(kBatchesExecuted, id_);
  sim_->trace().Record(TraceEvent::kExecuted, sim_->Now(), id_, -1,
                       entry.view, seq, entry.digest.view());
  if (observer_ != nullptr) {
    observer_->OnExecuted(id_, seq, entry.digest);
  }

  // Progress was made; restart the fault timer (or disarm it if idle).
  if (pending_.empty()) {
    DisarmViewChangeTimer();
  } else {
    ArmViewChangeTimer();
  }

  MaybeTakeCheckpoint();
  if (IsPrimary() && !in_view_change_) {
    MaybeSendPrePrepare();
  }
}

void Replica::NotePrimaryLatency(SimTime sample) {
  if (!config_.primary_quality_monitor || in_view_change_ || recovering_ ||
      crashed_) {
    return;
  }
  primary_latency_samples_.push_back(sample);
  if (primary_latency_samples_.size() > kPrimaryLatencyWindow) {
    primary_latency_samples_.erase(primary_latency_samples_.begin());
  }
  if (quality_view_change_fired_ ||
      primary_latency_samples_.size() < kPrimaryLatencyWindow) {
    return;
  }
  std::vector<SimTime> sorted = primary_latency_samples_;
  std::sort(sorted.begin(), sorted.end());
  SimTime median = sorted[sorted.size() / 2];
  // RTT-aware threshold (config.h): on a WAN topology the old static
  // view_change_timeout / 2 sat below one cross-region commit's unavoidable
  // propagation time, so the monitor deposed every healthy remote primary.
  SimTime threshold = config_.EffectivePrimaryLatencyThreshold();
  if (median < threshold) {
    return;
  }
  // The primary is live but crawling: commits land, yet the median
  // request-to-commit latency of requests we relayed ourselves is a large
  // fraction of the suspicion timeout, so the plain view-change timer will
  // never fire (an Aardvark-style "slow primary" attack). Depose it
  // proactively; the f+1-movers join rule turns the per-backup verdicts
  // into a group decision.
  quality_view_change_fired_ = true;
  sim_->metrics().Inc(kQualityViewChanges, id_);
  LOG_INFO << "replica " << id_ << " primary quality monitor: median latency "
           << median << "us >= " << threshold << "us in view " << view_
           << ", deposing primary";
  StartViewChange(view_ + 1);
}

void Replica::SendReply(const RequestMsg& request, Bytes result,
                        bool tentative) {
  // Cache the honest result BEFORE any fault-injection corruption: the reply
  // cache is part of the agreed checkpoint state (it feeds the checkpoint
  // digest), so a "Byzantine replies" fault must only affect what goes on
  // the wire to the client — caching the corrupted bytes would poison this
  // replica's checkpoints and leave it divergent long after the fault is
  // cleared.
  if (!tentative) {
    reply_cache_[request.client] = CachedReply{request.timestamp, result};
  }
  if (corrupt_replies_ && !result.empty()) {
    for (uint8_t& b : result) {
      b ^= 0x5a;
    }
  }
  ReplyMsg reply;
  reply.view = view_;
  reply.timestamp = request.timestamp;
  reply.client = request.client;
  reply.replica = id_;
  reply.tentative = tentative;

  // Designated-replier optimization: only one replica sends the full result.
  // A result no longer than its digest goes in full from every replica: the
  // reply is then no larger than the digest reply it replaces, and the
  // client need not wait for one (possibly remote) designated replier.
  bool send_full = !config_.digest_replies || result.size() <= Digest::kSize ||
                   static_cast<NodeId>(request.timestamp %
                                       static_cast<uint64_t>(config_.n())) ==
                       id_;
  if (send_full) {
    ReplyMsg full = reply;
    full.result_is_digest = false;
    full.result = result;
    channel_.Send(request.client,
                  channel_.SealMac(MsgType::kReply, full.Encode(),
                                   request.client));
  } else {
    ReplyMsg digest_reply = reply;
    digest_reply.result_is_digest = true;
    digest_reply.result = Digest::Of(result).ToBytes();
    channel_.Send(request.client,
                  channel_.SealMac(MsgType::kReply, digest_reply.Encode(),
                                   request.client));
  }
}

void Replica::ExecuteReadOnly(const RequestMsg& request) {
  if (fetching_state_ || in_view_change_) {
    return;  // cannot answer consistently right now; client will fall back
  }
  Bytes result = service_->Execute(request.op, request.client, Bytes(),
                                   /*tentative=*/true);
  SendReply(request, std::move(result), /*tentative=*/true);
}

// ------------------------------------------------------------- stash

void Replica::StashWire(const Bytes& wire) {
  if (stashed_wires_.size() >= kMaxStashedWires) {
    stashed_wires_.pop_front();
  }
  stashed_wires_.push_back(wire);
}

void Replica::ReplayStashedWires() {
  std::deque<Bytes> pending;
  pending.swap(stashed_wires_);
  for (const Bytes& wire : pending) {
    OnMessage(id_, wire);  // re-dispatch; still-early messages re-stash
  }
}

// ------------------------------------------------------------ reply cache

Bytes Replica::EncodeReplyCache() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(last_executed_timestamp_.size()));
  for (const auto& [client, timestamp] : last_executed_timestamp_) {
    enc.PutU32(static_cast<uint32_t>(client));
    enc.PutU64(timestamp);
    auto it = reply_cache_.find(client);
    if (it != reply_cache_.end() && it->second.timestamp == timestamp) {
      enc.PutBool(true);
      enc.PutBytes(it->second.result);
    } else {
      enc.PutBool(false);
    }
  }
  return enc.Take();
}

void Replica::DecodeReplyCache(BytesView blob) {
  if (blob.empty()) {
    return;
  }
  Decoder dec(blob);
  uint32_t count = dec.GetU32();
  std::map<NodeId, uint64_t> timestamps;
  std::map<NodeId, CachedReply> cache;
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    NodeId client = static_cast<NodeId>(dec.GetU32());
    uint64_t timestamp = dec.GetU64();
    timestamps[client] = timestamp;
    if (dec.GetBool()) {
      Bytes result = dec.GetBytes();
      cache[client] = CachedReply{timestamp, std::move(result)};
    }
  }
  if (!dec.ok()) {
    LOG_WARN << "replica " << id_ << ": malformed reply-cache blob";
    return;
  }
  last_executed_timestamp_ = std::move(timestamps);
  reply_cache_ = std::move(cache);
}

// -------------------------------------------------------------- checkpoint

void Replica::MaybeTakeCheckpoint() {
  if (last_executed_ == 0 ||
      last_executed_ % config_.checkpoint_interval != 0) {
    return;
  }
  SeqNum seq = last_executed_;
  Bytes reply_cache_blob = EncodeReplyCache();
  Digest reply_cache_digest = Digest::Of(reply_cache_blob);
  service_->SetProtocolState(std::move(reply_cache_blob));
  // The service reports the digest once its digest work has run in idle
  // time (DESIGN.md §12); the replica keeps executing meanwhile.
  service_->TakeCheckpoint(
      seq, [this, seq, reply_cache_digest, taken_at = sim_->Now(),
            incarnation = incarnation_](const Digest& digest) {
        if (incarnation != incarnation_ || crashed_) {
          return;
        }
        sim_->metrics().Observe(kCheckpointVoteLag, sim_->Now() - taken_at,
                                id_);
        sim_->trace().Record(TraceEvent::kCheckpointTaken, sim_->Now(), id_,
                             -1, seq, 0, digest.view());
        if (observer_ != nullptr) {
          observer_->OnCheckpointTaken(id_, seq, digest, reply_cache_digest);
        }
        BroadcastCheckpointVote(seq, digest);
      });
}

void Replica::BroadcastCheckpointVote(SeqNum seq, const Digest& digest) {
  CheckpointMsg checkpoint;
  checkpoint.seq = seq;
  checkpoint.state_digest = digest;
  checkpoint.replica = id_;
  Bytes wire =
      channel_.SealSigned(MsgType::kCheckpoint, checkpoint.Encode());
  checkpoint_votes_[seq][id_] = CheckpointVote{digest, wire};
  channel_.MulticastReplicas(wire, /*include_self=*/false);
  TryStabilizeCheckpoint(seq);
}

void Replica::HandleCheckpoint(const WireMessage& msg, const Bytes& wire) {
  auto checkpoint = CheckpointMsg::Decode(msg.payload);
  if (!checkpoint.ok() || checkpoint->replica != msg.sender ||
      !config_.IsReplica(msg.sender)) {
    return;
  }
  if (msg.auth != AuthKind::kSigned) {
    return;  // checkpoint messages serve in view-change proofs
  }
  if (checkpoint->seq <= stable_seq_) {
    return;
  }
  checkpoint_votes_[checkpoint->seq][msg.sender] =
      CheckpointVote{checkpoint->state_digest, wire};
  TryStabilizeCheckpoint(checkpoint->seq);
}

void Replica::TryStabilizeCheckpoint(SeqNum seq) {
  if (seq <= stable_seq_) {
    return;
  }
  auto votes_it = checkpoint_votes_.find(seq);
  if (votes_it == checkpoint_votes_.end()) {
    return;
  }
  // Group votes by digest and look for a 2f+1 quorum.
  std::map<Digest, std::vector<NodeId>> by_digest;
  for (const auto& [node, vote] : votes_it->second) {
    by_digest[vote.digest].push_back(node);
  }
  for (const auto& [digest, nodes] : by_digest) {
    if (nodes.size() >= static_cast<size_t>(config_.quorum())) {
      std::vector<Bytes> proof;
      for (NodeId node : nodes) {
        const Bytes& wire = votes_it->second[node].wire;
        if (!wire.empty()) {
          proof.push_back(wire);
        }
      }
      AdoptStableCheckpoint(seq, digest, std::move(proof));
      return;
    }
  }
}

void Replica::AdoptStableCheckpoint(SeqNum seq, const Digest& digest,
                                    std::vector<Bytes> proof) {
  if (seq <= stable_seq_) {
    return;
  }
  stable_seq_ = seq;
  stable_digest_ = digest;
  sim_->trace().Record(TraceEvent::kCheckpointStable, sim_->Now(), id_, -1,
                       seq, 0, digest.view());
  if (observer_ != nullptr) {
    observer_->OnCheckpointStable(id_, seq, digest);
  }
  if (proof.size() >= static_cast<size_t>(config_.quorum())) {
    stable_proof_ = std::move(proof);
    proofed_stable_seq_ = seq;
    proofed_stable_digest_ = digest;
    if (service_->HasDurableStorage()) {
      // Persist the proof: a restarted replica needs it to include prepared
      // entries above this checkpoint in its VIEW-CHANGE messages (entries
      // beyond the provable window are dropped as unprovable).
      Encoder enc;
      enc.PutFixed(digest.view());
      enc.PutU32(static_cast<uint32_t>(stable_proof_.size()));
      for (const Bytes& wire : stable_proof_) {
        enc.PutBytes(BytesView(wire.data(), wire.size()));
      }
      Bytes blob = enc.Take();
      service_->LogStableProof(seq, BytesView(blob.data(), blob.size()));
    }
  }
  log_.TruncateBelow(seq);
  ReleaseBodiesThrough(seq);
  prepared_certs_.erase(prepared_certs_.begin(),
                        prepared_certs_.upper_bound(seq));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.lower_bound(seq + 1));
  service_->DiscardCheckpointsBefore(seq);

  if (last_executed_ < seq) {
    // We fell behind the group (missed messages or just recovered): fetch
    // the checkpointed abstract state instead of replaying the log.
    MaybeStartStateTransfer(seq, digest);
  }

  // The low watermark just advanced, widening the window. A primary that
  // ran out of window with requests still pending must resume proposing
  // here — nothing else will: MaybeSendPrePrepare is otherwise only driven
  // by new requests and executions, both of which may be waiting on exactly
  // this window advance. Without the kick those requests stall until the
  // client retransmits (or times the primary out).
  if (IsPrimary() && !in_view_change_ && !recovering_ && !fetching_state_) {
    MaybeSendPrePrepare();
  }
}

// ---------------------------------------------------------- state transfer

void Replica::MaybeStartStateTransfer(SeqNum seq, const Digest& digest) {
  if (fetching_state_ || recovering_) {
    return;
  }
  LOG_INFO << "replica " << id_ << " starting state transfer to seq " << seq;
  fetching_state_ = true;
  sim_->trace().Record(TraceEvent::kStateTransferStart, sim_->Now(), id_, -1,
                       seq, 0, digest.view());
  if (observer_ != nullptr) {
    observer_->OnStateTransferStart(id_, seq);
  }
  service_->StartStateTransfer(seq, digest);
}

void Replica::OnStateTransferDone(SeqNum seq, const Digest& digest) {
  catching_up_ = false;
  if (recovering_) {
    FinishProactiveRecovery(seq, digest);
    return;
  }
  fetching_state_ = false;
  sim_->trace().Record(TraceEvent::kStateTransferDone, sim_->Now(), id_, -1,
                       seq, 0, digest.view());
  if (observer_ != nullptr) {
    observer_->OnStateTransferDone(id_, seq);
  }
  if (seq > last_executed_) {
    last_executed_ = seq;
    if (next_seq_ <= seq) {
      next_seq_ = seq + 1;
    }
    DecodeReplyCache(service_->GetProtocolState());
    // The group answered these requests while we were behind; waiting on
    // them would only run the view-change timer against a working primary.
    // (A replica waiting for a NEW-VIEW keeps its timer: it is what
    // cascades to the next view if that NEW-VIEW never comes.)
    for (const auto& [client, timestamp] : last_executed_timestamp_) {
      ReleasePending(client, timestamp);
    }
    if (pending_.empty() && !in_view_change_) {
      DisarmViewChangeTimer();
    }
    log_.TruncateBelow(seq);
    // We now genuinely hold this checkpoint, so vouch for it: our vote may
    // be the one that lets the group stabilize it and advance the window
    // (e.g. when another replica's state is corrupt and its votes diverge).
    if (seq % config_.checkpoint_interval == 0) {
      BroadcastCheckpointVote(seq, digest);
    }
  }
  ExecuteReady();
}

// ------------------------------------------------------ proactive recovery

void Replica::EnableProactiveRecovery(SimTime period, SimTime initial_delay) {
  recovery_period_ = period;
  sim_->After(id_, initial_delay, [this] {
    StartProactiveRecovery();
    // Self-rearm: next watchdog fires one period from now.
    if (recovery_period_ > 0) {
      EnableProactiveRecovery(recovery_period_, recovery_period_);
    }
  });
}

void Replica::StartProactiveRecovery() {
  if (recovering_ || crashed_) {
    return;
  }
  LOG_INFO << "replica " << id_ << " proactive recovery: saving and rebooting";
  recovering_ = true;
  recovery_started_at_ = sim_->Now();
  sim_->trace().Record(TraceEvent::kRecoveryStart, sim_->Now(), id_, -1, 0, 0);
  if (observer_ != nullptr) {
    observer_->OnRecoveryStart(id_);
  }
  fetching_state_ = false;
  DisarmViewChangeTimer();

  // Save the conformance rep, abstract objects and protocol state to disk,
  // then reboot. Both are charged to the virtual clock; the replica is
  // unresponsive in between (handled by the recovering_ gate in OnMessage).
  service_->SetProtocolState(EncodeReplyCache());
  size_t saved_bytes = service_->SaveForRecovery();
  // With durable storage the state is already on disk; the save is just a
  // final sync. Otherwise the whole abstract state is written synchronously.
  SimTime down_time =
      service_->HasDurableStorage()
          ? sim_->cost().storage_fsync_us + sim_->cost().reboot_us
          : sim_->cost().DiskWriteCost(saved_bytes) + sim_->cost().reboot_us;
  sim_->After(id_, down_time, [this, inc = incarnation_] {
    if (inc != incarnation_ || crashed_) {
      return;  // a crash intervened; restart-from-disk superseded this reboot
    }
    // Restarted: fresh session keys, clean concrete state, then rebuild the
    // abstract state from the saved copy plus fetches from the group.
    keys_->RefreshKeysFor(id_);
    service_->RestartFromRecovery();
    service_->StartStateTransfer(0, Digest());  // 0 = discover latest
  });
}

void Replica::FinishProactiveRecovery(SeqNum seq, const Digest& digest) {
  recovering_ = false;
  fetching_state_ = false;
  last_recovery_duration_ = sim_->Now() - recovery_started_at_;
  ++recoveries_completed_;
  LOG_INFO << "replica " << id_ << " recovered to seq " << seq << " in "
           << last_recovery_duration_ / kMillisecond << " ms";
  sim_->trace().Record(TraceEvent::kRecoveryDone, sim_->Now(), id_, -1, seq,
                       0, digest.view());
  if (observer_ != nullptr) {
    observer_->OnRecoveryDone(id_, seq);
  }
  last_executed_ = seq;
  stable_seq_ = seq;
  stable_digest_ = digest;
  if (next_seq_ <= seq) {
    next_seq_ = seq + 1;
  }
  // NOTHING volatile survives the reboot: the reply cache and execute-once
  // timestamps come only from the recovered protocol-state blob (note that
  // DecodeReplyCache keeps its current maps when the blob is empty — which
  // is exactly right for retransmissions, but poison if the maps still hold
  // pre-reboot entries), and in-flight vote tallies, view-change state and
  // stashed messages from the pre-reboot incarnation are discarded — they
  // were collected by a process this reboot just declared untrusted.
  reply_cache_.clear();
  last_executed_timestamp_.clear();
  checkpoint_votes_.clear();
  view_change_votes_.clear();
  new_view_sent_.clear();
  stashed_wires_.clear();
  in_view_change_ = false;
  DisarmViewChangeTimer();
  view_change_timeout_ = config_.EffectiveViewChangeTimeout();
  DecodeReplyCache(service_->GetProtocolState());
  log_.Clear();
  prepared_certs_.clear();
  requests_.clear();
  pending_.clear();
  if (seq > 0 && seq % config_.checkpoint_interval == 0) {
    BroadcastCheckpointVote(seq, digest);
  }
}

// --------------------------------------------------- crash / restart-from-disk

void Replica::Crash() {
  LOG_INFO << "replica " << id_ << " crashed";
  ++incarnation_;
  crashed_ = true;
  recovering_ = false;
  fetching_state_ = false;
  in_view_change_ = false;
  if (null_request_timer_ != 0) {
    sim_->Cancel(null_request_timer_);
    null_request_timer_ = 0;
  }
  if (batch_hold_timer_ != 0) {
    sim_->Cancel(batch_hold_timer_);
    batch_hold_timer_ = 0;
  }
  batch_hold_elapsed_ = false;
  adaptive_batch_cap_ =
      std::clamp(config_.max_batch, kAdaptiveBatchMin, kAdaptiveBatchMax);
  adaptive_hold_us_ = 0;
  watermark_stall_since_ = -1;
  DisarmViewChangeTimer();
  if (view_change_wake_ != 0) {
    sim_->Cancel(view_change_wake_);
    view_change_wake_ = 0;
  }
  // All volatile protocol state dies with the process.
  view_ = 0;
  next_seq_ = 1;
  last_executed_ = 0;
  stable_seq_ = 0;
  stable_digest_ = Digest();
  proofed_stable_seq_ = 0;
  proofed_stable_digest_ = Digest();
  stable_proof_.clear();
  log_.Clear();
  prepared_certs_.clear();
  requests_.clear();
  pending_.clear();
  reply_cache_.clear();
  last_executed_timestamp_.clear();
  checkpoint_votes_.clear();
  view_change_votes_.clear();
  new_view_sent_.clear();
  new_view_wire_.clear();
  new_view_forwarded_.clear();
  catching_up_ = false;
  gap_commit_seen_ = 0;
  stashed_wires_.clear();
  view_change_timeout_ = config_.EffectiveViewChangeTimeout();
  null_timer_marker_ = 0;
  primary_latency_samples_.clear();
  quality_view_change_fired_ = false;
  service_->OnCrash();
}

void Replica::RestartFromStorage() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  // The group may have moved on while we were down.
  catching_up_ = true;
  keys_->RefreshKeysFor(id_);
  ServiceInterface::RecoveryInfo info = service_->RecoverFromStorage();
  if (!info.ok) {
    // No durable storage, or the durable state failed digest verification:
    // rebuild everything from the group, exactly like proactive recovery.
    LOG_WARN << "replica " << id_
             << ": restart-from-disk unavailable, rebuilding from the group";
    recovering_ = true;
    recovery_started_at_ = sim_->Now();
    sim_->trace().Record(TraceEvent::kRecoveryStart, sim_->Now(), id_, -1, 0,
                         0);
    if (observer_ != nullptr) {
      observer_->OnRecoveryStart(id_);
    }
    service_->RestartFromRecovery();
    service_->StartStateTransfer(0, Digest());  // 0 = discover latest
    ArmNullRequestTimer();
    return;
  }
  view_ = info.view;
  last_executed_ = info.last_seq;
  next_seq_ = info.last_seq + 1;
  stable_seq_ = info.checkpoint_seq;
  stable_digest_ = info.checkpoint_root;
  // Stable-checkpoint proof: restore it so our VIEW-CHANGE messages can
  // prove the window above the checkpoint.
  if (info.stable_proof_seq > 0 && !info.stable_proof.empty()) {
    Decoder dec(BytesView(info.stable_proof.data(), info.stable_proof.size()));
    Digest proof_digest = Digest::FromBytes(dec.GetFixed(Digest::kSize));
    uint32_t count = dec.GetU32();
    std::vector<Bytes> proof;
    for (uint32_t i = 0; i < count && dec.ok(); ++i) {
      proof.push_back(dec.GetBytes());
    }
    if (dec.ok() && proof.size() >= static_cast<size_t>(config_.quorum())) {
      proofed_stable_seq_ = info.stable_proof_seq;
      proofed_stable_digest_ = proof_digest;
      stable_proof_ = std::move(proof);
    }
  }
  // Prepared certificates: re-install the durable promises into the message
  // log. Without this, the prepare this replica contributed before the crash
  // vanishes from view-change quorums, and overlapping crashes could let a
  // NEW-VIEW re-propose a different batch at a committed sequence number.
  // The lower bound is the PROOFED stable checkpoint, not the local one: a
  // crash can land after a local checkpoint was persisted but before its
  // 2f+1 votes arrived, and our VIEW-CHANGE messages can then only claim
  // proofed_stable_seq_ — certificates in (proofed_stable_seq_, stable_seq_]
  // are exactly what proves the committed batches in that gap.
  for (const auto& [seq, cert] : info.prepared_certs) {
    if (seq <= proofed_stable_seq_ || seq > stable_seq_ + config_.log_window) {
      continue;
    }
    Decoder dec(BytesView(cert.data(), cert.size()));
    Bytes pp_wire = dec.GetBytes();
    uint32_t count = dec.GetU32();
    if (!dec.ok()) {
      continue;
    }
    auto pp_env = Channel::ParseUnverified(pp_wire);
    if (!pp_env.ok()) {
      continue;
    }
    auto pp = PrePrepareMsg::Decode(pp_env->payload);
    if (!pp.ok() || pp->seq != seq) {
      continue;
    }
    std::vector<Bytes> prepare_wires;
    for (uint32_t i = 0; i < count && dec.ok(); ++i) {
      prepare_wires.push_back(dec.GetBytes());
    }
    // The batch's bodies come back from the record itself, so a restart
    // needs no peer for them.
    std::map<Digest, std::pair<RequestMsg, Bytes>> bodies;
    uint32_t envelope_count = dec.GetU32();
    for (uint32_t i = 0; i < envelope_count && dec.ok(); ++i) {
      Bytes wire = dec.GetBytes();
      auto request = ParseRequestEnvelope(wire);
      if (request.ok()) {
        Digest digest = request->ComputeDigest();
        bodies[digest] = {std::move(*request), std::move(wire)};
      }
    }
    if (!dec.AtEnd()) {
      continue;
    }
    for (const Digest& d : pp->request_digests) {
      auto body = bodies.find(d);
      if (body != bodies.end() && requests_.count(d) == 0) {
        StoreBody(d, body->second.first,
                  std::make_shared<const Payload>(
                      std::move(body->second.second)));
      }
    }
    LogEntry& entry = log_.Get(seq);
    entry.view = pp->view;
    entry.digest = pp->ComputeDigest();
    entry.pre_prepare_wire = pp_wire;
    entry.pre_prepare = std::move(*pp);
    entry.certified = true;
    entry.prepare_pool.clear();
    for (const Bytes& p_wire : prepare_wires) {
      auto p_env = Channel::ParseUnverified(p_wire);
      if (!p_env.ok()) {
        continue;
      }
      auto prepare = PrepareMsg::Decode(p_env->payload);
      if (!prepare.ok()) {
        continue;
      }
      entry.prepare_pool[prepare->replica] =
          LogEntry::Vote{prepare->digest, p_wire};
    }
    entry.has_bodies = MarkListed(seq, entry);
    entry.prepared = entry.has_bodies;
    entry.committed = seq <= last_executed_;
    entry.executed = seq <= last_executed_;
    // Re-install into the retained certificate set without re-appending to
    // the WAL (the record we just replayed already covers it).
    RecordPreparedCert(seq, entry, /*persist=*/false);
  }
  // Reply cache: the durable checkpoint's blob first (Crash() cleared the
  // maps, so an empty blob cannot leave stale entries), then the replies the
  // WAL replay regenerated, in execution order.
  DecodeReplyCache(service_->GetProtocolState());
  for (ServiceInterface::ReplayedReply& reply : info.replayed) {
    last_executed_timestamp_[reply.client] = reply.timestamp;
    reply_cache_[reply.client] =
        CachedReply{reply.timestamp, std::move(reply.result)};
  }
  LOG_INFO << "replica " << id_ << " restarted from storage at seq "
           << last_executed_ << " (checkpoint " << stable_seq_ << ", view "
           << view_ << ")";
  sim_->trace().Record(TraceEvent::kRecoveryDone, sim_->Now(), id_, -1,
                       last_executed_, 0, stable_digest_.view());
  if (observer_ != nullptr) {
    observer_->OnRecoveryDone(id_, last_executed_);
  }
  ArmNullRequestTimer();
}

}  // namespace bftbase
