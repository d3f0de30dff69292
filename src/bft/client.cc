#include "src/bft/client.h"

#include <algorithm>
#include <cassert>

#include "src/util/log.h"

namespace bftbase {

Client::Client(Simulation* sim, KeyTable* keys, const Config& config,
               NodeId id)
    : sim_(sim),
      config_(config),
      id_(id),
      channel_(sim, keys, config, id),
      jitter_rng_(0x636c6a6974746572ULL ^ static_cast<uint64_t>(id)) {
  assert(config.IsClient(id));
  sim_->AddNode(id_, this);
}

void Client::Invoke(Bytes op, bool read_only, Callback callback) {
  assert(!pending_.has_value() && "one outstanding operation per client");
  Pending p;
  p.timestamp = next_timestamp_++;
  p.op = std::move(op);
  p.read_only = read_only && config_.read_only_optimization;
  p.tentative_phase = p.read_only;
  p.callback = std::move(callback);
  p.start_time = sim_->Now();
  pending_ = std::move(p);
  SendRequest();
}

Result<Bytes> Client::InvokeSync(Bytes op, bool read_only, SimTime timeout) {
  Status status = Unavailable("timed out");
  Bytes result;
  bool done = false;
  Invoke(std::move(op), read_only, [&](Status s, Bytes r) {
    status = std::move(s);
    result = std::move(r);
    done = true;
  });
  sim_->RunUntilTrue([&] { return done; }, sim_->Now() + timeout);
  if (!done) {
    // Abandon the operation so the client can be reused; late replies for
    // this timestamp will be ignored.
    Abandon();
    return Unavailable("operation timed out");
  }
  if (!status.ok()) {
    return status;
  }
  return result;
}

void Client::SendRequest() {
  Pending& p = *pending_;
  RequestMsg req;
  req.client = id_;
  req.timestamp = p.timestamp;
  req.read_only = p.tentative_phase;
  req.op = p.op;
  ++p.attempts;

  // Every attempt goes to every replica (separate request transmission): the
  // authenticator lets each one verify the body itself, and the primary's
  // PRE-PREPARE then orders only its digest.
  channel_.MulticastReplicas(
      channel_.SealAuthenticated(MsgType::kRequest, req.Encode()),
      /*include_self=*/false);

  // Exponential backoff on retransmission (the doubling stays capped at
  // <<6), plus deterministic per-client jitter of up to +25% from the second
  // attempt on, so concurrent clients that all timed out during the same
  // outage do not retransmit in lockstep after it heals. First attempts stay
  // unjittered: fault-free traffic is byte-identical with or without retries
  // elsewhere.
  SimTime timeout = config_.EffectiveClientRetryTimeout()
                    << std::min(p.attempts - 1, 6);
  if (p.attempts > 1) {
    timeout += static_cast<SimTime>(
        jitter_rng_.NextBelow(static_cast<uint64_t>(timeout / 4) + 1));
  }
  p.retry_timer = sim_->After(id_, timeout, [this] { OnRetryTimeout(); });
}

void Client::Abandon() {
  if (!pending_.has_value()) {
    return;
  }
  if (pending_->retry_timer != 0) {
    sim_->Cancel(pending_->retry_timer);
  }
  if (pending_->result_grace_timer != 0) {
    sim_->Cancel(pending_->result_grace_timer);
  }
  pending_.reset();
}

void Client::OnResultGraceTimeout(uint64_t timestamp) {
  // The grace period after a digest-quorum-without-full-result elapsed. If
  // the operation is still the same one and the full result never arrived,
  // fall through to the eager retransmit the LAN path takes instantly.
  if (!pending_.has_value() || pending_->timestamp != timestamp) {
    return;
  }
  Pending& p = *pending_;
  p.result_grace_timer = 0;
  if (p.result_retransmit_sent || p.attempts > 1) {
    return;  // a retransmission already went out
  }
  p.result_retransmit_sent = true;
  ++retries_;
  if (p.retry_timer != 0) {
    sim_->Cancel(p.retry_timer);
  }
  SendRequest();
}

void Client::OnRetryTimeout() {
  if (!pending_.has_value()) {
    return;
  }
  Pending& p = *pending_;
  ++retries_;
  ++timeout_retries_;
  if (p.tentative_phase) {
    // The read-only fast path did not assemble a 2f+1 quorum in time (e.g.
    // replicas were mid-recovery); fall back to the ordered protocol.
    // Definitive votes and full results already received stay valid for
    // this timestamp (matching digest == matching bytes), so only the
    // tentative tally is discarded — the fallback may then complete with
    // fewer fresh replies instead of a full new f+1 quorum.
    p.tentative_phase = false;
    p.tentative_votes.clear();
  }
  SendRequest();
}

void Client::OnMessage(NodeId /*from*/, const Bytes& wire) {
  auto opened = channel_.Open(wire);
  if (!opened.ok()) {
    LOG_DEBUG << "client " << id_ << " rejects message: "
              << opened.status().ToString();
    return;
  }
  if (opened->type != MsgType::kReply) {
    return;
  }
  auto reply = ReplyMsg::Decode(opened->payload);
  if (!reply.ok() || reply->replica != opened->sender ||
      !config_.IsReplica(reply->replica)) {
    return;
  }
  HandleReply(*reply);
}

void Client::HandleReply(const ReplyMsg& reply) {
  if (!pending_.has_value() || reply.timestamp != pending_->timestamp ||
      reply.client != id_) {
    return;
  }
  Pending& p = *pending_;

  Digest digest = reply.ResultDigest();
  if (!reply.result_is_digest) {
    p.full_results[digest] = reply.result;
  }
  if (reply.tentative) {
    p.tentative_votes[digest].insert(reply.replica);
  } else {
    p.votes[digest].insert(reply.replica);
    // A definitive reply also supports the tentative tally.
    p.tentative_votes[digest].insert(reply.replica);
  }

  // Definitive quorum: f+1 matching replies.
  const size_t definitive_quorum = static_cast<size_t>(config_.f + 1);
  // Tentative quorum: 2f+1 matching replies.
  const size_t tentative_quorum = static_cast<size_t>(config_.quorum());

  auto deliver = [&](const Digest& d) -> bool {
    auto it = p.full_results.find(d);
    if (it == p.full_results.end()) {
      // Quorum on the digest but nobody sent the full result yet (the
      // designated replier may be faulty). Replicas answer retransmissions
      // with full results, so retransmit eagerly once instead of idling
      // until the backoff timer fires. On a WAN (network_rtt_us > 0) the
      // retransmit is deferred by one RTT first: a healthy designated
      // replier a region away routinely loses the race against the nearest
      // f+1 digest replies, and firing instantly would multicast on nearly
      // every request. LAN deployments (rtt 0) keep the instant path, so
      // seed-era traces are byte-identical.
      if (p.quorum_without_result_at < 0) {
        p.quorum_without_result_at = sim_->Now();
      }
      if (!p.result_retransmit_sent) {
        if (config_.network_rtt_us == 0) {
          p.result_retransmit_sent = true;
          ++retries_;
          if (p.retry_timer != 0) {
            sim_->Cancel(p.retry_timer);
          }
          SendRequest();
        } else if (p.result_grace_timer == 0) {
          uint64_t timestamp = p.timestamp;
          p.result_grace_timer =
              sim_->After(id_, config_.network_rtt_us, [this, timestamp] {
                OnResultGraceTimeout(timestamp);
              });
        }
      }
      return false;
    }
    Bytes result = it->second;
    Complete(Status::Ok(), std::move(result));
    return true;
  };

  auto vote_it = p.votes.find(digest);
  if (vote_it != p.votes.end() && vote_it->second.size() >= definitive_quorum) {
    if (deliver(digest)) {
      return;
    }
  }
  if (p.tentative_phase) {
    auto tent_it = p.tentative_votes.find(digest);
    if (tent_it != p.tentative_votes.end() &&
        tent_it->second.size() >= tentative_quorum) {
      if (deliver(digest)) {
        return;
      }
    }
  }
}

void Client::Complete(Status status, Bytes result) {
  Pending p = std::move(*pending_);
  pending_.reset();
  if (p.retry_timer != 0) {
    sim_->Cancel(p.retry_timer);
  }
  if (p.result_grace_timer != 0) {
    sim_->Cancel(p.result_grace_timer);
  }
  ++operations_completed_;
  last_latency_ = sim_->Now() - p.start_time;
  if (p.quorum_without_result_at >= 0) {
    ++result_waits_;
    result_wait_time_ += sim_->Now() - p.quorum_without_result_at;
  }
  p.callback(std::move(status), std::move(result));
}

}  // namespace bftbase
