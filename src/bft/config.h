// Static configuration of a BFT service group.
//
// A group has n = 3f+1 replicas with node ids [0, n) and clients with node
// ids [n, n + max_clients). The primary of view v is replica v mod n.
#ifndef SRC_BFT_CONFIG_H_
#define SRC_BFT_CONFIG_H_

#include <algorithm>
#include <cstdint>

#include "src/sim/cost_model.h"
#include "src/sim/simulation.h"

namespace bftbase {

using SeqNum = uint64_t;
using ViewNum = uint64_t;

struct Config {
  // Fault threshold. n = 3f+1 replicas tolerate f Byzantine faults.
  int f = 1;
  // Number of client slots (client node ids are n() .. n()+max_clients-1).
  int max_clients = 16;

  // Checkpoint period: a checkpoint is taken after executing every
  // checkpoint_interval-th request (the paper's k, e.g. k = 128).
  SeqNum checkpoint_interval = 128;
  // Log window size L (high watermark = low + log_window). Must be a
  // multiple of checkpoint_interval and at least twice it.
  SeqNum log_window = 256;

  // Maximum number of requests the primary folds into one pre-prepare.
  int max_batch = 8;
  // The primary's pipeline depth on a LAN: the most unexecuted batches it
  // keeps in flight; requests arriving while the pipeline is full are
  // batched together (PBFT's request batching). A WAN deployment ignores it
  // (EffectivePipelineDepth).
  int max_in_flight_batches = 2;

  // --- Adaptive batching (kill switch) --------------------------------------
  // When true the primary adapts its batch cap within [1, 64] from observed
  // queue depth (backlog fills the cap -> double it; batches at half the cap
  // -> shrink it) and adds a short batching hold — only while an earlier
  // batch is already in flight — that grows up to 2 ms while batches stay
  // small and collapses as soon as a backlog appears (the bounds are
  // constants in replica.cc). Off by default: the static max_batch path is
  // byte-for-byte untouched, which the pinned fault-free trace digests
  // witness (tests/topology_test.cc).
  bool adaptive_batching = false;

  // View-change timeout: a backup that has accepted a request but not
  // executed it within this time suspects the primary.
  SimTime view_change_timeout = 500 * kMillisecond;
  // Cap on exponential view-change timeout doubling, as a multiple of
  // view_change_timeout. Cascading view changes double the timeout up to
  // cap * base; a stable view resets it to the base.
  int view_change_timeout_cap = 16;
  // A replica refuses to store VIEW-CHANGE votes for views further than
  // this many views ahead of its own (defense against stale/future
  // view-change spam flooding the vote table). NEW-VIEW driven catch-up is
  // unaffected. 0 disables the bound.
  ViewNum view_change_horizon = 4096;
  // Client retransmission timeout.
  SimTime client_retry_timeout = 300 * kMillisecond;

  // Worst-case network round trip of the deployment (0 = LAN, the seed
  // default). Deployments on a WAN topology set this from
  // Topology::MaxRttUs(); every latency-sensitive timeout below derives its
  // effective value from it, because the static LAN constants misfire on a
  // WAN: a 300 ms retry timeout fires before a 368 ms cross-region commit
  // completes (retransmit storms), and a 250 ms primary-quality threshold
  // deposes every healthy remote primary. 0 leaves all constants exactly
  // as the static fields say, so existing traces are unchanged.
  SimTime network_rtt_us = 0;

  // Primary quality monitor (Aardvark-style): backups track the median
  // request-to-commit latency of requests they have relayed to the primary
  // and proactively start a view change when the primary is technically
  // live but crawling (median of 8 samples per view at or above
  // EffectivePrimaryLatencyThreshold). Off by default — it changes
  // view-change behavior and therefore trace digests.
  bool primary_quality_monitor = false;

  // When the primary has been idle this long it proposes a null request
  // (empty batch), so sequence numbers — and therefore checkpoints — keep
  // advancing even without client traffic. Recovering and lagging replicas
  // depend on fresh checkpoints to rejoin promptly (PBFT's null requests).
  // 0 disables the heartbeat.
  SimTime null_request_interval = 1 * kSecond;

  // When true, only the designated replier sends the full result to the
  // client; others send a result digest (PBFT's reply optimization). A
  // result no longer than a digest goes in full from every replica either way.
  bool digest_replies = true;
  // When true, read-only requests are executed tentatively without ordering
  // (client needs 2f+1 matching replies instead of f+1).
  bool read_only_optimization = true;

  // --- RTT-derived effective timeouts ---------------------------------------
  // Client retransmission: a commit needs request + 3 protocol phases +
  // reply, so anything under ~2 RTT guarantees spurious retransmits. 3 RTT
  // leaves headroom for jitter tails and batching holds.
  SimTime EffectiveClientRetryTimeout() const {
    return std::max(client_retry_timeout, 3 * network_rtt_us);
  }
  // View-change suspicion: must exceed a full commit round plus queueing at
  // a loaded primary, or healthy views churn.
  SimTime EffectiveViewChangeTimeout() const {
    return std::max(view_change_timeout, 4 * network_rtt_us);
  }
  // Primary-quality threshold: half the effective view-change timeout plus
  // one RTT, so a remote-but-healthy primary's unavoidable propagation delay
  // is not counted against it.
  SimTime EffectivePrimaryLatencyThreshold() const {
    return EffectiveViewChangeTimeout() / 2 + network_rtt_us;
  }

  // Primary pipeline depth (unexecuted batches in flight). A LAN keeps
  // max_in_flight_batches: its replicas are CPU-bound, and the window is
  // what makes requests wait to be batched; a deeper one splits them into
  // more, smaller batches. On a WAN a round takes an RTT, and a fixed
  // window would cap throughput at window x max_batch per round, so only
  // the high watermark (log_window, which InWindow enforces) bounds it.
  SeqNum EffectivePipelineDepth() const {
    return network_rtt_us > 0 ? log_window
                              : static_cast<SeqNum>(max_in_flight_batches);
  }
  // Batches a replica executes past checkpoint S before its CHECKPOINT vote
  // for S must have left: D = log_window - checkpoint_interval - pipeline
  // depth, at least 1. With S - k stable, the primary's pipeline reaches
  // the high watermark (S - k + log_window) only once it has executed
  // S + D + 1, so votes sent by then keep it from stalling there. The
  // replica paces each checkpoint's digest work to this deadline
  // (ServiceInterface::TakeCheckpoint): 126 for k = 128, L = 256 on a LAN,
  // 1 on a WAN, whose pipeline is the whole window.
  SeqNum CheckpointVoteDeadline() const {
    const SeqNum reserved = checkpoint_interval + EffectivePipelineDepth();
    return log_window > reserved ? log_window - reserved : 1;
  }

  int n() const { return 3 * f + 1; }
  int quorum() const { return 2 * f + 1; }  // 2f+1
  int prepared_quorum() const { return 2 * f; }  // prepares besides pre-prepare

  NodeId PrimaryOf(ViewNum view) const {
    return static_cast<NodeId>(view % static_cast<ViewNum>(n()));
  }
  NodeId ClientId(int index) const { return n() + index; }
  bool IsReplica(NodeId id) const { return id >= 0 && id < n(); }
  bool IsClient(NodeId id) const {
    return id >= n() && id < n() + max_clients;
  }
  // Total number of principals that need pairwise keys.
  int node_count() const { return n() + max_clients; }
};

}  // namespace bftbase

#endif  // SRC_BFT_CONFIG_H_
