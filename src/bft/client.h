// BFT client: carries out the client side of the replication protocol.
//
// invoke() from the paper's Figure 1. One outstanding operation at a time
// (PBFT semantics); the result is accepted once f+1 replicas sent matching
// replies (2f+1 for tentative replies under the read-only optimization).
#ifndef SRC_BFT_CLIENT_H_
#define SRC_BFT_CLIENT_H_

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "src/bft/channel.h"
#include "src/bft/config.h"
#include "src/bft/message.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace bftbase {

class Client : public SimNode {
 public:
  Client(Simulation* sim, KeyTable* keys, const Config& config, NodeId id);

  // Invokes `op` on the replicated service. The callback fires exactly once,
  // inside the simulation, with the agreed result.
  using Callback = std::function<void(Status, Bytes)>;
  void Invoke(Bytes op, bool read_only, Callback callback);

  // Convenience for tests and workloads: runs the simulation until the
  // operation completes or `timeout` virtual time passes.
  Result<Bytes> InvokeSync(Bytes op, bool read_only,
                           SimTime timeout = 60 * kSecond);

  // Abandons the outstanding operation without completing it (harness-side
  // timeout handling). The callback never fires; late replies for the
  // abandoned timestamp are ignored. No-op when idle. NOTE: the operation
  // may still execute at the replicas — callers that need exactly-once
  // visibility must treat an abandoned op as "effect unknown".
  void Abandon();

  void OnMessage(NodeId from, const Bytes& wire) override;

  NodeId id() const { return id_; }
  bool busy() const { return pending_.has_value(); }
  uint64_t operations_completed() const { return operations_completed_; }
  uint64_t retries() const { return retries_; }
  // Retransmissions driven by the retry timeout alone (a strict subset of
  // retries(), which also counts the eager digest-quorum retransmit). On a
  // healthy deployment with correctly derived timeouts this must stay 0 —
  // the figure the geo bench gates on.
  uint64_t timeout_retries() const { return timeout_retries_; }
  // Virtual-time latency of the most recently completed operation.
  SimTime last_latency() const { return last_latency_; }
  // Completed operations whose vote quorum formed before a matching full
  // result had arrived, and the virtual time they then waited for it (the
  // designated-replier wait, which no replica phase shows).
  uint64_t result_waits() const { return result_waits_; }
  SimTime result_wait_time() const { return result_wait_time_; }

 private:
  struct Pending {
    uint64_t timestamp = 0;
    Bytes op;
    bool read_only = false;
    bool tentative_phase = false;  // still hoping for the read-only fast path
    Callback callback;
    // result digest -> replicas that voted for it (tentative and definitive
    // replies are tallied separately: a definitive vote also counts toward
    // the tentative tally but not vice versa).
    std::map<Digest, std::set<NodeId>> votes;
    std::map<Digest, std::set<NodeId>> tentative_votes;
    std::map<Digest, Bytes> full_results;  // digest -> full result bytes
    TimerId retry_timer = 0;
    int attempts = 0;
    // Set once a digest quorum formed without a full result and the request
    // was eagerly retransmitted (replicas answer retransmissions with full
    // results); keeps a faulty designated replier from triggering a storm.
    bool result_retransmit_sent = false;
    // On a WAN deployment (config.network_rtt_us > 0) the eager retransmit
    // is deferred by one RTT instead of firing instantly: a healthy but
    // remote designated replier's full result routinely trails the nearest
    // f+1 digest replies by a propagation delay, which is indistinguishable
    // from a faulty replier at digest-quorum time. 0 = not armed.
    TimerId result_grace_timer = 0;
    SimTime start_time = 0;
    // When a vote quorum first formed without its full result; -1 = never.
    SimTime quorum_without_result_at = -1;
  };

  void SendRequest();
  void OnRetryTimeout();
  void OnResultGraceTimeout(uint64_t timestamp);
  void HandleReply(const ReplyMsg& reply);
  void Complete(Status status, Bytes result);

  Simulation* sim_;
  Config config_;
  NodeId id_;
  Channel channel_;
  // Per-client stream for retransmission jitter: seeded from the client id
  // only, so it is deterministic, independent of the simulation's RNG (a
  // retry draw never perturbs other components' randomness), and distinct
  // across clients (no retry lockstep after a partition heals).
  Rng jitter_rng_;
  uint64_t next_timestamp_ = 1;
  std::optional<Pending> pending_;
  uint64_t operations_completed_ = 0;
  uint64_t retries_ = 0;
  uint64_t timeout_retries_ = 0;
  SimTime last_latency_ = 0;
  uint64_t result_waits_ = 0;
  SimTime result_wait_time_ = 0;
};

}  // namespace bftbase

#endif  // SRC_BFT_CLIENT_H_
