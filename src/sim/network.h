// Simulated network with fault injection.
//
// Point-to-point datagram transport between SimNodes. Charges the cost model
// for latency and bandwidth. One directed link table decides what a message
// adds to that latency: each (from, to) entry holds a one-way delay and a
// jitter model. Topologies program the table (src/sim/topology.h), and delay
// faults add to an entry and take back exactly what they added, so they
// stack on the topology and on each other. The adversarial controls the
// fault-injection experiments need are blocked links and partitions, global
// and directed per-pair drop probability, bounded message duplication, node
// isolation (crash), and an interceptor hook that can observe, drop or
// rewrite messages in flight (a network-level Byzantine adversary).
//
// Zero-copy fabric: payloads travel as std::shared_ptr<const Payload>
// (src/sim/payload.h). A multicast materializes one shared Payload lazily —
// after the fault checks, only when at least one recipient survives — and
// schedules every delivery against it; a 100%-dropped multicast copies
// nothing. When an interceptor is installed the fabric falls back to
// copy-on-write at the fault-injection boundary: each recipient gets a
// private copy to mutate, and unchanged copies are folded back onto the
// shared Payload, so one recipient's rewrite can never alias into another's
// bytes, and the untouched recipients still share one digest memo.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/sim/cost_model.h"
#include "src/sim/payload.h"
#include "src/sim/simulation.h"
#include "src/util/bytes.h"

namespace bftbase {

// Per-link jitter model. A uniform [0, jitter_us] draw (SetJitter's shape)
// cannot express WAN tails, where most messages see a few hundred extra
// microseconds and a small fraction sees tens of milliseconds. Topology
// presets (src/sim/topology.h) arm per-link heavy-tailed models instead:
// log-normal (intra-region microbursts) and Pareto (inter-region congestion
// tails). Draws come from the simulation's seeded RNG — deterministic per
// seed — and only when a model is armed, so same-seed streams are unchanged
// when the lever is unused.
struct JitterSpec {
  enum class Kind {
    kNone = 0,
    kUniform,    // uniform integer in [0, a] us
    kLogNormal,  // exp(Normal(mu = a, sigma = b)) us (a, b in log-space)
    kPareto,     // scale a us, shape alpha = b (heavier tail for smaller b)
  };
  Kind kind = Kind::kNone;
  double a = 0.0;
  double b = 0.0;
  // Hard cap on a single draw so a heavy tail cannot produce a delay that
  // outlives every protocol timeout. 0 = uncapped.
  SimTime cap_us = 0;

  static JitterSpec None() { return {}; }
  static JitterSpec Uniform(SimTime max_us, SimTime cap = 0) {
    return {Kind::kUniform, static_cast<double>(max_us), 0.0, cap};
  }
  static JitterSpec LogNormal(double mu, double sigma, SimTime cap) {
    return {Kind::kLogNormal, mu, sigma, cap};
  }
  static JitterSpec Pareto(double scale_us, double alpha, SimTime cap) {
    return {Kind::kPareto, scale_us, alpha, cap};
  }
};

class Network {
 public:
  explicit Network(Simulation* sim);

  // Sends `payload` from `from` to `to`. Delivery is scheduled after the cost
  // model's latency unless a fault suppresses it. Self-sends are delivered
  // with only handling cost (loopback). The buffer is moved into the
  // delivered Payload, never copied.
  void Send(NodeId from, NodeId to, Bytes payload);

  // Sends every id in [first, last) the *same* shared Payload (except
  // `skip`, if in range). The caller keeps ownership of `payload`; at most
  // one copy is made no matter how many recipients there are (zero if every
  // recipient is dropped), plus one private copy per recipient when an
  // interceptor is installed.
  static constexpr NodeId kNoSkip = -1;
  void Multicast(NodeId from, NodeId first, NodeId last, const Bytes& payload,
                 NodeId skip = kNoSkip);

  // --- Fault injection -----------------------------------------------------

  // Drops all traffic in both directions between a and b.
  void BlockLink(NodeId a, NodeId b);
  void UnblockLink(NodeId a, NodeId b);

  // Drops all traffic to and from `node` (models a crashed / unplugged host).
  void Isolate(NodeId node);
  void Heal(NodeId node);
  bool IsIsolated(NodeId node) const { return isolated_.count(node) > 0; }

  // Uniform drop probability applied to every message (after the checks
  // above). Deterministic given the simulation seed.
  void SetDropProbability(double p) {
    drop_probability_ = p;
    RefreshFaultFlag();
  }

  // --- Link table -----------------------------------------------------------
  // Adds `delta_us` (negative to take it back) to the one-way delay of the
  // directed link from -> to. The only delay setter: a fault adds its delay
  // when armed and subtracts exactly that amount when it heals. Distinct
  // delays on different links reorder traffic across links while each link
  // stays FIFO. The delay must never go below 0.
  void AddDelay(NodeId from, NodeId to, SimTime delta_us);
  // The one-way delay the table adds from -> to (0 when none is set).
  SimTime Delay(NodeId from, NodeId to) const;

  // Jitter model for both directions of {a, b}: every delivery on the link
  // adds an independent draw from `spec` to its latency. Kind::kNone hands
  // the link back to the default below.
  void SetLinkJitter(NodeId a, NodeId b, JitterSpec spec);
  // Default jitter for links without a model of their own: a uniform draw
  // in [0, jitter_us] per message. 0 disables it.
  void SetJitter(SimTime jitter_us) {
    default_jitter_ = JitterSpec::Uniform(jitter_us);
  }

  // Directed drop probability for from -> to only (no effect on the reverse
  // path): the lever a selective-suppression adversary needs to starve
  // chosen peers without declaring a partition. Checked after the global
  // drop probability, drawing from the RNG only while a pair is armed
  // (same-seed streams are unchanged when unused). p = 0 clears.
  void SetPairDropProbability(NodeId from, NodeId to, double p);

  // Bounded message duplication: each non-loopback delivery that survives
  // the fault checks is duplicated with probability `p`, adding between 1
  // and `max_copies` extra deliveries. Duplicates alias the original's
  // shared buffer (zero additional copies) and draw an independent delay so
  // they can arrive out of order. p = 0 or max_copies = 0 disables.
  void SetDuplication(double p, int max_copies);

  // Interceptor: runs for every message that would be delivered. Returning
  // false drops the message; the payload may be mutated (Byzantine network).
  // In a multicast each invocation operates on a private copy of the payload.
  using Interceptor = std::function<bool(NodeId from, NodeId to, Bytes& payload)>;
  void SetInterceptor(Interceptor fn) { interceptor_ = std::move(fn); }

  // --- Telemetry -----------------------------------------------------------
  // Counters live in the simulation's MetricsRegistry, keyed by sender node
  // and message type (first payload byte when it is a valid MsgType).
  // "Offered" counts every Send() call; "delivered" only messages that
  // survived isolation/blocked-link/drop/interceptor checks and were
  // scheduled for delivery; "dropped" is the difference; "duplicated"
  // counts the extra deliveries the duplication lever scheduled (each also
  // counts as delivered). Offered - dropped + duplicated == delivered
  // always holds.
  uint64_t messages_offered() const;
  uint64_t messages_delivered() const;
  uint64_t messages_dropped() const;
  uint64_t messages_duplicated() const;
  uint64_t bytes_offered() const;
  uint64_t bytes_delivered() const;
  // Real payload copies the fabric performed ("hot.payload_copies" /
  // "hot.bytes_copied").
  uint64_t payload_copies() const;
  uint64_t bytes_copied() const;
  // Clears the network's metrics (leaves other layers' metrics alone).
  void ResetStats();

 private:
  // A node pair: (min, max) in the undirected blocked-link set, (from, to)
  // in the directed link table and pair drop map.
  using Link = std::pair<NodeId, NodeId>;
  static Link LinkKey(NodeId a, NodeId b) {
    return {std::min(a, b), std::max(a, b)};
  }
  bool LinkBlocked(NodeId a, NodeId b) const;
  // Recomputes no_faults_armed_; called by every lever setter.
  void RefreshFaultFlag() {
    no_faults_armed_ = isolated_.empty() && blocked_links_.empty() &&
                       drop_probability_ <= 0.0 && pair_drop_.empty();
  }
  // Consumes the per-message fault decisions (isolation, blocked link, random
  // drop) in the exact order the pre-zero-copy fabric did, so same-seed RNG
  // streams are unchanged. The pair drop lever draws afterwards, and only
  // when armed.
  bool PassesFaultChecks(NodeId from, NodeId to);
  void CountDrop(NodeId from, NodeId to, int tag, size_t size);
  void CountOffered(NodeId from, NodeId to, int tag, const Bytes& payload);
  void CountCopy(NodeId from, int tag, size_t size);
  // Wire latency for one delivery: cost-model latency plus the link's delay
  // plus one draw from its jitter model (or the default one).
  SimTime DeliveryLatency(NodeId from, NodeId to, size_t size);
  // One draw from `spec` using the simulation RNG; respects spec.cap_us.
  SimTime SampleJitter(const JitterSpec& spec);
  // Counts the delivery and schedules it after the cost model's latency;
  // rolls the duplication lever for extra aliased deliveries.
  void Deliver(NodeId from, NodeId to, int tag,
               std::shared_ptr<const Payload> payload);

  Simulation* sim_;
  // True while no lever that PassesFaultChecks consults is armed; lets the
  // per-message check skip the set walks entirely.
  bool no_faults_armed_ = true;
  // Pre-resolved counter handles: per-message accounting is a pointer chase
  // instead of a string-map walk.
  MetricsRegistry::Counter c_msgs_offered_;
  MetricsRegistry::Counter c_msgs_delivered_;
  MetricsRegistry::Counter c_msgs_dropped_;
  MetricsRegistry::Counter c_msgs_duplicated_;
  MetricsRegistry::Counter c_bytes_offered_;
  MetricsRegistry::Counter c_bytes_delivered_;
  MetricsRegistry::Counter c_bytes_dropped_;
  MetricsRegistry::Counter c_payload_copies_;
  MetricsRegistry::Counter c_bytes_copied_;
  std::set<Link> blocked_links_;
  std::set<NodeId> isolated_;
  double drop_probability_ = 0.0;
  std::map<Link, double> pair_drop_;
  // The link table. An entry lives only while it holds a delay or a jitter
  // model of its own, so a healed network reads as one never touched.
  struct LinkSpec {
    SimTime delay_us = 0;
    JitterSpec jitter;
  };
  std::map<Link, LinkSpec> links_;
  JitterSpec default_jitter_;
  // Erases `it` if it holds neither a delay nor a jitter model.
  void PruneLink(std::map<Link, LinkSpec>::iterator it);
  double duplicate_probability_ = 0.0;
  int duplicate_max_ = 0;
  Interceptor interceptor_;
};

}  // namespace bftbase

#endif  // SRC_SIM_NETWORK_H_
