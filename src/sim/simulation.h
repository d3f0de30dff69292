// Deterministic discrete-event simulation kernel.
//
// Replaces the paper's physical testbed. All replicas, clients and the
// network run inside one Simulation; virtual time advances only when events
// fire, so a run with a given seed is bit-for-bit reproducible — which is
// what makes the fault-injection experiments (E7) and the protocol tests
// meaningful.
//
// CPU accounting: each node is a serial processor. While a handler runs it
// may call ChargeCpu() to account for work (crypto, service execution); the
// node is then busy until the accumulated finish time, and later events for
// that node are delayed behind it. Messages sent from within a handler leave
// the node at its current finish time.
//
// Idle lane: RunWhenIdle() queues background work on a node. It behaves like
// a low-priority thread on the node's one CPU: it runs only while the node
// has no foreground work, and any foreground handler preempts it at once for
// exactly the CPU that handler charges. A handler with a deadline to meet
// can take over part of the running job with ForceIdleCpu (DESIGN.md §10).
//
// Event kernel: events live in a pooled, move-only representation
// (src/sim/event_queue.h) — deliveries are tagged structs, not capturing
// lambdas; timers use small-buffer-optimized callables — scheduled by a
// 4-ary heap of 24-byte PODs, with O(1) generation-checked timer
// cancellation, dense NodeId-indexed node/busy tables, and pre-resolved
// metric handles on the network path. Events run in (time, seq) order; the
// pinned EventTrace digests in tests/kernel_witness_test.cc record that
// order (DESIGN.md §10).
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/digest_memo.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace bftbase {

using NodeId = int;
using TimerId = uint64_t;

// Anything that can receive messages from the network.
class SimNode {
 public:
  virtual ~SimNode() = default;
  // Delivery of one network message. `from` is the authenticated link-layer
  // source (the simulation does not let nodes spoof it; PBFT additionally
  // authenticates with MACs end-to-end).
  virtual void OnMessage(NodeId from, const Bytes& payload) = 0;
};

class Network;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1, CostModel cost = CostModel());
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  const CostModel& cost() const { return cost_; }
  Rng& rng() { return rng_; }
  Network& network() { return *network_; }

  // Central counters/histograms for every layer (see metrics.h).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Deterministic event trace; disabled unless trace().Enable() is called.
  EventTrace& trace() { return trace_; }
  const EventTrace& trace() const { return trace_; }

  // Registers a node under `id` (id >= 0). The node must outlive the
  // simulation run.
  void AddNode(NodeId id, SimNode* node);
  // Unregisters `id`, clears its CPU-serialization state and drops its
  // pending idle-lane jobs, so a node re-added under the same id
  // (crash/restart cycles) does not inherit a stale busy-until horizon.
  void RemoveNode(NodeId id);
  SimNode* GetNode(NodeId id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes_.size() ? nodes_[id]
                                                             : nullptr;
  }

  // Schedules `fn` to run `delay` from now on behalf of node `owner`
  // (owner's CPU serialization applies; pass kNoOwner for free-running
  // events such as harness callbacks). The returned id is never 0, so 0 is
  // safe as a caller-side "no timer" sentinel.
  static constexpr NodeId kNoOwner = -1;
  template <typename F>
  TimerId After(NodeId owner, SimTime delay, F&& fn) {
    assert(delay >= 0);
    return ScheduleCallback(owner, now_ + delay,
                            InlineFn(std::forward<F>(fn)));
  }
  // Cancels a pending timer; O(1) no-op if it already fired, was already
  // cancelled, or never existed (stale ids are detected by a per-slot
  // generation check, so repeated cancels never grow any bookkeeping).
  void Cancel(TimerId id);

  // Accounts CPU work for the node whose handler is currently running.
  void ChargeCpu(SimTime cost);
  // CPU time consumed so far by the current handler (including charge).
  SimTime CurrentHandlerFinishTime() const { return now_ + handler_cpu_; }
  // Forgets CPU charged outside any event. Such work (building a group, a
  // test poking a service directly) belongs to no node's timeline; left in
  // place it would delay every message sent before the next event. Call
  // only between events.
  void DiscardCpuOutsideEvents() { handler_cpu_ = 0; }

  // Runs `fn` as an `owner` event once `owner` has had `cpu` µs of virtual
  // time that no foreground handler used. Jobs run FIFO per node, in the
  // same order on every run; foreground events never wait for them, and
  // each foreground handler that overlaps the running job delays its
  // completion by exactly the CPU it charges. When a job completes, the CPU
  // it ran in idle time is counted in the "sim.idle_lane_cpu_us" metric.
  template <typename F>
  void RunWhenIdle(NodeId owner, SimTime cpu, F&& fn) {
    EnqueueIdleJob(owner, cpu, InlineFn(std::forward<F>(fn)));
  }
  // CPU `owner`'s running (head) idle job still needs; 0 with none.
  SimTime IdleCpuLeft(NodeId owner) const;
  // Moves up to `cpu` µs of `owner`'s running idle job into the current
  // handler, which must be `owner`'s (otherwise nothing moves), and returns
  // the amount moved. The handler grows by that amount and the job shrinks
  // by it, so the job still completes when it would have: at the handler's
  // end once nothing is left. The moved CPU is counted, as it moves, in
  // "sim.idle_lane_forced_us", not in "sim.idle_lane_cpu_us".
  SimTime ForceIdleCpu(NodeId owner, SimTime cpu);
  // Drops `owner`'s idle-lane jobs, the running one included, unrun (the
  // process they belonged to died).
  void DropIdleJobs(NodeId owner);
  // Jobs queued on `owner`'s idle lane, the running one included.
  size_t idle_jobs(NodeId owner) const {
    return static_cast<size_t>(owner) < lanes_.size()
               ? lanes_[owner].jobs.size()
               : 0;
  }

  // Runs a single event. Returns false when the queue is empty.
  bool Step();
  // Runs events until the queue is empty.
  void RunUntilIdle();
  // Runs events with time <= deadline (absolute virtual time).
  void RunUntil(SimTime deadline);
  // Runs until `pred()` is true or `deadline` passes. Returns pred().
  bool RunUntilTrue(const std::function<bool()>& pred, SimTime deadline);

  // Total events processed (telemetry for tests/benches).
  uint64_t events_processed() const { return events_processed_; }

  // A deadline no event reaches: RunUntilTrue(pred, kNoPendingEvent) runs
  // until pred() holds or the queue empties.
  static constexpr SimTime kNoPendingEvent =
      std::numeric_limits<SimTime>::max();

  // --- Kernel telemetry (tests and bench_scale) ----------------------------
  // High-water mark of the scheduler queue.
  uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  // Events currently queued.
  size_t queued_events() const { return heap_.Size(); }
  // Pool capacity / in-flight events: every queued event occupies one slot.
  // The Cancel-leak regression test asserts slots stay bounded under churn.
  size_t event_pool_slots() const { return pool_.slots(); }
  size_t event_pool_live() const { return pool_.live(); }

  // Invoked after every processed event; the invariant auditor hooks in here
  // so tests can assert protocol invariants after each simulation step.
  void SetStepObserver(std::function<void()> observer) {
    step_observer_ = std::move(observer);
  }

  // Internal: used by Network to deliver messages with node serialization.
  // `tag` labels the payload (message type) for trace records. The payload is
  // an immutable shared buffer: a multicast schedules n deliveries against
  // one buffer instead of n copies.
  void ScheduleDelivery(SimTime when, NodeId to, NodeId from,
                        std::shared_ptr<const Bytes> payload, int tag = -1);

  // The shared buffer of the message delivery currently being handled, or
  // null outside OnMessage. Lets receive-side code (Channel::Open) key caches
  // by buffer identity without changing the SimNode::OnMessage signature.
  const std::shared_ptr<const Bytes>& current_delivery() const {
    return current_delivery_;
  }

  // Envelope digests and signature verdicts memoized per delivered buffer
  // (see digest_memo.h).
  DeliveryDigestMemo& digest_memo() { return digest_memo_; }

 private:
  // TimerIds pack (pool slot, slot generation), so Cancel is O(1) and a
  // stale id can never reach a recycled slot.
  static TimerId PackTimerId(uint32_t slot, uint32_t generation) {
    return (static_cast<TimerId>(slot) << 32) | generation;
  }

  TimerId ScheduleCallback(NodeId owner, SimTime when, InlineFn fn);

  // Idle lane of one node. The head job runs whenever the node has no
  // foreground work and finishes at `due` unless a foreground handler
  // preempts it first (ChargeCpu then pushes `due` back). `wake` is an
  // owner event at or before `due`; it re-arms itself until `due`.
  struct IdleJob {
    SimTime cpu = 0;  // left for the lane: ForceIdleCpu takes some over
    InlineFn fn;
  };
  struct IdleLane {
    std::deque<IdleJob> jobs;
    SimTime due = 0;
    TimerId wake = 0;
  };
  void EnqueueIdleJob(NodeId owner, SimTime cpu, InlineFn fn);
  // Starts the head job of `owner`'s lane running from `from`.
  void StartIdleHead(NodeId owner, SimTime from);
  void OnIdleWake(NodeId owner);

  // Runs one message delivery through the receiving node's handler.
  void RunDelivery(NodeId to, NodeId from, int tag,
                   std::shared_ptr<const Bytes> payload);

  // Pops cancelled timers off the head of the queue so that the head always
  // refers to an event that will actually run.
  void PruneCancelledTop();
  // Virtual time of the next event that will run, or kNoPendingEvent when
  // the queue is empty: the deadline check of RunUntil/RunUntilTrue. It
  // prunes cancelled timers at the head first; without that, the check
  // would read a cancelled timer's time and the Step() after it could run
  // an event far beyond the caller's deadline.
  SimTime NextEventTime();

  SimTime BusyUntil(NodeId owner) const {
    return static_cast<size_t>(owner) < busy_.size() ? busy_[owner] : 0;
  }
  void SetBusyUntil(NodeId owner, SimTime until);
  void NotePushed(size_t depth) {
    if (depth > peak_queue_depth_) {
      peak_queue_depth_ = depth;
    }
  }

  CostModel cost_;
  Rng rng_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t peak_queue_depth_ = 0;
  SimTime handler_cpu_ = 0;  // CPU charged by the currently running handler
  NodeId current_owner_ = kNoOwner;  // owner of the running handler

  EventPool pool_;
  EventHeap heap_;
  std::vector<SimNode*> nodes_;   // indexed by NodeId
  std::vector<SimTime> busy_;     // per-node CPU busy-until, by NodeId
  std::deque<IdleLane> lanes_;    // per-node idle lane, by NodeId

  std::function<void()> step_observer_;
  MetricsRegistry metrics_;
  EventTrace trace_;
  Network* network_;
  std::shared_ptr<const Bytes> current_delivery_;
  DeliveryDigestMemo digest_memo_;
};

}  // namespace bftbase

#endif  // SRC_SIM_SIMULATION_H_
