#include "src/sim/simulation.h"

#include <algorithm>

#include "src/sim/network.h"
#include "src/util/hotpath.h"
#include "src/util/log.h"

namespace bftbase {

namespace {
constexpr const char kIdleLaneCpu[] = "sim.idle_lane_cpu_us";
constexpr const char kIdleLaneForced[] = "sim.idle_lane_forced_us";
}  // namespace

Simulation::Simulation(uint64_t seed, CostModel cost)
    : cost_(cost), rng_(seed) {
  network_ = new Network(this);
}

Simulation::~Simulation() { delete network_; }

void Simulation::AddNode(NodeId id, SimNode* node) {
  assert(node != nullptr);
  assert(id >= 0);
  if (static_cast<size_t>(id) >= nodes_.size()) {
    nodes_.resize(id + 1, nullptr);
  }
  nodes_[id] = node;
}

void Simulation::RemoveNode(NodeId id) {
  if (id >= 0 && static_cast<size_t>(id) < nodes_.size()) {
    nodes_[id] = nullptr;
  }
  // Clear CPU-serialization state: a replica that crashes mid-handler and is
  // later re-added must not start life behind a stale busy-until horizon.
  if (id >= 0 && static_cast<size_t>(id) < busy_.size()) {
    busy_[id] = 0;
  }
  DropIdleJobs(id);
}

void Simulation::DropIdleJobs(NodeId owner) {
  if (owner >= 0 && static_cast<size_t>(owner) < lanes_.size()) {
    Cancel(lanes_[owner].wake);
    lanes_[owner] = IdleLane();
  }
}

TimerId Simulation::ScheduleCallback(NodeId owner, SimTime when, InlineFn fn) {
  const uint32_t idx = pool_.Acquire();
  PooledEvent& slot = pool_.at(idx);
  slot.kind = PooledEvent::Kind::kCallback;
  slot.owner = owner;
  slot.fn = std::move(fn);
  heap_.Push({when, next_seq_++, idx});
  NotePushed(heap_.Size());
  return PackTimerId(idx, slot.generation);
}

void Simulation::Cancel(TimerId id) {
  const uint32_t idx = static_cast<uint32_t>(id >> 32);
  const uint32_t generation = static_cast<uint32_t>(id);
  if (generation == 0 || idx >= pool_.slots()) {
    return;  // never a valid armed timer (0 is the caller-side sentinel)
  }
  PooledEvent& slot = pool_.at(idx);
  if (slot.kind != PooledEvent::Kind::kCallback ||
      slot.generation != generation) {
    return;  // already fired (slot freed or recycled): O(1) no-op
  }
  slot.cancelled = true;
}

void Simulation::ChargeCpu(SimTime cpu_cost) {
  assert(cpu_cost >= 0);
  handler_cpu_ += cpu_cost;
  // Foreground work preempts the node's running idle job for exactly its
  // length. A job already due at this instant is not pushed back: its wake
  // event simply waits behind this handler like any owner event.
  if (static_cast<size_t>(current_owner_) < lanes_.size()) {
    IdleLane& lane = lanes_[current_owner_];
    if (!lane.jobs.empty() && lane.due > now_) {
      lane.due += cpu_cost;
    }
  }
}

void Simulation::EnqueueIdleJob(NodeId owner, SimTime cpu, InlineFn fn) {
  assert(owner >= 0 && cpu >= 0);
  if (static_cast<size_t>(owner) >= lanes_.size()) {
    lanes_.resize(owner + 1);
  }
  IdleLane& lane = lanes_[owner];
  lane.jobs.push_back(IdleJob{cpu, std::move(fn)});
  if (lane.jobs.size() == 1) {
    // The lane runs once the node's foreground work so far is done: the
    // handler queueing the job (if it is the owner's) and anything the node
    // is already busy with.
    const SimTime own = current_owner_ == owner ? handler_cpu_ : 0;
    StartIdleHead(owner, std::max(now_ + own, BusyUntil(owner)));
  }
}

SimTime Simulation::IdleCpuLeft(NodeId owner) const {
  if (owner < 0 || static_cast<size_t>(owner) >= lanes_.size() ||
      lanes_[owner].jobs.empty()) {
    return 0;
  }
  // The job runs once the node is free: after the current handler if it is
  // the owner's, otherwise after whatever the node is busy with.
  const SimTime free_at =
      std::max(owner == current_owner_ ? now_ + handler_cpu_ : now_,
               BusyUntil(owner));
  return std::max<SimTime>(0, lanes_[owner].due - free_at);
}

SimTime Simulation::ForceIdleCpu(NodeId owner, SimTime cpu) {
  if (owner != current_owner_) {
    return 0;
  }
  const SimTime moved = std::min(cpu, IdleCpuLeft(owner));
  if (moved <= 0) {
    return 0;
  }
  // `due` stays put: the handler now ends `moved` later and the job needs
  // `moved` less after it.
  handler_cpu_ += moved;
  lanes_[owner].jobs.front().cpu -= moved;
  metrics_.Inc(kIdleLaneForced, owner, MetricsRegistry::kAny,
               static_cast<uint64_t>(moved));
  return moved;
}

void Simulation::StartIdleHead(NodeId owner, SimTime from) {
  IdleLane& lane = lanes_[owner];
  lane.due = from + lane.jobs.front().cpu;
  lane.wake = ScheduleCallback(owner, lane.due,
                               [this, owner] { OnIdleWake(owner); });
}

void Simulation::OnIdleWake(NodeId owner) {
  IdleLane& lane = lanes_[owner];
  lane.wake = 0;
  if (lane.jobs.empty()) {
    return;
  }
  if (now_ < lane.due) {
    // Foreground work preempted the job since this wake was armed.
    lane.wake = ScheduleCallback(owner, lane.due,
                                 [this, owner] { OnIdleWake(owner); });
    return;
  }
  IdleJob job = std::move(lane.jobs.front());
  lane.jobs.pop_front();
  metrics_.Inc(kIdleLaneCpu, owner, MetricsRegistry::kAny,
               static_cast<uint64_t>(job.cpu));
  // The next job starts now; the CPU `job.fn` charges preempts it like any
  // other foreground work. `job.fn` may change this lane, so nothing here
  // touches it afterwards.
  if (!lane.jobs.empty()) {
    StartIdleHead(owner, now_);
  }
  job.fn();
}

void Simulation::SetBusyUntil(NodeId owner, SimTime until) {
  if (static_cast<size_t>(owner) >= busy_.size()) {
    busy_.resize(owner + 1, 0);
  }
  busy_[owner] = until;
}

void Simulation::ScheduleDelivery(SimTime when, NodeId to, NodeId from,
                                  std::shared_ptr<const Payload> payload,
                                  int tag) {
  // A delivery is a tagged struct in a recycled pool slot — no callback, no
  // allocation beyond the slot itself.
  const uint32_t idx = pool_.Acquire();
  PooledEvent& slot = pool_.at(idx);
  slot.kind = PooledEvent::Kind::kDelivery;
  slot.owner = to;
  slot.from = from;
  slot.tag = tag;
  slot.payload = std::move(payload);
  heap_.Push({when, next_seq_++, idx});
  NotePushed(heap_.Size());
}

void Simulation::RunDelivery(NodeId to, NodeId from, int tag,
                             std::shared_ptr<const Payload> payload) {
  SimNode* node = GetNode(to);
  if (node == nullptr) {
    return;
  }
  trace_.Record(TraceEvent::kMsgDeliver, now_, from, to,
                payload->bytes.size(), static_cast<uint64_t>(tag));
  // Expose the delivered Payload to the handler so the receive path can use
  // its memo. Saved/restored because OnMessage may replay stashed wires
  // through nested OnMessage calls.
  std::shared_ptr<const Payload> prev = std::move(current_delivery_);
  current_delivery_ = std::move(payload);
  node->OnMessage(from, current_delivery_->bytes);
  current_delivery_ = std::move(prev);
}

void Simulation::PruneCancelledTop() {
  // Discard cancelled timers sitting at the head of the queue. The check is
  // an O(1) flag read on the timer's pool slot.
  while (!heap_.Empty()) {
    const uint32_t idx = heap_.Top().pool_index;
    if (!pool_.at(idx).cancelled) {
      break;
    }
    heap_.PopTop();
    pool_.Release(idx);
    ++hotpath::counters().events_pruned;
  }
}

bool Simulation::Step() {
  PruneCancelledTop();
  if (heap_.Empty()) {
    return false;
  }
  const HeapEntry top = heap_.PopTop();
  assert(top.time >= now_);
  now_ = top.time;
  PooledEvent& slot = pool_.at(top.pool_index);
  const NodeId owner = slot.owner;
  if (owner != kNoOwner) {
    const SimTime busy = BusyUntil(owner);
    if (busy > now_) {
      // Defer behind the node's current work: push a fresh 24-byte heap
      // entry pointing at the same pool slot. The event — callback, shared
      // buffer and all — is moved, never copied.
      heap_.Push({busy, next_seq_++, top.pool_index});
      NotePushed(heap_.Size());
      ++hotpath::counters().events_requeued;
      return true;
    }
  }
  // Extract the event and release its slot before running the handler: the
  // handler may schedule new events, which can grow the pool (invalidating
  // references) and immediately recycle this slot.
  const PooledEvent::Kind kind = slot.kind;
  const NodeId from = slot.from;
  const int tag = slot.tag;
  std::shared_ptr<const Payload> payload = std::move(slot.payload);
  InlineFn fn = std::move(slot.fn);
  pool_.Release(top.pool_index);

  handler_cpu_ = 0;
  current_owner_ = owner;
  if (kind == PooledEvent::Kind::kDelivery) {
    RunDelivery(owner, from, tag, std::move(payload));
  } else {
    fn();
  }
  if (owner != kNoOwner && handler_cpu_ > 0) {
    SetBusyUntil(owner, now_ + handler_cpu_);
  }
  current_owner_ = kNoOwner;
  handler_cpu_ = 0;
  ++events_processed_;
  if (step_observer_) {
    step_observer_();
  }
  return true;
}

SimTime Simulation::NextEventTime() {
  PruneCancelledTop();
  return heap_.Empty() ? kNoPendingEvent : heap_.Top().time;
}

void Simulation::RunUntilIdle() {
  while (Step()) {
  }
}

void Simulation::RunUntil(SimTime deadline) {
  // Step() returns false once the queue is empty, which also ends the loop
  // for deadline == kNoPendingEvent.
  while (NextEventTime() <= deadline && Step()) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

bool Simulation::RunUntilTrue(const std::function<bool()>& pred,
                              SimTime deadline) {
  if (pred()) {
    return true;
  }
  while (NextEventTime() <= deadline && Step()) {
    if (pred()) {
      return true;
    }
  }
  return pred();
}

}  // namespace bftbase
