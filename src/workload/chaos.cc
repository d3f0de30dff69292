#include "src/workload/chaos.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/basefs/basefs_group.h"
#include "src/sim/topology.h"
#include "src/util/log.h"
#include "src/workload/adversary.h"
#include "src/util/percentile.h"
#include "src/util/rng.h"
#include "src/util/xdr.h"

namespace bftbase {

// --- Linearizability checker ------------------------------------------------

namespace {

// Cap on explored (mask, value) states across the whole history. The chaos
// workload keeps per-object histories tiny (a handful of ops), so hitting
// this means a pathological hand-built history; the checker then gives up
// without claiming a violation and says so in the explanation.
constexpr uint64_t kSearchBudget = 4u * 1000 * 1000;

// Per-object register search (Wing & Gong): linearize one op at a time,
// respecting real-time order (an op may be picked next only if no other
// unlinearized op responded before it was invoked), simulating the register
// value, memoizing (linearized-set, value) states. Pending ops never block
// (their response is at infinity) and may be left unlinearized forever.
struct RegisterSearch {
  const std::vector<const HistoryOp*>& ops;
  uint64_t completed_mask = 0;
  uint64_t* states;
  std::set<std::pair<uint64_t, Bytes>> seen;

  explicit RegisterSearch(const std::vector<const HistoryOp*>& object_ops,
                          uint64_t* state_counter)
      : ops(object_ops), states(state_counter) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i]->pending) {
        completed_mask |= uint64_t{1} << i;
      }
    }
  }

  bool Dfs(uint64_t mask, const Bytes& value) {
    if ((mask & completed_mask) == completed_mask) {
      return true;  // every completed op linearized; pending ops may vanish
    }
    if (++*states > kSearchBudget) {
      return true;  // budget exhausted: do not claim a violation
    }
    if (!seen.emplace(mask, value).second) {
      return false;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t bit = uint64_t{1} << i;
      if (mask & bit) {
        continue;
      }
      const HistoryOp& op = *ops[i];
      // Real-time minimality: no unlinearized completed op may have
      // responded before this op was invoked.
      bool minimal = true;
      for (size_t j = 0; j < ops.size() && minimal; ++j) {
        const uint64_t jbit = uint64_t{1} << j;
        if (j == i || (mask & jbit) || ops[j]->pending) {
          continue;
        }
        if (ops[j]->response_us < op.invoke_us) {
          minimal = false;
        }
      }
      if (!minimal) {
        continue;
      }
      if (op.kind == HistoryOp::Kind::kRead) {
        if (op.value == value && Dfs(mask | bit, value)) {
          return true;
        }
      } else {  // write
        if (Dfs(mask | bit, op.value)) {
          return true;
        }
      }
    }
    return false;
  }
};

std::string DescribeOp(const HistoryOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case HistoryOp::Kind::kWrite:
      out << "write";
      break;
    case HistoryOp::Kind::kRead:
      out << "read";
      break;
    case HistoryOp::Kind::kMkdir:
      out << "mkdir \"" << op.name << "\"";
      break;
  }
  out << " by client " << op.client;
  if (op.kind != HistoryOp::Kind::kMkdir) {
    out << " on file " << op.object;
  }
  out << " [" << op.invoke_us << "us, "
      << (op.pending ? std::string("pending")
                     : std::to_string(op.response_us) + "us")
      << "]";
  return out.str();
}

}  // namespace

LinearizabilityVerdict CheckLinearizable(const std::vector<HistoryOp>& history) {
  LinearizabilityVerdict verdict;

  // Directory semantics checked directly (the op set only grows the
  // directory, with workload-unique names): a second successful mkdir of
  // the same name, or an "already exists" reply with no plausible earlier
  // creator, can only come from duplicated execution.
  std::map<std::string, const HistoryOp*> created;
  for (const HistoryOp& op : history) {
    if (op.kind != HistoryOp::Kind::kMkdir || op.pending || !op.ok) {
      continue;
    }
    auto [it, fresh] = created.emplace(op.name, &op);
    if (!fresh) {
      verdict.linearizable = false;
      verdict.explanation = "directory entry created twice: " +
                            DescribeOp(op) + " after " +
                            DescribeOp(*it->second);
      return verdict;
    }
  }
  for (const HistoryOp& op : history) {
    if (op.kind != HistoryOp::Kind::kMkdir || !op.already_exists) {
      continue;
    }
    // A creator (successful or pending mkdir of the same name, other than
    // this op) must have been invoked before this reply came back.
    bool has_creator = false;
    for (const HistoryOp& other : history) {
      if (&other == &op || other.kind != HistoryOp::Kind::kMkdir ||
          other.name != op.name || other.rejected ||
          other.already_exists) {
        continue;
      }
      if (other.invoke_us < op.response_us) {
        has_creator = true;
        break;
      }
    }
    if (!has_creator) {
      verdict.linearizable = false;
      verdict.explanation =
          "\"already exists\" without a creator (duplicate execution): " +
          DescribeOp(op);
      return verdict;
    }
  }

  // File registers: locality lets each object be checked independently.
  std::map<int, std::vector<const HistoryOp*>> per_object;
  for (const HistoryOp& op : history) {
    if (op.kind == HistoryOp::Kind::kMkdir || op.rejected) {
      continue;  // rejected ops agreed to have no effect
    }
    if (op.kind == HistoryOp::Kind::kRead && op.pending) {
      continue;  // a read that never returned constrains nothing
    }
    per_object[op.object].push_back(&op);
  }
  for (auto& [object, ops] : per_object) {
    if (ops.size() > 64) {
      verdict.explanation = "object " + std::to_string(object) +
                            " has >64 ops; not checked";
      continue;
    }
    // Quick scan: every completed read must return the initial (empty)
    // value or something some write actually wrote.
    for (const HistoryOp* op : ops) {
      if (op->kind != HistoryOp::Kind::kRead || op->value.empty()) {
        continue;
      }
      bool written = false;
      for (const HistoryOp* w : ops) {
        if (w->kind == HistoryOp::Kind::kWrite && w->value == op->value) {
          written = true;
          break;
        }
      }
      if (!written) {
        verdict.linearizable = false;
        verdict.explanation = "read of a never-written value: " +
                              DescribeOp(*op);
        return verdict;
      }
    }
    RegisterSearch search(ops, &verdict.states_explored);
    if (!search.Dfs(0, Bytes())) {
      verdict.linearizable = false;
      std::ostringstream out;
      out << "no linearization for file " << object << " (" << ops.size()
          << " ops):";
      for (const HistoryOp* op : ops) {
        out << "\n  " << DescribeOp(*op);
      }
      verdict.explanation = out.str();
      return verdict;
    }
    if (verdict.states_explored > kSearchBudget) {
      verdict.explanation = "search budget exceeded; result is best-effort";
    }
  }
  return verdict;
}

// --- Planner ----------------------------------------------------------------

namespace {

constexpr uint64_t kPlannerSalt = 0x63616f73706c616eULL;   // "chaosplan"
constexpr uint64_t kWorkloadSalt = 0x63616f73776f726bULL;  // "chaoswork"
constexpr uint64_t kGeoSalt = 0x63616f7367656f21ULL;       // "chaosgeo!"

bool TotalOrder(const FaultEvent& a, const FaultEvent& b) {
  auto key = [](const FaultEvent& e) {
    return std::make_tuple(e.at, static_cast<uint32_t>(e.kind), e.replica,
                           e.duration, e.peer, e.side_mask, e.prob_ppm,
                           e.delay_us);
  };
  return key(a) < key(b);
}

}  // namespace

std::vector<FaultEvent> PlanChaosSchedule(const ChaosOptions& options) {
  Rng rng(options.seed ^ kPlannerSalt);
  constexpr int kReplicas = 4;  // f = 1 group
  const int count =
      options.min_events +
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(
          std::max(1, options.max_events - options.min_events + 1))));
  // Confine the genuinely Byzantine kinds (corrupt state, corrupt replies)
  // to one seed-chosen victim so the schedule never exceeds f = 1 faulty
  // replicas; benign kinds (crashes, restarts, network adversities) may hit
  // anyone.
  const int victim = static_cast<int>(rng.NextBelow(kReplicas));

  std::vector<FaultEvent> schedule;
  for (int i = 0; i < count; ++i) {
    FaultEvent event;
    event.at = options.fault_window_start +
               static_cast<SimTime>(rng.NextBelow(
                   static_cast<uint64_t>(std::max<SimTime>(1, options.fault_window))));
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 16) {
      event.kind = FaultKind::kCrashRestart;
      event.replica = static_cast<int>(rng.NextBelow(kReplicas));
      event.duration = 1 * kSecond + rng.NextBelow(3 * kSecond);
    } else if (roll < 26) {
      event.kind = FaultKind::kCorruptState;
      event.replica = victim;
    } else if (roll < 36) {
      event.kind = FaultKind::kByzantineReplies;
      event.replica = victim;
      event.duration = 500 * kMillisecond + rng.NextBelow(2 * kSecond);
    } else if (roll < 44) {
      event.kind = FaultKind::kDaemonRestart;
      event.replica = static_cast<int>(rng.NextBelow(kReplicas));
    } else if (roll < 56) {
      event.kind = FaultKind::kProactiveRecovery;
      // Confined to the victim like the Byzantine kinds (the draw is kept so
      // the seed's stream stays aligned): a recovering replica discards its
      // beyond-checkpoint prepared certificates, so two DISTINCT replicas
      // recovering concurrently exceed the f = 1 budget and can genuinely
      // lose a committed batch across a view change (the staggered-recovery
      // window-of-vulnerability assumption; see service_group.h). Repeated
      // events on one replica are safe: StartProactiveRecovery is a no-op
      // while a recovery is already running.
      event.replica = static_cast<int>(rng.NextBelow(kReplicas));
      event.replica = victim;
    } else if (roll < 68) {
      event.kind = FaultKind::kPartition;
      // Any proper nonempty subset of the replicas on side A.
      event.side_mask = static_cast<uint32_t>(
          1 + rng.NextBelow((uint64_t{1} << kReplicas) - 2));
      event.duration = 800 * kMillisecond + rng.NextBelow(2 * kSecond);
    } else if (roll < 80) {
      event.kind = FaultKind::kDropBurst;
      event.prob_ppm = 50000 + static_cast<uint32_t>(rng.NextBelow(250001));
      event.duration = 500 * kMillisecond + rng.NextBelow(2 * kSecond);
    } else if (roll < 90) {
      event.kind = FaultKind::kDuplicate;
      event.prob_ppm = 100000 + static_cast<uint32_t>(rng.NextBelow(300001));
      event.duration = 500 * kMillisecond + rng.NextBelow(2 * kSecond);
    } else {
      event.kind = FaultKind::kLinkDelay;
      event.replica = static_cast<int>(rng.NextBelow(kReplicas));
      event.peer = static_cast<int>(rng.NextBelow(kReplicas - 1));
      if (event.peer >= event.replica) {
        ++event.peer;
      }
      event.delay_us = 1 * kMillisecond + rng.NextBelow(10 * kMillisecond);
      event.duration = 1 * kSecond + rng.NextBelow(2 * kSecond);
    }
    schedule.push_back(event);
  }
  if (options.adversary) {
    // The adversary drives the same seed-chosen victim as the passive
    // Byzantine kinds, so the whole schedule stays within f = 1. Its events
    // draw from an independent salted stream: enabling the adversary never
    // perturbs the passive events planned for the same seed.
    const int extra = 2 + static_cast<int>(rng.NextBelow(3));
    auto adversary_events = PlanAdversaryEvents(
        options.seed, kReplicas, victim, options.fault_window_start,
        options.fault_window, options.adversary_strategy, extra);
    schedule.insert(schedule.end(), adversary_events.begin(),
                    adversary_events.end());
  }
  Topology topo;
  if (!options.topology.empty() && TopologyFromName(options.topology, &topo) &&
      topo.regions > 1) {
    // Topology-aware scenarios from an independent salted stream (enabling a
    // preset never perturbs the passive events planned for the same seed):
    // partition one whole region away from the rest, and slow one
    // inter-region link by a few RTTs (congestion, not partition).
    Rng geo(options.seed ^ kGeoSalt);
    const int region =
        static_cast<int>(geo.NextBelow(static_cast<uint64_t>(topo.regions)));
    uint32_t mask = 0;
    for (int r = 0; r < kReplicas; ++r) {
      if (topo.RegionOf(r) == region) {
        mask |= 1u << r;
      }
    }
    if (mask != 0 && mask != (uint64_t{1} << kReplicas) - 1) {
      FaultEvent event;
      event.kind = FaultKind::kPartition;
      event.side_mask = mask;
      event.at = options.fault_window_start +
                 static_cast<SimTime>(geo.NextBelow(static_cast<uint64_t>(
                     std::max<SimTime>(1, options.fault_window))));
      event.duration = 800 * kMillisecond + geo.NextBelow(2 * kSecond);
      schedule.push_back(event);
    }
    std::vector<std::pair<int, int>> inter_links;
    for (int a = 0; a < kReplicas; ++a) {
      for (int b = a + 1; b < kReplicas; ++b) {
        if (topo.RegionOf(a) != topo.RegionOf(b)) {
          inter_links.emplace_back(a, b);
        }
      }
    }
    if (!inter_links.empty()) {
      const auto [a, b] = inter_links[static_cast<size_t>(
          geo.NextBelow(inter_links.size()))];
      FaultEvent event;
      event.kind = FaultKind::kLinkDelay;
      event.replica = a;
      event.peer = b;
      event.delay_us =
          topo.MaxRttUs() + static_cast<SimTime>(geo.NextBelow(
                                static_cast<uint64_t>(topo.MaxRttUs()) + 1));
      event.at = options.fault_window_start +
                 static_cast<SimTime>(geo.NextBelow(static_cast<uint64_t>(
                     std::max<SimTime>(1, options.fault_window))));
      event.duration = 1 * kSecond + geo.NextBelow(2 * kSecond);
      schedule.push_back(event);
    }
  }
  std::sort(schedule.begin(), schedule.end(), TotalOrder);
  return schedule;
}

Bytes EncodeSchedule(const std::vector<FaultEvent>& schedule) {
  XdrWriter writer;
  writer.PutUint32(static_cast<uint32_t>(schedule.size()));
  for (const FaultEvent& event : schedule) {
    writer.PutUint64(static_cast<uint64_t>(event.at));
    writer.PutUint32(static_cast<uint32_t>(event.kind));
    writer.PutInt32(event.replica);
    writer.PutUint64(static_cast<uint64_t>(event.duration));
    writer.PutInt32(event.peer);
    writer.PutUint32(event.side_mask);
    writer.PutUint32(event.prob_ppm);
    writer.PutUint64(static_cast<uint64_t>(event.delay_us));
  }
  return writer.Take();
}

// --- Runner -----------------------------------------------------------------

namespace {

struct PlannedOp {
  HistoryOp::Kind kind = HistoryOp::Kind::kRead;
  int object = 0;
  std::string name;  // mkdir
  Bytes value;       // write (fixed-width: clean register semantics)
};

// Per-client deterministic op sequence. Write values are 8 fixed bytes
// (client, index) so every write is unique and fully overwrites the
// register; mkdir names are unique per run.
std::vector<PlannedOp> PlanWorkload(const ChaosOptions& options, int client) {
  Rng rng(options.seed ^ kWorkloadSalt ^
          (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(client + 1)));
  std::vector<PlannedOp> ops;
  for (int i = 0; i < options.ops_per_client; ++i) {
    PlannedOp op;
    const uint64_t roll = rng.NextBelow(10);
    op.object = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(std::max(1, options.files))));
    if (roll < 4) {
      op.kind = HistoryOp::Kind::kWrite;
      XdrWriter value;
      value.PutUint32(static_cast<uint32_t>(client));
      value.PutUint32(static_cast<uint32_t>(i));
      op.value = value.Take();
    } else if (roll < 8) {
      op.kind = HistoryOp::Kind::kRead;
    } else {
      op.kind = HistoryOp::Kind::kMkdir;
      op.name = "d" + std::to_string(client) + "_" + std::to_string(i);
    }
    ops.push_back(op);
  }
  return ops;
}

// Drives the concurrent clients through the simulation. Lives on the
// runner's stack; the simulation never runs after it is destroyed.
struct ChaosDriver {
  Simulation& sim;
  ServiceGroup& group;
  const ChaosOptions& options;
  SimTime start = 0;
  Oid dir = 0;
  std::vector<Oid> files = {};

  struct Worker {
    std::vector<PlannedOp> ops;
    size_t next = 0;
    int inflight_slot = -1;  // history index; -1 when idle
    NfsCall inflight_call;
    TimerId timeout_timer = 0;
    bool done = false;
  };
  std::vector<Worker> workers = {};
  std::vector<HistoryOp> history = {};
  int done_count = 0;

  SimTime RelNow() const { return sim.Now() - start; }

  void IssueNext(int w) {
    Worker& worker = workers[w];
    if (worker.next >= worker.ops.size()) {
      worker.done = true;
      ++done_count;
      return;
    }
    const PlannedOp& op = worker.ops[worker.next++];

    NfsCall call;
    HistoryOp h;
    h.kind = op.kind;
    h.client = w;
    h.object = op.object;
    h.pending = true;
    h.invoke_us = RelNow();
    switch (op.kind) {
      case HistoryOp::Kind::kWrite:
        call.proc = NfsProc::kWrite;
        call.oid = files[op.object];
        call.offset = 0;
        call.data = op.value;
        h.value = op.value;
        break;
      case HistoryOp::Kind::kRead:
        call.proc = NfsProc::kRead;
        call.oid = files[op.object];
        call.offset = 0;
        call.count = 4096;
        break;
      case HistoryOp::Kind::kMkdir:
        call.proc = NfsProc::kMkdir;
        call.oid = dir;
        call.name = op.name;
        call.attrs.mode = 0755;
        h.name = op.name;
        break;
    }
    history.push_back(std::move(h));
    const int slot = static_cast<int>(history.size()) - 1;
    worker.inflight_slot = slot;
    worker.inflight_call = call;

    // Reads go through the ordered protocol (read_only=false): the
    // read-only optimization's tentative reads are allowed to be reordered
    // around concurrent view changes, which is outside what a register
    // linearizability check should assert.
    group.client(w).Invoke(
        call.Encode(), /*read_only=*/false,
        [this, w, slot, proc = call.proc](Status status, Bytes result) {
          OnComplete(w, slot, proc, std::move(status), std::move(result));
        });
    worker.timeout_timer =
        sim.After(Simulation::kNoOwner, options.op_timeout,
                  [this, w, slot] { OnTimeout(w, slot); });
  }

  void OnComplete(int w, int slot, NfsProc proc, Status status, Bytes result) {
    Worker& worker = workers[w];
    if (worker.inflight_slot != slot) {
      return;  // already abandoned at the same instant
    }
    worker.inflight_slot = -1;
    if (worker.timeout_timer != 0) {
      sim.Cancel(worker.timeout_timer);
      worker.timeout_timer = 0;
    }
    HistoryOp& h = history[slot];
    h.pending = false;
    h.response_us = RelNow();

    if (!status.ok()) {
      h.rejected = true;
      ScheduleNext(w);
      return;
    }
    auto reply = NfsReply::Decode(proc, result);
    if (!reply.ok()) {
      h.rejected = true;
      ScheduleNext(w);
      return;
    }
    if (options.reply_tamper) {
      ChaosOptions::TamperContext ctx;
      ctx.client = w;
      ctx.now = RelNow();
      ctx.active_faults = ActiveFaults();
      ctx.call = &worker.inflight_call;
      options.reply_tamper(ctx, *reply);
    }
    if (reply->stat == NfsStat::kOk) {
      h.ok = true;
      if (h.kind == HistoryOp::Kind::kRead) {
        h.value = std::move(reply->data);
      }
    } else if (h.kind == HistoryOp::Kind::kMkdir &&
               reply->stat == NfsStat::kExist) {
      h.already_exists = true;
    } else {
      h.rejected = true;
    }
    ScheduleNext(w);
  }

  void OnTimeout(int w, int slot) {
    Worker& worker = workers[w];
    if (worker.inflight_slot != slot) {
      return;
    }
    worker.inflight_slot = -1;
    worker.timeout_timer = 0;
    group.client(w).Abandon();  // history[slot] stays pending
    ScheduleNext(w);
  }

  void ScheduleNext(int w) {
    sim.After(Simulation::kNoOwner, options.op_gap,
              [this, w] { IssueNext(w); });
  }

  // Post-horizon liveness probe: one extra write per client, recorded in the
  // same linearizability history. Its completion is the "some client op
  // commits after the last attack window" evidence the liveness judge needs
  // even when the main workload drained before the attacks ended.
  int probes_open = 0;
  void IssueProbe(int w) {
    Worker& worker = workers[w];
    NfsCall call;
    call.proc = NfsProc::kWrite;
    call.oid = files[0];
    call.offset = 0;
    XdrWriter value;
    value.PutUint32(0x70726f62u);  // "prob": disjoint from workload values
    value.PutUint32(static_cast<uint32_t>(w));
    call.data = value.Take();

    HistoryOp h;
    h.kind = HistoryOp::Kind::kWrite;
    h.client = w;
    h.object = 0;
    h.value = call.data;
    h.pending = true;
    h.invoke_us = RelNow();
    history.push_back(std::move(h));
    const int slot = static_cast<int>(history.size()) - 1;
    worker.inflight_slot = slot;
    worker.inflight_call = call;
    ++probes_open;
    group.client(w).Invoke(
        call.Encode(), /*read_only=*/false,
        [this, w, slot](Status status, Bytes result) {
          Worker& probe_worker = workers[w];
          if (probe_worker.inflight_slot != slot) {
            return;
          }
          probe_worker.inflight_slot = -1;
          if (probe_worker.timeout_timer != 0) {
            sim.Cancel(probe_worker.timeout_timer);
            probe_worker.timeout_timer = 0;
          }
          HistoryOp& op = history[slot];
          op.pending = false;
          op.response_us = RelNow();
          auto reply = NfsReply::Decode(NfsProc::kWrite, result);
          if (status.ok() && reply.ok() && reply->stat == NfsStat::kOk) {
            op.ok = true;
          } else {
            op.rejected = true;
          }
          --probes_open;
        });
    // A probe is given the full liveness bound: not completing within it is
    // exactly the failure the judge reports.
    worker.timeout_timer =
        sim.After(Simulation::kNoOwner,
                  std::max(options.op_timeout, options.liveness_bound),
                  [this, w, slot] {
                    Worker& probe_worker = workers[w];
                    if (probe_worker.inflight_slot != slot) {
                      return;
                    }
                    probe_worker.inflight_slot = -1;
                    probe_worker.timeout_timer = 0;
                    group.client(w).Abandon();  // history[slot] stays pending
                    --probes_open;
                  });
  }

  const std::vector<FaultEvent>* schedule = nullptr;
  int ActiveFaults() const {
    int active = 0;
    const SimTime now = RelNow();
    for (const FaultEvent& event : *schedule) {
      if (now >= event.at &&
          (event.duration == 0 || now < event.at + event.duration)) {
        ++active;
      }
    }
    return active;
  }
};

// The first directed link among nodes [0, nodes) whose delay differs from
// the topology's, described; "" when every link matches. A fault that leaks
// delay, or takes away the topology's, fails this once it has healed.
std::string TopologyMismatch(const Network& net, const Topology& topo,
                             int nodes) {
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = 0; b < nodes; ++b) {
      const SimTime delay = net.Delay(a, b);
      if (a != b && delay != topo.OneWayUs(a, b)) {
        return "link " + std::to_string(a) + "->" + std::to_string(b) +
               " delay " + std::to_string(delay) + " us, topology " +
               std::to_string(topo.OneWayUs(a, b)) + " us";
      }
    }
  }
  return "";
}

}  // namespace

ChaosRunResult RunChaosSchedule(const ChaosOptions& options,
                                const std::vector<FaultEvent>& schedule) {
  ChaosRunResult result;
  result.schedule = schedule;
  result.schedule_digest = Digest::Of(EncodeSchedule(schedule));

  bool has_adversary = false;
  for (const FaultEvent& event : schedule) {
    has_adversary = has_adversary || IsAdversaryKind(event.kind);
  }
  const bool judge =
      options.adversary || options.judge_liveness || has_adversary;

  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 16;
  params.config.log_window = 32;
  // Geo preset: derive RTT-aware protocol timeouts before the group is
  // built (client retry, view-change suspicion and the quality monitor all
  // read config.network_rtt_us), then program the levers once the network
  // exists below.
  Topology topo;
  const bool has_topology = !options.topology.empty() &&
                            TopologyFromName(options.topology, &topo);
  if (!options.topology.empty() && !has_topology) {
    LOG_ERROR << "chaos: unknown topology preset '" << options.topology << "'";
    return result;
  }
  if (has_topology) {
    params.config.network_rtt_us = topo.MaxRttUs();
  }
  // Against an active adversary the replicas run their defensive monitor
  // (slow-primary detection). Off otherwise so pinned witness digests of the
  // passive-fault seeds are untouched.
  params.config.primary_quality_monitor = judge;
  params.seed = options.seed;
  // Crash faults go through the real recovery path: volatile state is wiped
  // and the replica restarts from its durable checkpoint + WAL tail.
  params.durable_storage = true;
  auto group = MakeBasefsGroup(
      params,
      {FsVendor::kLinear, FsVendor::kTree, FsVendor::kLog, FsVendor::kLinear},
      256);
  Simulation& sim = group->sim();
  if (has_topology) {
    ApplyTopology(sim.network(), topo, params.config.node_count());
  }
  group->EnableTrace();
  InvariantAuditor& auditor = group->EnableAudit();
  // Replicas driven Byzantine (garbled replies) or silently corrupted hold
  // concrete state whose abstraction diverges from the agreed digests; the
  // auditor's invariants only bind correct replicas.
  for (const FaultEvent& event : schedule) {
    if (event.kind == FaultKind::kCorruptState ||
        event.kind == FaultKind::kByzantineReplies ||
        IsAdversaryKind(event.kind)) {
      auditor.MarkFaulty(event.replica);
    }
  }

  // Fault-free sequential setup through client 0: the shared directory and
  // the register files. Not part of the checked history; registers start
  // empty, matching the checker's initial value.
  ChaosDriver driver{sim, *group, options};
  {
    ReplicatedFsSession setup(group.get(), 0, 60 * kSecond);
    auto dir = setup.Mkdir(kRootOid, "chaos");
    if (!dir.ok()) {
      LOG_ERROR << "chaos: setup mkdir failed: " << dir.status().ToString();
      return result;
    }
    driver.dir = *dir;
    for (int i = 0; i < options.files; ++i) {
      auto file = setup.Create(*dir, "f" + std::to_string(i));
      if (!file.ok()) {
        LOG_ERROR << "chaos: setup create failed: "
                  << file.status().ToString();
        return result;
      }
      driver.files.push_back(*file);
    }
  }

  uint64_t view_changes_before = 0;
  uint64_t recoveries_before = 0;
  for (int r = 0; r < group->replica_count(); ++r) {
    view_changes_before += group->replica(r).view_changes_started();
    recoveries_before += group->replica(r).recoveries_completed();
  }

  driver.start = sim.Now();
  driver.schedule = &schedule;
  ArmFaultSchedule(*group, schedule);

  driver.workers.resize(options.clients);
  for (int w = 0; w < options.clients; ++w) {
    driver.workers[w].ops = PlanWorkload(options, w);
    // Staggered starts: concurrent, not lockstep.
    sim.After(Simulation::kNoOwner, (w + 1) * kMillisecond,
              [&driver, w] { driver.IssueNext(w); });
  }
  sim.RunUntilTrue([&] { return driver.done_count == options.clients; },
                   driver.start + options.drain_deadline);
  for (int w = 0; w < options.clients; ++w) {
    // Deadline overrun (should not happen: per-op timeouts bound the run):
    // abandon whatever is left so accounting stays consistent.
    if (driver.workers[w].inflight_slot >= 0) {
      group->client(w).Abandon();
      driver.workers[w].inflight_slot = -1;
    }
  }
  // Run through the full fault horizon even if the workload finished first:
  // late events must still arm (fuzzing the background protocol traffic —
  // heartbeats, checkpoints, recoveries) and every disarm timer must fire so
  // the run ends healed.
  SimTime horizon = 0;
  for (const FaultEvent& event : schedule) {
    horizon = std::max(horizon, event.at + event.duration);
  }
  sim.RunUntil(std::max(sim.Now(),
                        driver.start + horizon + 500 * kMillisecond));
  if (judge) {
    // Post-horizon progress evidence: one probe write per client, issued as
    // soon as the last attack window has closed (measuring availability, not
    // client idleness). They join the linearizability history and the
    // invoked/completed accounting.
    for (int w = 0; w < options.clients; ++w) {
      driver.IssueProbe(w);
    }
    sim.RunUntilTrue([&] { return driver.probes_open == 0; },
                     sim.Now() + options.op_timeout +
                         options.liveness_bound + kSecond);
    for (int w = 0; w < options.clients; ++w) {
      if (driver.workers[w].inflight_slot >= 0) {
        group->client(w).Abandon();
        driver.workers[w].inflight_slot = -1;
      }
    }
  }
  // Let in-flight recoveries and view changes settle so the auditor sees
  // the healed state and the trace digest covers the full run.
  sim.RunUntilTrue(
      [&] {
        for (int r = 0; r < group->replica_count(); ++r) {
          if (group->replica(r).recovering()) {
            return false;
          }
        }
        return true;
      },
      sim.Now() + 120 * kSecond);

  for (const HistoryOp& op : driver.history) {
    ++result.invoked;
    if (op.pending) {
      ++result.timeouts;
    } else if (op.ok) {
      ++result.completed;
    } else {
      ++result.rejected;  // includes mkdir "already exists"
    }
  }
  result.history_events =
      static_cast<uint64_t>(result.invoked) +
      static_cast<uint64_t>(result.invoked - result.timeouts);
  for (int r = 0; r < group->replica_count(); ++r) {
    result.view_changes += group->replica(r).view_changes_started();
    result.recoveries += group->replica(r).recoveries_completed();
  }
  result.view_changes -= view_changes_before;
  result.recoveries -= recoveries_before;
  result.invariant_violations = auditor.violation_count();
  if (!auditor.violations().empty()) {
    result.first_invariant_violation = auditor.violations().front();
  }
  result.verdict = CheckLinearizable(driver.history);
  if (has_topology) {
    // Every fault has healed by now, so each link must be back on the
    // topology's delay.
    result.topology_mismatch =
        TopologyMismatch(sim.network(), topo, params.config.node_count());
  }
  if (judge) {
    LivenessInputs inputs;
    inputs.per_client_last_ok.assign(static_cast<size_t>(options.clients), 0);
    std::vector<SimTime> ok_latencies;
    for (const HistoryOp& op : driver.history) {
      if (op.pending || !op.ok) {
        continue;
      }
      inputs.ok_completions.push_back(op.response_us);
      ok_latencies.push_back(op.response_us - op.invoke_us);
      if (op.client >= 0 && op.client < options.clients) {
        inputs.per_client_last_ok[op.client] =
            std::max(inputs.per_client_last_ok[op.client], op.response_us);
      }
    }
    std::sort(inputs.ok_completions.begin(), inputs.ok_completions.end());
    const LatencySummary latency = SummarizeLatencies(std::move(ok_latencies));
    result.liveness.p50_latency_us = latency.p50;
    result.liveness.p99_latency_us = latency.p99;
    result.liveness.p999_latency_us = latency.p999;
    // History times and event times are both relative to the workload start,
    // so the judge runs with scenario_start = 0.
    JudgeLiveness(schedule, 0, inputs, options.liveness_bound,
                  &result.liveness);
  }
  result.trace_digest = sim.trace().digest();
  result.trace_events = sim.trace().event_count();
  return result;
}

ChaosRunResult RunChaos(const ChaosOptions& options) {
  return RunChaosSchedule(options, PlanChaosSchedule(options));
}

// --- Shrinker ---------------------------------------------------------------

namespace {

std::vector<FaultEvent> Without(const std::vector<FaultEvent>& schedule,
                                size_t begin, size_t end) {
  std::vector<FaultEvent> out;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (i < begin || i >= end) {
      out.push_back(schedule[i]);
    }
  }
  return out;
}

}  // namespace

ShrinkOutcome ShrinkFailingSchedule(const ChaosOptions& options,
                                    std::vector<FaultEvent> schedule,
                                    int budget) {
  ShrinkOutcome outcome;
  outcome.result = RunChaosSchedule(options, schedule);
  ++outcome.runs;
  outcome.schedule = schedule;
  if (!outcome.result.Unacceptable()) {
    return outcome;  // nothing to shrink
  }

  // ddmin-style: remove chunks, halving the chunk size down to single
  // events; restart from the largest chunk after any successful removal.
  size_t chunk = std::max<size_t>(1, outcome.schedule.size() / 2);
  while (chunk >= 1 && outcome.runs < budget) {
    bool removed = false;
    for (size_t begin = 0;
         begin < outcome.schedule.size() && outcome.runs < budget;
         begin += chunk) {
      auto candidate =
          Without(outcome.schedule, begin,
                  std::min(begin + chunk, outcome.schedule.size()));
      if (candidate.empty()) {
        continue;
      }
      ChaosRunResult run = RunChaosSchedule(options, candidate);
      ++outcome.runs;
      if (run.Unacceptable()) {
        outcome.schedule = std::move(candidate);
        outcome.result = std::move(run);
        removed = true;
        break;
      }
    }
    if (removed) {
      chunk = std::max<size_t>(1, outcome.schedule.size() / 2);
    } else if (chunk == 1) {
      break;
    } else {
      chunk /= 2;
    }
  }

  // Duration halving on the survivors (shorter windows are easier to read
  // in a repro and to step through).
  for (size_t i = 0; i < outcome.schedule.size() && outcome.runs < budget;
       ++i) {
    while (outcome.schedule[i].duration > 200 * kMillisecond &&
           outcome.runs < budget) {
      auto candidate = outcome.schedule;
      candidate[i].duration /= 2;
      ChaosRunResult run = RunChaosSchedule(options, candidate);
      ++outcome.runs;
      if (!run.Unacceptable()) {
        break;
      }
      outcome.schedule = std::move(candidate);
      outcome.result = std::move(run);
    }
  }
  return outcome;
}

// --- Repro files ------------------------------------------------------------

std::string EncodeChaosRepro(const ChaosOptions& options,
                             const std::vector<FaultEvent>& schedule,
                             const ChaosRunResult& result) {
  std::ostringstream out;
  out << "# bftbase chaos repro (replay: bench_chaos --repro <this file>)\n";
  out << "# schedule digest: " << result.schedule_digest.Hex() << "\n";
  out << "# trace digest: " << result.trace_digest.Hex() << "\n";
  out << "# verdict: "
      << (result.Unacceptable() ? "FAILED" : "clean") << "\n";
  if (result.liveness.judged && !result.liveness.live) {
    out << "#   liveness: " << result.liveness.explanation << "\n";
  }
  if (!result.verdict.linearizable) {
    std::istringstream lines(result.verdict.explanation);
    std::string line;
    while (std::getline(lines, line)) {
      out << "#   " << line << "\n";
    }
  }
  if (result.invariant_violations > 0) {
    out << "#   invariant: " << result.first_invariant_violation << "\n";
  }
  if (!result.topology_mismatch.empty()) {
    out << "#   topology: " << result.topology_mismatch << "\n";
  }
  out << "seed " << options.seed << "\n";
  out << "clients " << options.clients << "\n";
  out << "ops-per-client " << options.ops_per_client << "\n";
  out << "files " << options.files << "\n";
  out << "op-gap-us " << options.op_gap << "\n";
  out << "op-timeout-us " << options.op_timeout << "\n";
  out << "fault-window-start-us " << options.fault_window_start << "\n";
  out << "fault-window-us " << options.fault_window << "\n";
  out << "drain-deadline-us " << options.drain_deadline << "\n";
  // Adversary keys only when non-default: repros of passive-fault runs keep
  // their pre-adversary byte format.
  if (options.adversary) {
    out << "adversary 1\n";
  }
  if (options.adversary_strategy >= 0) {
    out << "adversary-strategy " << options.adversary_strategy << "\n";
  }
  if (options.judge_liveness) {
    out << "judge-liveness 1\n";
  }
  if (options.liveness_bound != ChaosOptions().liveness_bound) {
    out << "liveness-bound-us " << options.liveness_bound << "\n";
  }
  if (!options.topology.empty()) {
    out << "topology " << options.topology << "\n";
  }
  for (const FaultEvent& event : schedule) {
    out << "event " << event.at << " " << FaultKindName(event.kind) << " "
        << event.replica << " " << event.duration << " " << event.peer << " "
        << event.side_mask << " " << event.prob_ppm << " " << event.delay_us
        << "\n";
  }
  return out.str();
}

bool DecodeChaosRepro(const std::string& text, ChaosOptions* options,
                      std::vector<FaultEvent>* schedule) {
  *options = ChaosOptions();
  schedule->clear();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "event") {
      FaultEvent event;
      std::string kind_name;
      long long at = 0, duration = 0, delay = 0;
      fields >> at >> kind_name >> event.replica >> duration >> event.peer >>
          event.side_mask >> event.prob_ppm >> delay;
      if (fields.fail() || !FaultKindFromName(kind_name, &event.kind)) {
        return false;
      }
      event.at = at;
      event.duration = duration;
      event.delay_us = delay;
      schedule->push_back(event);
      continue;
    }
    if (key == "topology") {
      // String-valued key: must not fall through to the numeric parse.
      fields >> options->topology;
      if (fields.fail()) {
        return false;
      }
      continue;
    }
    long long value = 0;
    fields >> value;
    if (fields.fail()) {
      return false;
    }
    if (key == "seed") {
      options->seed = static_cast<uint64_t>(value);
    } else if (key == "clients") {
      options->clients = static_cast<int>(value);
    } else if (key == "ops-per-client") {
      options->ops_per_client = static_cast<int>(value);
    } else if (key == "files") {
      options->files = static_cast<int>(value);
    } else if (key == "op-gap-us") {
      options->op_gap = value;
    } else if (key == "op-timeout-us") {
      options->op_timeout = value;
    } else if (key == "fault-window-start-us") {
      options->fault_window_start = value;
    } else if (key == "fault-window-us") {
      options->fault_window = value;
    } else if (key == "drain-deadline-us") {
      options->drain_deadline = value;
    } else if (key == "adversary") {
      options->adversary = value != 0;
    } else if (key == "adversary-strategy") {
      options->adversary_strategy = static_cast<int>(value);
    } else if (key == "judge-liveness") {
      options->judge_liveness = value != 0;
    } else if (key == "liveness-bound-us") {
      options->liveness_bound = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace bftbase
