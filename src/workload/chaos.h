// Deterministic chaos harness (experiment E12).
//
// From a single uint64_t seed the planner generates a composed fault
// schedule over the whole lever set — crash/restart, state corruption,
// Byzantine replies, daemon restarts, overlapping proactive recoveries,
// group-splitting partitions, drop-probability bursts, bounded message
// duplication and per-link extra delay — and the runner replays it against
// a heterogeneous BASEFS group while several concurrent clients issue
// reads, writes and mkdirs. Every client-visible invocation/response is
// recorded into a global history that a Wing & Gong-style linearizability
// checker validates against the abstract FS specification; the
// InvariantAuditor and the deterministic EventTrace run throughout. A
// failing schedule is shrunk (event removal + duration halving, re-running
// each candidate) to a minimal reproducing schedule and emitted as a
// self-contained text repro that `bench_chaos --repro <file>` replays.
//
// Everything is deterministic: same seed => byte-identical schedule,
// event-trace digest and checker verdict.
#ifndef SRC_WORKLOAD_CHAOS_H_
#define SRC_WORKLOAD_CHAOS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/service_group.h"
#include "src/basefs/abstract_spec.h"
#include "src/workload/fault_injector.h"

namespace bftbase {

// --- History ----------------------------------------------------------------

// One client-visible operation. The chaos op set is deliberately small
// (register-style writes and reads over a few files, plus mkdirs with
// unique names) so the linearizability search stays cheap while still
// exposing stale reads, lost updates and double execution.
struct HistoryOp {
  enum class Kind { kWrite, kRead, kMkdir };
  Kind kind = Kind::kRead;
  int client = 0;    // client slot index (not node id)
  int object = 0;    // file index; kMkdir targets the shared directory
  std::string name;  // kMkdir: entry name (unique per op)
  Bytes value;       // kWrite: value written; kRead: value returned
  bool ok = false;              // completed with NFS_OK
  bool already_exists = false;  // kMkdir completed with NFSERR_EXIST
  bool rejected = false;        // completed with any other error
  bool pending = false;         // no response (abandoned): effect unknown
  SimTime invoke_us = 0;
  SimTime response_us = 0;  // meaningful only when !pending
};

// --- Linearizability checker ------------------------------------------------

struct LinearizabilityVerdict {
  bool linearizable = true;
  std::string explanation;  // first violating object; empty when clean
  uint64_t states_explored = 0;
};

// Wing & Gong-style search. Exploits linearizability's locality: each file
// (a register) and the shared directory are independent objects, so the
// history is linearizable iff every per-object subhistory is. Pending ops
// may linearize anywhere after their invocation or never; completed reads
// must observe the abstract register value at their linearization point.
LinearizabilityVerdict CheckLinearizable(const std::vector<HistoryOp>& history);

// --- Planner ----------------------------------------------------------------

struct ChaosOptions {
  uint64_t seed = 1;
  int clients = 3;         // concurrent clients (each one BFT client slot)
  int ops_per_client = 10;
  int files = 4;           // register objects
  SimTime op_gap = 50 * kMillisecond;   // per-client think time
  SimTime op_timeout = 2 * kSecond;     // per-op; expired ops are abandoned
  // Fault events land in [fault_window_start, fault_window_start +
  // fault_window) relative to workload start; every event disarms within
  // its bounded duration, so the run always heals.
  SimTime fault_window_start = 200 * kMillisecond;
  SimTime fault_window = 1500 * kMillisecond;
  int min_events = 3;
  int max_events = 8;
  SimTime drain_deadline = 300 * kSecond;  // virtual-time cap on the run

  // Active adversary mode: the planner appends 2-4 adversary strategy events
  // (PlanAdversaryEvents, same seed-chosen victim as the passive Byzantine
  // kinds), the runner enables the replicas' primary quality monitor, and the
  // run is additionally judged for liveness (bounded time-to-commit after
  // every attack window, per-client post-horizon probes). Off by default so
  // pinned witness digests are untouched.
  bool adversary = false;
  int adversary_strategy = -1;  // -1 = mixed; else an AdversaryStrategy value
  bool judge_liveness = false;  // judged anyway when adversary events exist
  // Above the worst legitimate recovery tail: a proactive recovery
  // overlapping a crash window takes 2 of 4 replicas out together, and
  // commits resume only once the crashed replica rejoins and the recovery
  // drains — tens of seconds of virtual time in the worst schedules.
  SimTime liveness_bound = 60 * kSecond;

  // Geo topology preset name (src/sim/topology.h); "" = LAN, the seed
  // behavior. When set, the runner programs the preset's latency matrix and
  // per-link jitter onto the group's network and derives RTT-aware protocol
  // timeouts (config.network_rtt_us), and the planner appends topology-aware
  // events from an independent salted stream — partition one whole region
  // away, slow one inter-region link. Schedules and digests of existing
  // seeds are byte-identical when unset.
  std::string topology;

  // Test-only hook: tampers with a completed reply before it is recorded in
  // the history (models a buggy relay between the replication library and
  // the client). Returns true when it modified the reply. Lets tests inject
  // a safety bug and prove the checker + shrinker detect and minimize it.
  // Never set by shipped harnesses.
  struct TamperContext {
    int client = 0;
    SimTime now = 0;          // relative to workload start
    int active_faults = 0;    // schedule events whose window covers `now`
    const NfsCall* call = nullptr;
  };
  std::function<bool(const TamperContext&, NfsReply&)> reply_tamper;
};

// Deterministically expands `options.seed` into a composed fault schedule,
// sorted by arming time.
std::vector<FaultEvent> PlanChaosSchedule(const ChaosOptions& options);

// Canonical byte encoding of a schedule (the digest of which is part of the
// determinism contract: same seed => byte-identical schedule).
Bytes EncodeSchedule(const std::vector<FaultEvent>& schedule);

// --- Runner -----------------------------------------------------------------

struct ChaosRunResult {
  std::vector<FaultEvent> schedule;
  int invoked = 0;
  int completed = 0;  // ops with NFS_OK results
  int timeouts = 0;   // abandoned ops (effect unknown)
  int rejected = 0;   // completed with an error result
  uint64_t view_changes = 0;
  uint64_t recoveries = 0;
  uint64_t invariant_violations = 0;
  std::string first_invariant_violation;
  LinearizabilityVerdict verdict;
  Digest trace_digest;
  uint64_t trace_events = 0;
  Digest schedule_digest;
  uint64_t history_events = 0;  // recorded invocations + responses
  LivenessVerdict liveness;     // judged only in adversary/judge mode
  // Runs with a topology only: the first directed link whose delay differs
  // from the topology's once every fault has healed ("" when all match).
  std::string topology_mismatch;

  // Safety failure: a linearizability violation or an invariant-auditor
  // violation. Timeouts are unavailability, not failure.
  bool Failed() const {
    return !verdict.linearizable || invariant_violations > 0;
  }
  // Safety failure, a judged liveness failure, or a run that did not end on
  // its topology: the shrinker's predicate, so minimal repros exist for
  // stalls and leaked link delays too.
  bool Unacceptable() const {
    return Failed() || (liveness.judged && !liveness.live) ||
           !topology_mismatch.empty();
  }
};

// Plans the schedule from options.seed, then runs it.
ChaosRunResult RunChaos(const ChaosOptions& options);
// Runs an explicit schedule (replays, shrink candidates, repros). The group,
// clients and workload still derive from options.seed.
ChaosRunResult RunChaosSchedule(const ChaosOptions& options,
                                const std::vector<FaultEvent>& schedule);

// --- Shrinker ---------------------------------------------------------------

struct ShrinkOutcome {
  std::vector<FaultEvent> schedule;  // minimal failing schedule found
  ChaosRunResult result;             // outcome of its final (failing) run
  int runs = 0;                      // replays spent shrinking
};

// Minimizes a failing schedule: ddmin-style chunk removal down to single
// events, then duration halving, re-running each candidate and keeping it
// only while the failure reproduces. `budget` caps the number of replays.
ShrinkOutcome ShrinkFailingSchedule(const ChaosOptions& options,
                                    std::vector<FaultEvent> schedule,
                                    int budget = 64);

// --- Repro files ------------------------------------------------------------

// Self-contained text repro: options, schedule, and (as comments) the trace
// digest and verdict of the failing run.
std::string EncodeChaosRepro(const ChaosOptions& options,
                             const std::vector<FaultEvent>& schedule,
                             const ChaosRunResult& result);
// Parses a repro produced by EncodeChaosRepro. False on malformed input.
bool DecodeChaosRepro(const std::string& text, ChaosOptions* options,
                      std::vector<FaultEvent>* schedule);

}  // namespace bftbase

#endif  // SRC_WORKLOAD_CHAOS_H_
