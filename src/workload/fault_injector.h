// Fault-injection scenario runner (experiment E7; the paper's §4 names
// fault-injection experiments as the important next step for evaluating the
// availability improvements).
//
// Runs a stream of file-service operations against a replicated group while
// injecting scheduled faults, and reports availability (success ratio),
// latency impact and protocol reactions (view changes, recoveries).
#ifndef SRC_WORKLOAD_FAULT_INJECTOR_H_
#define SRC_WORKLOAD_FAULT_INJECTOR_H_

#include <string>
#include <vector>

#include "src/base/service_group.h"
#include "src/basefs/fs_session.h"

namespace bftbase {

enum class FaultKind {
  kCrashRestart,      // isolate the replica, heal after `duration`
  kCorruptState,      // corrupt one concrete object below the wrapper
  kByzantineReplies,  // garble execution results for `duration`
  kDaemonRestart,     // restart the wrapped daemon (volatile handles)
  kProactiveRecovery, // trigger a recovery by hand
  // Network-level adversities, schedulable by the chaos harness and by
  // hand-written E7 scenarios alike.
  kPartition,         // split replicas into two sides (side_mask) for `duration`
  kDropBurst,         // global drop probability `prob_ppm` for `duration`
  kDuplicate,         // duplicate deliveries with `prob_ppm` for `duration`
  kLinkDelay,         // extra `delay_us` on link {replica, peer} for `duration`,
                      // added to the link's delay and taken back on heal
  // Active Byzantine adversary strategies (src/workload/adversary.{h,cc}):
  // the compromised replica speaks the real protocol maliciously. All of
  // them count toward the f budget and must target the schedule's single
  // Byzantine victim.
  kEquivocate,        // conflicting PRE-PREPAREs to the side_mask subset
  kSelectiveSuppress, // drop (prob_ppm) or delay (delay_us) victim->peer
                      // traffic for peers in side_mask, without a partition
  kSlowPrimary,       // hold every proposal back by delay_us (just under the
                      // view-change timeout: live but crawling)
  kViewChangeSpam,    // flood stale / far-future / bogus VIEW-CHANGEs
  kCheckpointLie,     // bogus CHECKPOINT digests + poisoned state transfer
};

// First adversary kind (the chaos planner draws adversary strategies from
// [kFirstAdversaryKind, kFaultKindCount)).
inline constexpr int kFirstAdversaryKind =
    static_cast<int>(FaultKind::kEquivocate);
inline constexpr int kFaultKindCount =
    static_cast<int>(FaultKind::kCheckpointLie) + 1;
// True for the actively-Byzantine kinds above: the victim must be excluded
// from the invariant auditor (everything it says is suspect).
bool IsAdversaryKind(FaultKind kind);

const char* FaultKindName(FaultKind kind);
// Inverse of FaultKindName (repro-file parsing). False on unknown names.
bool FaultKindFromName(const std::string& name, FaultKind* out);

struct FaultEvent {
  SimTime at = 0;  // virtual time relative to scenario start
  FaultKind kind = FaultKind::kCrashRestart;
  int replica = 0;
  SimTime duration = 0;  // how long the fault stays armed
  // Extended targets/parameters for the network-level kinds. Probabilities
  // are stored in parts-per-million so schedules round-trip through text
  // repro files exactly.
  int peer = -1;           // kLinkDelay: other link endpoint
  uint32_t side_mask = 0;  // kPartition: bit r set => replica r on side A
  uint32_t prob_ppm = 0;   // kDropBurst/kDuplicate
  SimTime delay_us = 0;    // kLinkDelay: extra one-way delay

  double probability() const { return prob_ppm / 1e6; }

  static FaultEvent Partition(SimTime at, uint32_t side_mask,
                              SimTime duration);
  static FaultEvent DropBurst(SimTime at, double probability,
                              SimTime duration);
  static FaultEvent Duplicate(SimTime at, double probability,
                              SimTime duration);
  static FaultEvent LinkDelay(SimTime at, int a, int b, SimTime extra_us,
                              SimTime duration);
  // Active adversary strategies (see adversary.h for the drivers).
  static FaultEvent Equivocate(SimTime at, int replica, uint32_t target_mask,
                               SimTime duration);
  static FaultEvent SelectiveSuppress(SimTime at, int replica,
                                      uint32_t peer_mask, double probability,
                                      SimTime extra_delay_us,
                                      SimTime duration);
  static FaultEvent SlowPrimary(SimTime at, int replica, SimTime delay_us,
                                SimTime duration);
  static FaultEvent ViewChangeSpam(SimTime at, int replica, SimTime duration);
  static FaultEvent CheckpointLie(SimTime at, int replica, SimTime duration);
};

// Arms every event in `schedule` on the group's simulation, relative to the
// current virtual time. Crash/partition/burst events disarm themselves after
// their duration. Shared by RunFaultScenario and the chaos harness.
void ArmFaultSchedule(ServiceGroup& group,
                      const std::vector<FaultEvent>& schedule);

struct FaultScenarioConfig {
  std::vector<FaultEvent> schedule;
  int operations = 100;           // ops issued by the foreground client
  SimTime op_gap = 50 * kMillisecond;
  SimTime op_timeout = 120 * kSecond;
  uint64_t seed = 1;
  // When set, the runner judges liveness: it runs to the schedule horizon,
  // issues `liveness_probes` extra probe ops (counted in the result), and
  // requires a successful commit within `liveness_bound` after every attack
  // window. Off by default so pre-existing scenarios keep their op counts.
  bool judge_liveness = false;
  SimTime liveness_bound = 30 * kSecond;
  int liveness_probes = 3;
};

// Liveness verdict for a scenario run under attack: safety (linearizability,
// invariants) says nothing about a group that commits nothing, so attack
// scenarios additionally assert bounded progress. `judged` is false when the
// run never evaluated liveness (then `live` stays true vacuously).
struct LivenessVerdict {
  bool judged = false;
  bool live = true;
  std::string explanation;
  // Worst observed time from the end of an attack window to the next
  // committed client operation (the "bounded virtual-time-to-commit after
  // each attack window" criterion).
  SimTime max_window_recovery_us = 0;
  // Clients that made no progress at all after the last attack window.
  int stalled_clients = 0;
  // Latency distribution of successful operations across the whole run
  // (nearest-rank, src/util/percentile.h).
  SimTime p50_latency_us = 0;
  SimTime p99_latency_us = 0;
  SimTime p999_latency_us = 0;
};

struct FaultScenarioResult {
  int attempted = 0;
  int succeeded = 0;   // completed with the oracle-correct result
  // Failure accounting, split so reports can distinguish unavailability
  // (timeouts) from incorrectness (wrong_results) and explicit errors
  // (rejected).
  int timeouts = 0;       // never completed within the op timeout
  int rejected = 0;       // completed with an error status
  int wrong_results = 0;  // completed "successfully" but contradicting the oracle
  SimTime mean_latency_us = 0;
  SimTime max_latency_us = 0;
  uint64_t view_changes = 0;
  uint64_t recoveries = 0;
  LivenessVerdict liveness;
  double Availability() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(succeeded) / attempted;
  }
};

// Runs the scenario. The foreground load is a mixed read/write stream over
// a small file set, checked against an in-memory oracle so that a wrong
// (but "successful") reply is detected.
FaultScenarioResult RunFaultScenario(ServiceGroup& group, FsSession& fs,
                                     const FaultScenarioConfig& config);

}  // namespace bftbase

#endif  // SRC_WORKLOAD_FAULT_INJECTOR_H_
