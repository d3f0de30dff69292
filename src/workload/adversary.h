// Active Byzantine adversary engine.
//
// Unlike the passive faults in fault_injector.h (crashes, link faults,
// garbled replies), these strategies drive a compromised replica through the
// *real* protocol stack: it signs with its own key, speaks well-formed
// messages, and attacks through what the protocol permits — conflicting
// proposals, selective silence, calculated slowness, vote spam, and lying
// checkpoint/state-transfer answers. Under the MAC trust model the adversary
// can never forge another principal's authenticator, so every strategy here
// is something a single compromised replica (f = 1) can actually do; the
// correct replicas must stay safe (linearizable, invariant-clean) AND live
// (bounded time-to-commit after every attack window — the LivenessVerdict).
//
// The strategies integrate with the chaos harness as FaultKinds (they
// schedule, shrink and round-trip through repro files like any other fault)
// and with hand-written scenarios through ArmFaultSchedule.
#ifndef SRC_WORKLOAD_ADVERSARY_H_
#define SRC_WORKLOAD_ADVERSARY_H_

#include <string>
#include <vector>

#include "src/base/service_group.h"
#include "src/workload/fault_injector.h"

namespace bftbase {

// The strategy catalog, aligned with the adversary FaultKinds. Used by the
// --strategy flag of bench_chaos / bench_byzantine and by the chaos planner
// when an adversary schedule pins one strategy instead of mixing.
enum class AdversaryStrategy {
  kEquivocate = 0,
  kSelectiveSuppress,
  kSlowPrimary,
  kViewChangeSpam,
  kCheckpointLie,
};
inline constexpr int kAdversaryStrategyCount = 5;

const char* AdversaryStrategyName(AdversaryStrategy strategy);
// Inverse of AdversaryStrategyName; false on unknown names.
bool AdversaryStrategyFromName(const std::string& name,
                               AdversaryStrategy* out);
// The FaultKind an armed strategy schedules as.
FaultKind StrategyKind(AdversaryStrategy strategy);

// Plans `count` adversary events for the single Byzantine victim inside
// [window_start, window_start + window). `strategy` pins one strategy for
// every event; -1 mixes them (seed-derived). Deterministic: same arguments,
// same events. Events are NOT sorted — the caller merges them into its
// schedule and sorts with its own total order.
std::vector<FaultEvent> PlanAdversaryEvents(uint64_t seed, int n_replicas,
                                            int victim, SimTime window_start,
                                            SimTime window, int strategy,
                                            int count);

// Drivers for the strategies that need an active message source rather than
// a replica/network hook. Called by ArmFaultSchedule at the event's firing
// time; both bound their activity to the event's duration.
//
// View-change spam: the victim floods signed VIEW-CHANGE messages — stale
// (target == receivers' view), far-future (beyond config.view_change_horizon,
// exercising the bounded vote table), and bogus-proof (non-genesis stable_seq
// with no checkpoint proof, which validation must reject).
void ArmViewChangeSpam(ServiceGroup& group, const FaultEvent& event);
// Checkpoint/state-transfer lying: the victim multicasts signed CHECKPOINT
// votes with fabricated digests for future sequence numbers, and serves
// poisoned partition values to fetchers (StateTransfer::SetPoisonServing) —
// the digest-verified fetch path must reject them and rotate sources.
void ArmCheckpointLie(ServiceGroup& group, const FaultEvent& event);

// Inputs for the liveness verdict: all successful commit completion times
// (ascending) plus each client's last successful completion (0 = none).
struct LivenessInputs {
  std::vector<SimTime> ok_completions;
  std::vector<SimTime> per_client_last_ok;
};

// Judges liveness against a fault schedule: after every attack window
// ([at, at+duration], absolute from `scenario_start`) some client operation
// must commit within `bound`, and every client must have progressed past the
// last window's end. Fills verdict->{judged, live, explanation,
// max_window_recovery_us, stalled_clients}; leaves the latency percentiles
// to the caller.
void JudgeLiveness(const std::vector<FaultEvent>& schedule,
                   SimTime scenario_start, const LivenessInputs& inputs,
                   SimTime bound, LivenessVerdict* verdict);

}  // namespace bftbase

#endif  // SRC_WORKLOAD_ADVERSARY_H_
