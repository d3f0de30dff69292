// Experiment E17 — active Byzantine adversary strategies vs the real group.
//
// For each strategy in src/workload/adversary.h the compromised replica
// (here: the initial primary, the worst case) drives a sustained attack
// window through the real protocol stack while a foreground client stream
// runs against an oracle. Reported per strategy: availability, latency
// degradation vs the fault-free baseline (mean / p50 / p99), protocol
// reactions (view changes — split out: quality-monitor deposals), and the
// liveness verdict (bounded time-to-commit after the attack window).
//
// The slow-primary strategy is additionally run with the primary quality
// monitor disabled: it must degrade p99 by an order of magnitude without the
// monitor and lose (get deposed, latency recovered) with it.
//
//   bench_byzantine [--strategy NAME] [--json FILE]
//
// Default JSON artifact: BENCH_byzantine.json (metadata.adversary records
// the strategy set driven).
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/util/log.h"
#include "src/workload/adversary.h"

using namespace bftbase;

namespace {

// The attack window: starts after the group settles, covers most of the
// 120-op foreground stream (~6s of virtual time at 50ms gaps).
constexpr SimTime kAttackStart = 500 * kMillisecond;
constexpr SimTime kAttackDuration = 10 * kSecond;
constexpr int kVictim = 0;  // the initial primary: worst-case compromise

struct StrategyOutcome {
  std::string name;
  FaultScenarioResult result;
  uint64_t quality_view_changes = 0;
};

FaultEvent AttackEvent(AdversaryStrategy strategy) {
  switch (strategy) {
    case AdversaryStrategy::kEquivocate:
      // Conflicting PRE-PREPAREs: replicas 1,2 get the evil wire, replica 3
      // the honest one.
      return FaultEvent::Equivocate(kAttackStart, kVictim, /*target_mask=*/0b0110,
                                    kAttackDuration);
    case AdversaryStrategy::kSelectiveSuppress:
      // Drop 75% of victim->{1,2} traffic without any partition.
      return FaultEvent::SelectiveSuppress(kAttackStart, kVictim,
                                           /*peer_mask=*/0b0110,
                                           /*probability=*/0.75,
                                           /*extra_delay_us=*/0,
                                           kAttackDuration);
    case AdversaryStrategy::kSlowPrimary:
      // 400ms proposal delay: just under the 500ms view-change timeout, so
      // the plain timer never fires — live but crawling.
      return FaultEvent::SlowPrimary(kAttackStart, kVictim,
                                     /*delay_us=*/400 * kMillisecond,
                                     kAttackDuration);
    case AdversaryStrategy::kViewChangeSpam:
      return FaultEvent::ViewChangeSpam(kAttackStart, kVictim, kAttackDuration);
    case AdversaryStrategy::kCheckpointLie:
      return FaultEvent::CheckpointLie(kAttackStart, kVictim, kAttackDuration);
  }
  return FaultEvent{};
}

// One scenario run: heterogeneous BASEFS group, 120 foreground ops against
// the oracle, liveness judged. `monitor` toggles the primary quality monitor
// (on everywhere except the slow-primary ablation row).
StrategyOutcome RunOne(const std::string& name,
                       std::vector<FaultEvent> schedule, uint64_t seed,
                       bool monitor) {
  auto params = StandardParams(seed);
  params.config.checkpoint_interval = 32;
  params.config.log_window = 64;
  // Fast client retransmissions: backups learn of pending requests ~100ms
  // after the client sends them, so the monitor's request-to-commit samples
  // reflect the primary's real proposal delay.
  params.config.client_retry_timeout = 100 * kMillisecond;
  params.config.primary_quality_monitor = monitor;
  auto group = MakeBasefsGroup(
      params,
      {FsVendor::kLinear, FsVendor::kTree, FsVendor::kLog, FsVendor::kLinear},
      512);
  ReplicatedFsSession fs(group.get(), 0, 300 * kSecond);
  FaultScenarioConfig config;
  config.schedule = std::move(schedule);
  config.operations = 120;
  config.op_gap = 50 * kMillisecond;
  config.seed = seed;
  config.judge_liveness = true;
  StrategyOutcome outcome;
  outcome.name = name;
  outcome.result = RunFaultScenario(*group, fs, config);
  for (int r = 0; r < group->replica_count(); ++r) {
    outcome.quality_view_changes += group->replica(r).quality_view_changes();
  }
  return outcome;
}

void AddRow(Table& table, const StrategyOutcome& o,
            const FaultScenarioResult& baseline) {
  const FaultScenarioResult& r = o.result;
  double degradation =
      baseline.liveness.p99_latency_us > 0
          ? static_cast<double>(r.liveness.p99_latency_us) /
                static_cast<double>(baseline.liveness.p99_latency_us)
          : 0.0;
  table.AddRow({o.name,
                FormatPercent(r.Availability()),
                FormatUs(r.mean_latency_us),
                FormatUs(r.liveness.p50_latency_us),
                FormatUs(r.liveness.p99_latency_us),
                FormatRatio(degradation),
                FormatCount(r.view_changes),
                FormatCount(o.quality_view_changes),
                r.liveness.live ? "live" : "STALLED",
                FormatMs(r.liveness.max_window_recovery_us),
                r.wrong_results > 0
                    ? std::to_string(r.wrong_results) + " (BUG!)"
                    : "0"});
}

void EmitOutcome(JsonWriter& json, const StrategyOutcome& o,
                 const FaultScenarioResult& baseline) {
  const FaultScenarioResult& r = o.result;
  json.BeginObject();
  json.Field("strategy", o.name);
  json.Field("availability", r.Availability());
  json.Field("attempted", r.attempted);
  json.Field("succeeded", r.succeeded);
  json.Field("timeouts", r.timeouts);
  json.Field("wrong_results", r.wrong_results);
  json.Field("mean_latency_us", static_cast<int64_t>(r.mean_latency_us));
  json.Field("p50_latency_us",
             static_cast<int64_t>(r.liveness.p50_latency_us));
  json.Field("p99_latency_us",
             static_cast<int64_t>(r.liveness.p99_latency_us));
  if (baseline.liveness.p99_latency_us > 0) {
    json.Field("p99_degradation",
               static_cast<double>(r.liveness.p99_latency_us) /
                   static_cast<double>(baseline.liveness.p99_latency_us));
  }
  json.Field("view_changes", r.view_changes);
  json.Field("quality_view_changes", o.quality_view_changes);
  json.Field("recoveries", r.recoveries);
  json.Field("live", r.liveness.live);
  json.Field("max_window_recovery_us",
             static_cast<int64_t>(r.liveness.max_window_recovery_us));
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  int only_strategy = -1;
  std::string json_path = "BENCH_byzantine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      AdversaryStrategy strategy;
      if (!AdversaryStrategyFromName(argv[++i], &strategy)) {
        std::fprintf(stderr, "unknown strategy %s\n", argv[i]);
        return 2;
      }
      only_strategy = static_cast<int>(strategy);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--strategy NAME] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  PrintHeader(
      "E17: active Byzantine adversary (compromised primary, 120 ops each)");
  Table table({"strategy", "availability", "mean (us)", "p50 (us)", "p99 (us)",
               "p99 vs base", "view chg", "quality vc", "liveness",
               "worst recovery (ms)", "wrong results"});

  StrategyOutcome baseline = RunOne("fault-free baseline", {}, 700,
                                    /*monitor=*/true);
  AddRow(table, baseline, baseline.result);

  std::vector<StrategyOutcome> outcomes;
  for (int s = 0; s < kAdversaryStrategyCount; ++s) {
    if (only_strategy >= 0 && s != only_strategy) {
      continue;
    }
    AdversaryStrategy strategy = static_cast<AdversaryStrategy>(s);
    outcomes.push_back(RunOne(AdversaryStrategyName(strategy),
                              {AttackEvent(strategy)},
                              701 + static_cast<uint64_t>(s),
                              /*monitor=*/true));
    AddRow(table, outcomes.back(), baseline.result);
  }

  // The monitor ablation: the slow-primary attack must beat the undefended
  // system (crawling p99, zero view changes) and lose to the defended one
  // (deposed, latency recovered).
  StrategyOutcome slow_undefended;
  bool ran_ablation = only_strategy < 0 ||
                      only_strategy ==
                          static_cast<int>(AdversaryStrategy::kSlowPrimary);
  if (ran_ablation) {
    slow_undefended =
        RunOne("slow-primary (monitor off)",
               {AttackEvent(AdversaryStrategy::kSlowPrimary)}, 710,
               /*monitor=*/false);
    AddRow(table, slow_undefended, baseline.result);
  }

  table.Print();
  std::printf(
      "\nexpected shape: availability ~100%% and a live verdict for every\n"
      "strategy; slow-primary with the monitor off degrades p99 to the\n"
      "proposal-delay floor with zero view changes, while the monitored\n"
      "group deposes the crawling primary (quality vc > 0) and recovers.\n");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "byzantine");
  json.Key("baseline");
  EmitOutcome(json, baseline, baseline.result);
  json.Key("strategies");
  json.BeginArray();
  for (const StrategyOutcome& o : outcomes) {
    EmitOutcome(json, o, baseline.result);
  }
  json.EndArray();
  if (ran_ablation) {
    json.Key("slow_primary_monitor_off");
    EmitOutcome(json, slow_undefended, baseline.result);
  }
  const char* adversary_meta =
      only_strategy < 0
          ? "mixed"
          : AdversaryStrategyName(static_cast<AdversaryStrategy>(only_strategy));
  EmitBenchMetadata(json, adversary_meta);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("JSON written to %s\n", json_path.c_str());

  // Self-check (this bench doubles as the E17 regression): every strategy
  // must stay correct and live; the monitor must depose the slow primary and
  // the undefended run must show the degradation the monitor prevents.
  int failures = 0;
  for (const StrategyOutcome& o : outcomes) {
    if (o.result.wrong_results > 0 || !o.result.liveness.live) {
      std::fprintf(stderr, "FAIL: %s wrong=%d live=%d\n", o.name.c_str(),
                   o.result.wrong_results, o.result.liveness.live);
      ++failures;
    }
    if (o.name == "slow-primary" && o.quality_view_changes == 0) {
      std::fprintf(stderr,
                   "FAIL: monitor never deposed the slow primary\n");
      ++failures;
    }
  }
  if (ran_ablation) {
    if (slow_undefended.result.view_changes != 0) {
      std::fprintf(stderr,
                   "FAIL: undefended slow primary was deposed anyway "
                   "(%llu view changes)\n",
                   static_cast<unsigned long long>(
                       slow_undefended.result.view_changes));
      ++failures;
    }
    if (slow_undefended.result.liveness.p99_latency_us <
        4 * baseline.result.liveness.p99_latency_us) {
      std::fprintf(stderr,
                   "FAIL: slow primary without monitor should degrade p99 "
                   ">=4x (got %lld vs baseline %lld)\n",
                   static_cast<long long>(
                       slow_undefended.result.liveness.p99_latency_us),
                   static_cast<long long>(
                       baseline.result.liveness.p99_latency_us));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
