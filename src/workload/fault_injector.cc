#include "src/workload/fault_injector.h"

#include <algorithm>
#include <map>

#include "src/basefs/conformance_wrapper.h"
#include "src/sim/network.h"
#include "src/util/log.h"
#include "src/util/percentile.h"
#include "src/util/rng.h"
#include "src/workload/adversary.h"

namespace bftbase {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashRestart:
      return "crash+restart";
    case FaultKind::kCorruptState:
      return "state-corruption";
    case FaultKind::kByzantineReplies:
      return "byzantine-replies";
    case FaultKind::kDaemonRestart:
      return "daemon-restart";
    case FaultKind::kProactiveRecovery:
      return "proactive-recovery";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kDropBurst:
      return "drop-burst";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kLinkDelay:
      return "link-delay";
    case FaultKind::kEquivocate:
      return "equivocate";
    case FaultKind::kSelectiveSuppress:
      return "selective-suppress";
    case FaultKind::kSlowPrimary:
      return "slow-primary";
    case FaultKind::kViewChangeSpam:
      return "view-change-spam";
    case FaultKind::kCheckpointLie:
      return "checkpoint-lie";
  }
  return "unknown";
}

bool FaultKindFromName(const std::string& name, FaultKind* out) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    FaultKind kind = static_cast<FaultKind>(k);
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool IsAdversaryKind(FaultKind kind) {
  return static_cast<int>(kind) >= kFirstAdversaryKind;
}

namespace {

uint32_t ToPpm(double probability) {
  if (probability <= 0.0) {
    return 0;
  }
  if (probability >= 1.0) {
    return 1000000;
  }
  return static_cast<uint32_t>(probability * 1e6 + 0.5);
}

}  // namespace

FaultEvent FaultEvent::Partition(SimTime at, uint32_t side_mask,
                                 SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kPartition;
  event.side_mask = side_mask;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::DropBurst(SimTime at, double probability,
                                 SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kDropBurst;
  event.prob_ppm = ToPpm(probability);
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::Duplicate(SimTime at, double probability,
                                 SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kDuplicate;
  event.prob_ppm = ToPpm(probability);
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::LinkDelay(SimTime at, int a, int b, SimTime extra_us,
                                 SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kLinkDelay;
  event.replica = a;
  event.peer = b;
  event.delay_us = extra_us;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::Equivocate(SimTime at, int replica,
                                  uint32_t target_mask, SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kEquivocate;
  event.replica = replica;
  event.side_mask = target_mask;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::SelectiveSuppress(SimTime at, int replica,
                                         uint32_t peer_mask,
                                         double probability,
                                         SimTime extra_delay_us,
                                         SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kSelectiveSuppress;
  event.replica = replica;
  event.side_mask = peer_mask;
  event.prob_ppm = ToPpm(probability);
  event.delay_us = extra_delay_us;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::SlowPrimary(SimTime at, int replica, SimTime delay_us,
                                   SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kSlowPrimary;
  event.replica = replica;
  event.delay_us = delay_us;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::ViewChangeSpam(SimTime at, int replica,
                                      SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kViewChangeSpam;
  event.replica = replica;
  event.duration = duration;
  return event;
}

FaultEvent FaultEvent::CheckpointLie(SimTime at, int replica,
                                     SimTime duration) {
  FaultEvent event;
  event.at = at;
  event.kind = FaultKind::kCheckpointLie;
  event.replica = replica;
  event.duration = duration;
  return event;
}

void ArmFaultSchedule(ServiceGroup& group,
                      const std::vector<FaultEvent>& schedule) {
  Simulation& sim = group.sim();
  for (const FaultEvent& event : schedule) {
    sim.After(Simulation::kNoOwner, event.at, [&group, &sim, event] {
      LOG_INFO << "fault injector: " << FaultKindName(event.kind)
               << " at replica " << event.replica;
      switch (event.kind) {
        case FaultKind::kCrashRestart:
          sim.network().Isolate(event.replica);
          if (group.durable()) {
            // Real crash: volatile state dies; restart reloads the durable
            // checkpoint and replays the WAL. The storage fault is shaped
            // deterministically from the event itself (no RNG draws, so the
            // shrinker can replay any subset of a schedule bit-identically):
            // one third of crashes land clean, one third tear the final
            // record, one third duplicate it.
            {
              uint64_t mix =
                  static_cast<uint64_t>(event.at) * 0x9e3779b97f4a7c15ULL +
                  static_cast<uint64_t>(event.replica);
              StorageDevice* dev = group.storage(event.replica);
              switch (mix % 3) {
                case 1:
                  dev->ArmTornTailOnCrash(1 + static_cast<uint32_t>(mix % 13));
                  break;
                case 2:
                  dev->ArmDuplicateTailOnCrash();
                  break;
                default:
                  break;
              }
              group.replica(event.replica).Crash();
            }
            sim.After(Simulation::kNoOwner, event.duration,
                      [&group, &sim, r = event.replica] {
                        sim.network().Heal(r);
                        group.replica(r).RestartFromStorage();
                      });
          } else {
            // Legacy model (no durable storage): the replica keeps its
            // in-memory state and is merely unreachable for the duration.
            sim.After(Simulation::kNoOwner, event.duration,
                      [&sim, r = event.replica] { sim.network().Heal(r); });
          }
          break;
        case FaultKind::kCorruptState: {
          auto* wrapper = dynamic_cast<FsConformanceWrapper*>(
              group.adapter(event.replica));
          if (wrapper != nullptr) {
            wrapper->CorruptConcreteObject();
          }
          break;
        }
        case FaultKind::kByzantineReplies:
          group.replica(event.replica).SetCorruptReplies(true);
          sim.After(Simulation::kNoOwner, event.duration,
                    [&group, r = event.replica] {
                      group.replica(r).SetCorruptReplies(false);
                    });
          break;
        case FaultKind::kDaemonRestart: {
          auto* wrapper = dynamic_cast<FsConformanceWrapper*>(
              group.adapter(event.replica));
          if (wrapper != nullptr) {
            wrapper->RestartWrappedDaemon();
          }
          break;
        }
        case FaultKind::kProactiveRecovery:
          group.replica(event.replica).StartProactiveRecovery();
          break;
        case FaultKind::kPartition: {
          // Block every replica-replica link that crosses the side split;
          // clients stay connected to both sides. Healing unblocks exactly
          // the links this event blocked, so overlapping partitions compose.
          const int n = group.replica_count();
          std::vector<std::pair<NodeId, NodeId>> blocked;
          for (NodeId a = 0; a < n; ++a) {
            for (NodeId b = a + 1; b < n; ++b) {
              if (((event.side_mask >> a) & 1) != ((event.side_mask >> b) & 1)) {
                sim.network().BlockLink(a, b);
                blocked.emplace_back(a, b);
              }
            }
          }
          sim.After(Simulation::kNoOwner, event.duration,
                    [&sim, blocked = std::move(blocked)] {
                      for (const auto& [a, b] : blocked) {
                        sim.network().UnblockLink(a, b);
                      }
                    });
          break;
        }
        case FaultKind::kDropBurst:
          sim.network().SetDropProbability(event.probability());
          sim.After(Simulation::kNoOwner, event.duration,
                    [&sim] { sim.network().SetDropProbability(0.0); });
          break;
        case FaultKind::kDuplicate:
          sim.network().SetDuplication(event.probability(), /*max_copies=*/2);
          sim.After(Simulation::kNoOwner, event.duration,
                    [&sim] { sim.network().SetDuplication(0.0, 0); });
          break;
        case FaultKind::kLinkDelay: {
          // Both directions of {replica, peer}, on top of whatever delay the
          // topology or an overlapping fault already put there. One closure
          // arms (+1) and heals (-1), so healing takes back exactly what
          // arming added.
          auto add = [&sim, e = event](SimTime sign) {
            sim.network().AddDelay(e.replica, e.peer, sign * e.delay_us);
            sim.network().AddDelay(e.peer, e.replica, sign * e.delay_us);
          };
          add(1);
          sim.After(Simulation::kNoOwner, event.duration, [add] { add(-1); });
          break;
        }
        case FaultKind::kEquivocate:
          group.replica(event.replica).SetEquivocateMask(event.side_mask);
          group.replica(event.replica).SetEquivocate(true);
          sim.After(Simulation::kNoOwner, event.duration,
                    [&group, r = event.replica] {
                      group.replica(r).SetEquivocate(false);
                      group.replica(r).SetEquivocateMask(0);
                    });
          break;
        case FaultKind::kSelectiveSuppress: {
          // Directed victim -> peer levers for every peer in side_mask. A
          // delay stacks on the link's delay and heals like kLinkDelay; a
          // drop probability is set and cleared.
          auto apply = [&sim, &group, e = event](SimTime sign) {
            for (NodeId peer = 0; peer < group.replica_count(); ++peer) {
              if (peer == e.replica || ((e.side_mask >> peer) & 1) == 0) {
                continue;
              }
              if (e.delay_us > 0) {
                sim.network().AddDelay(e.replica, peer, sign * e.delay_us);
              } else {
                const double p = e.prob_ppm > 0 ? e.probability() : 1.0;
                sim.network().SetPairDropProbability(e.replica, peer,
                                                     sign > 0 ? p : 0.0);
              }
            }
          };
          apply(1);
          sim.After(Simulation::kNoOwner, event.duration,
                    [apply] { apply(-1); });
          break;
        }
        case FaultKind::kSlowPrimary:
          group.replica(event.replica).SetProposalDelay(event.delay_us);
          sim.After(Simulation::kNoOwner, event.duration,
                    [&group, r = event.replica] {
                      group.replica(r).SetProposalDelay(0);
                    });
          break;
        case FaultKind::kViewChangeSpam:
          ArmViewChangeSpam(group, event);
          break;
        case FaultKind::kCheckpointLie:
          ArmCheckpointLie(group, event);
          break;
      }
    });
  }
}

FaultScenarioResult RunFaultScenario(ServiceGroup& group, FsSession& fs,
                                     const FaultScenarioConfig& config) {
  FaultScenarioResult result;
  Simulation& sim = group.sim();
  Rng rng(config.seed);
  SimTime start = sim.Now();

  uint64_t view_changes_before = 0;
  uint64_t recoveries_before = 0;
  for (int r = 0; r < group.replica_count(); ++r) {
    view_changes_before += group.replica(r).view_changes_started();
    recoveries_before += group.replica(r).recoveries_completed();
  }

  ArmFaultSchedule(group, config.schedule);

  // Foreground load with an oracle.
  auto dir = fs.Mkdir(fs.Root(), "faultload");
  if (!dir.ok()) {
    return result;
  }
  constexpr int kFiles = 8;
  std::vector<Oid> files;
  std::map<int, Bytes> oracle;
  for (int i = 0; i < kFiles; ++i) {
    auto f = fs.Create(*dir, "f" + std::to_string(i));
    if (!f.ok()) {
      return result;
    }
    files.push_back(*f);
    oracle[i] = Bytes();
  }

  // Splits a failed op into unavailability (timeout) vs. explicit rejection.
  auto classify_failure = [&result](const Status& status) {
    if (status.code() == StatusCode::kUnavailable) {
      ++result.timeouts;
    } else {
      ++result.rejected;
    }
  };

  SimTime total_latency = 0;
  // Successful-op latencies and absolute completion times (monotone) feed
  // the p50/p99 distribution and the liveness verdict.
  std::vector<SimTime> ok_latencies;
  std::vector<SimTime> ok_completions;
  for (int op = 0; op < config.operations; ++op) {
    int file = static_cast<int>(rng.NextBelow(kFiles));
    bool write = rng.NextBool(0.5);
    ++result.attempted;
    SimTime op_start = sim.Now();
    if (write) {
      Bytes value = ToBytes("v" + std::to_string(op));
      auto written = fs.Write(files[file], 0, value);
      if (written.ok()) {
        ++result.succeeded;
        ok_latencies.push_back(sim.Now() - op_start);
        ok_completions.push_back(sim.Now());
        // Emulate truncate-to-content semantics for the oracle.
        Bytes& cur = oracle[file];
        if (cur.size() < value.size()) {
          cur.resize(value.size());
        }
        std::copy(value.begin(), value.end(), cur.begin());
      } else {
        classify_failure(written.status());
      }
    } else {
      auto data = fs.Read(files[file], 0, 4096);
      if (data.ok()) {
        if (*data == oracle[file]) {
          ++result.succeeded;
          ok_latencies.push_back(sim.Now() - op_start);
          ok_completions.push_back(sim.Now());
        } else {
          // Completed but incorrect: counted as a wrong result, not as an
          // availability success.
          ++result.wrong_results;
          LOG_ERROR << "fault scenario: WRONG read result for file " << file;
        }
      } else {
        classify_failure(data.status());
      }
    }
    SimTime latency = sim.Now() - op_start;
    total_latency += latency;
    result.max_latency_us = std::max(result.max_latency_us, latency);
    sim.RunUntil(sim.Now() + config.op_gap);
  }

  if (config.judge_liveness) {
    // Run to the schedule horizon so every attack window has ended, then
    // issue probe ops: the verdict needs a successful commit after each
    // window, even when the op stream finished mid-attack.
    SimTime horizon = 0;
    for (const FaultEvent& event : config.schedule) {
      horizon = std::max(horizon, event.at + event.duration);
    }
    if (sim.Now() < start + horizon) {
      sim.RunUntil(start + horizon);
    }
    for (int probe = 0; probe < config.liveness_probes; ++probe) {
      ++result.attempted;
      SimTime op_start = sim.Now();
      Bytes value = ToBytes("probe" + std::to_string(probe));
      auto written = fs.Write(files[0], 0, value);
      SimTime latency = sim.Now() - op_start;
      if (written.ok()) {
        ++result.succeeded;
        ok_latencies.push_back(latency);
        ok_completions.push_back(sim.Now());
        Bytes& cur = oracle[0];
        if (cur.size() < value.size()) {
          cur.resize(value.size());
        }
        std::copy(value.begin(), value.end(), cur.begin());
      } else {
        classify_failure(written.status());
      }
      total_latency += latency;
      result.max_latency_us = std::max(result.max_latency_us, latency);
    }
  }
  if (result.attempted > 0) {
    result.mean_latency_us = total_latency / result.attempted;
  }

  // Let in-flight recoveries finish so their effects are visible in the
  // scenario result.
  sim.RunUntilTrue(
      [&] {
        for (int r = 0; r < group.replica_count(); ++r) {
          if (group.replica(r).recovering()) {
            return false;
          }
        }
        return true;
      },
      sim.Now() + 300 * kSecond);

  for (int r = 0; r < group.replica_count(); ++r) {
    result.view_changes += group.replica(r).view_changes_started();
    result.recoveries += group.replica(r).recoveries_completed();
  }
  result.view_changes -= view_changes_before;
  result.recoveries -= recoveries_before;

  const LatencySummary latency = SummarizeLatencies(std::move(ok_latencies));
  result.liveness.p50_latency_us = latency.p50;
  result.liveness.p99_latency_us = latency.p99;
  result.liveness.p999_latency_us = latency.p999;
  if (config.judge_liveness) {
    LivenessInputs inputs;
    inputs.ok_completions = std::move(ok_completions);
    inputs.per_client_last_ok = {
        inputs.ok_completions.empty() ? 0 : inputs.ok_completions.back()};
    JudgeLiveness(config.schedule, start, inputs, config.liveness_bound,
                  &result.liveness);
  }
  return result;
}

}  // namespace bftbase
