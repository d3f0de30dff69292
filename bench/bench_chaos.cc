// Experiment E12 — deterministic chaos fuzzing.
//
// Modes:
//   bench_chaos                 one verbose run with the default seed
//   bench_chaos --seed N        one verbose run with seed N
//   bench_chaos --seeds N       sweep seeds 1..N, table + failure summary
//   bench_chaos --smoke         the fixed CI seed set (ctest chaos_smoke)
//   bench_chaos --repro FILE    replay a repro file written by a failing run
//
// Adversary mode (E17 integration; composes with every mode above):
//   --adversary                 append active Byzantine strategies to every
//                               schedule; runs are additionally judged live
//   --strategy NAME             pin one strategy (implies --adversary);
//                               NAME in {equivocate, selective-suppress,
//                               slow-primary, view-change-spam, checkpoint-lie}
//   --adversary-smoke           the fixed CI seed set with mixed adversary
//                               strategies (ctest chaos_adversary_smoke)
//
// Any failing seed is automatically shrunk to a minimal schedule and the
// repro is written to chaos_repro_<seed>.txt next to the binary. Exit
// status is non-zero iff any run failed (safety or liveness violation).
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/bench_common.h"
#include "src/util/log.h"
#include "src/workload/adversary.h"
#include "src/workload/chaos.h"

using namespace bftbase;

namespace {

// The CI seed set: fixed forever so chaos_smoke is a regression test, not a
// lottery. Each seed is a distinct schedule over the composed lever set.
constexpr uint64_t kSmokeSeeds[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                    11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                    21, 22, 23, 24, 25, 26, 27, 28};

std::string DescribeSchedule(const std::vector<FaultEvent>& schedule) {
  std::ostringstream out;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << FaultKindName(schedule[i].kind);
  }
  return out.str();
}

void PrintRun(uint64_t seed, const ChaosRunResult& result) {
  std::printf("seed %llu: %d invoked, %d ok, %d timeouts, %d rejected; "
              "%llu view changes, %llu recoveries\n",
              static_cast<unsigned long long>(seed), result.invoked,
              result.completed, result.timeouts, result.rejected,
              static_cast<unsigned long long>(result.view_changes),
              static_cast<unsigned long long>(result.recoveries));
  std::printf("  schedule (%zu events): %s\n", result.schedule.size(),
              DescribeSchedule(result.schedule).c_str());
  std::printf("  schedule digest %s, trace digest %s (%llu events)\n",
              result.schedule_digest.Hex().c_str(),
              result.trace_digest.Hex().c_str(),
              static_cast<unsigned long long>(result.trace_events));
  std::printf("  linearizable: %s (%llu states), invariant violations: %llu\n",
              result.verdict.linearizable ? "yes" : "NO",
              static_cast<unsigned long long>(result.verdict.states_explored),
              static_cast<unsigned long long>(result.invariant_violations));
  if (!result.verdict.linearizable) {
    std::printf("  %s\n", result.verdict.explanation.c_str());
  }
  if (result.invariant_violations > 0) {
    std::printf("  first violation: %s\n",
                result.first_invariant_violation.c_str());
  }
  if (!result.topology_mismatch.empty()) {
    std::printf("  ended off its topology: %s\n",
                result.topology_mismatch.c_str());
  }
  if (result.liveness.judged) {
    std::printf("  liveness: %s (worst recovery %s ms, p50 %s ms, "
                "p99 %s ms)\n",
                result.liveness.live ? "live" : "STALLED",
                FormatMs(result.liveness.max_window_recovery_us).c_str(),
                FormatMs(result.liveness.p50_latency_us).c_str(),
                FormatMs(result.liveness.p99_latency_us).c_str());
    if (!result.liveness.live) {
      std::printf("  %s\n", result.liveness.explanation.c_str());
    }
  }
}

// Shrinks a failing run and writes the repro file. Returns its path.
std::string ShrinkAndDump(const ChaosOptions& options,
                          const ChaosRunResult& failing) {
  std::printf("  shrinking %zu-event schedule...\n", failing.schedule.size());
  ShrinkOutcome shrunk =
      ShrinkFailingSchedule(options, failing.schedule, /*budget=*/64);
  std::printf("  minimal schedule: %zu events after %d replays: %s\n",
              shrunk.schedule.size(), shrunk.runs,
              DescribeSchedule(shrunk.schedule).c_str());
  std::string path =
      "chaos_repro_" + std::to_string(options.seed) + ".txt";
  std::ofstream out(path);
  out << EncodeChaosRepro(options, shrunk.schedule, shrunk.result);
  std::printf("  repro written to %s\n", path.c_str());
  return path;
}

// The adversary options selected on the command line, applied to every run.
struct AdversaryMode {
  bool enabled = false;
  int strategy = -1;  // -1 = mixed
  std::string topology;  // geo preset; "" = LAN

  void Apply(ChaosOptions& options) const {
    options.adversary = enabled;
    options.adversary_strategy = strategy;
    options.topology = topology;
  }
  const char* Describe() const {
    if (!enabled) {
      return "none";
    }
    return strategy < 0 ? "mixed"
                        : AdversaryStrategyName(
                              static_cast<AdversaryStrategy>(strategy));
  }
};

// Runs one seed; on failure shrinks + dumps. Returns true when clean.
bool RunSeed(uint64_t seed, const AdversaryMode& mode, bool verbose) {
  ChaosOptions options;
  options.seed = seed;
  mode.Apply(options);
  ChaosRunResult result = RunChaos(options);
  if (verbose || result.Unacceptable()) {
    PrintRun(seed, result);
  }
  if (result.Unacceptable()) {
    ShrinkAndDump(options, result);
    return false;
  }
  return true;
}

int RunSweep(const uint64_t* seeds, size_t count, const AdversaryMode& mode,
             const char* title) {
  PrintHeader(title);
  Table table({"seed", "events", "ok", "timeouts", "rejected", "view chg",
               "recoveries", "linearizable", "invariants", "live",
               "trace digest"});
  int failures = 0;
  for (size_t i = 0; i < count; ++i) {
    ChaosOptions options;
    options.seed = seeds[i];
    mode.Apply(options);
    ChaosRunResult result = RunChaos(options);
    table.AddRow({FormatCount(seeds[i]),
                  FormatCount(result.schedule.size()),
                  FormatCount(result.completed),
                  FormatCount(result.timeouts),
                  FormatCount(result.rejected),
                  FormatCount(result.view_changes),
                  FormatCount(result.recoveries),
                  result.verdict.linearizable ? "yes" : "NO",
                  result.invariant_violations == 0 ? "clean" : "VIOLATED",
                  result.liveness.judged
                      ? (result.liveness.live ? "yes" : "NO")
                      : "-",
                  result.trace_digest.Hex()});
    if (result.Unacceptable()) {
      ++failures;
      PrintRun(seeds[i], result);
      ShrinkAndDump(options, result);
    }
  }
  table.Print();
  if (failures > 0) {
    std::printf("\n%d of %zu seeds FAILED (repro files written)\n", failures,
                count);
    return 1;
  }
  std::printf("\nall %zu seeds clean (adversary: %s): every history "
              "linearizable, every invariant audit green%s\n",
              count, mode.Describe(),
              mode.enabled ? ", every run judged live" : "");
  return 0;
}

int RunRepro(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ChaosOptions options;
  std::vector<FaultEvent> schedule;
  if (!DecodeChaosRepro(buffer.str(), &options, &schedule)) {
    std::fprintf(stderr, "malformed repro file %s\n", path);
    return 2;
  }
  PrintHeader("E12: chaos repro replay");
  ChaosRunResult result = RunChaosSchedule(options, schedule);
  PrintRun(options.seed, result);
  return result.Unacceptable() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  long long sweep = 0;
  bool smoke = false;
  const char* repro = nullptr;
  bool single = true;
  AdversaryMode mode;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      sweep = std::strtoll(argv[++i], nullptr, 10);
      single = false;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      single = false;
    } else if (std::strcmp(argv[i], "--adversary-smoke") == 0) {
      smoke = true;
      mode.enabled = true;
      single = false;
    } else if (std::strcmp(argv[i], "--adversary") == 0) {
      mode.enabled = true;
    } else if (std::strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      AdversaryStrategy strategy;
      if (!AdversaryStrategyFromName(argv[++i], &strategy)) {
        std::fprintf(stderr, "unknown strategy %s\n", argv[i]);
        return 2;
      }
      mode.enabled = true;
      mode.strategy = static_cast<int>(strategy);
    } else if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      // Geo preset (src/sim/topology.h): chaos under WAN latency + jitter,
      // with topology-aware scenarios (region partition, slow WAN link)
      // appended to every schedule.
      mode.topology = argv[++i];
    } else if (std::strcmp(argv[i], "--repro") == 0 && i + 1 < argc) {
      repro = argv[++i];
      single = false;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      // Full INFO-level protocol logging — for debugging repro replays.
      SetLogLevel(LogLevel::kInfo);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N | --seeds N | --smoke | "
                   "--adversary-smoke | --repro FILE] [--adversary] "
                   "[--strategy NAME] [--topology NAME]\n",
                   argv[0]);
      return 2;
    }
  }

  if (repro != nullptr) {
    return RunRepro(repro);
  }
  if (smoke) {
    return RunSweep(kSmokeSeeds, sizeof(kSmokeSeeds) / sizeof(kSmokeSeeds[0]),
                    mode,
                    mode.enabled
                        ? "E17: chaos + adversary smoke (fixed CI seed set)"
                        : "E12: chaos fuzzing smoke (fixed CI seed set)");
  }
  if (sweep > 0) {
    std::vector<uint64_t> seeds;
    for (long long i = 1; i <= sweep; ++i) {
      seeds.push_back(static_cast<uint64_t>(i));
    }
    return RunSweep(seeds.data(), seeds.size(), mode,
                    mode.enabled ? "E17: chaos + adversary sweep"
                                 : "E12: chaos fuzzing sweep");
  }
  if (single) {
    PrintHeader(mode.enabled ? "E17: chaos + adversary (single seed)"
                             : "E12: chaos fuzzing (single seed)");
    return RunSeed(seed, mode, /*verbose=*/true) ? 0 : 1;
  }
  return 0;
}
