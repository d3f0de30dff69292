// Shard-level chaos smoke (ctest target `chaos_shard_smoke`).
//
// Replays the fixed seed set across every shard chaos scenario — victim
// primary crash through the durable WAL/checkpoint restart path, victim
// shard partition, and the mixed crash-then-partition sequence — under the
// keyed zipfian workload, and requires every run to be linearizable,
// invariant-clean and judged live (bounded virtual-time-to-commit on the
// victim shard after every attack window). Each run is executed twice and
// its per-shard trace digests and keyed-history digest must be
// byte-identical, so the smoke also witnesses the sharded determinism
// contract under faults.
//
// Usage: bench_shard_chaos [--smoke] [--seed N] [--scenario NAME]
//                          [--json PATH]
//   --smoke     fixed CI seed set (the default when no --seed is given)
//   --seed N    replay a single seed across all scenarios
//   --scenario  restrict to primary_crash | shard_partition | mixed
//   --json      where to write the JSON artifact (default: none)
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/shard/shard_chaos.h"

using namespace bftbase;

namespace {

struct CaseOutcome {
  uint64_t seed = 0;
  ShardChaosOptions::Scenario scenario =
      ShardChaosOptions::Scenario::kPrimaryCrash;
  ShardChaosResult result;
  bool deterministic = false;
};

bool ScenarioFromName(const std::string& name,
                      ShardChaosOptions::Scenario* out) {
  for (auto s : {ShardChaosOptions::Scenario::kPrimaryCrash,
                 ShardChaosOptions::Scenario::kShardPartition,
                 ShardChaosOptions::Scenario::kMixed}) {
    if (name == ShardChaosScenarioName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

CaseOutcome RunCase(uint64_t seed, ShardChaosOptions::Scenario scenario) {
  ShardChaosOptions opts;
  opts.seed = seed;
  opts.scenario = scenario;
  opts.shards = 2;
  opts.clients = 3;
  opts.ops_per_client = 6;

  CaseOutcome out;
  out.seed = seed;
  out.scenario = scenario;
  out.result = RunShardChaos(opts);
  ShardChaosResult rerun = RunShardChaos(opts);
  out.deterministic =
      out.result.workload.history_digest == rerun.workload.history_digest &&
      out.result.shard_trace_digests == rerun.shard_trace_digests;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Chosen so the seed-derived victim covers both shards (1, 23 -> shard 0;
  // 2, 4 -> shard 1).
  std::vector<uint64_t> seeds = {1, 2, 4, 23};
  std::vector<ShardChaosOptions::Scenario> scenarios = {
      ShardChaosOptions::Scenario::kPrimaryCrash,
      ShardChaosOptions::Scenario::kShardPartition,
      ShardChaosOptions::Scenario::kMixed};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // The default seed set; flag kept so the ctest line reads like the
      // other smokes.
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seeds = {static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10))};
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      ShardChaosOptions::Scenario s;
      if (!ScenarioFromName(argv[++i], &s)) {
        std::printf("unknown scenario %s\n", argv[i]);
        return 2;
      }
      scenarios = {s};
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  PrintHeader("Shard chaos: whole-shard faults under the keyed workload");
  Table table({"seed", "scenario", "victim", "committed", "timeouts",
               "probes", "view chg", "linearizable", "live",
               "deterministic"});

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_shard_chaos");
  json.Key("cases");
  json.BeginArray();

  bool all_ok = true;
  for (uint64_t seed : seeds) {
    for (auto scenario : scenarios) {
      CaseOutcome c = RunCase(seed, scenario);
      const ShardChaosResult& r = c.result;
      // Every scenario cuts off the current primary, so a run where no view
      // change ever started means the fault never bit — fail that too.
      const bool ok = !r.Unacceptable() && c.deterministic &&
                      r.probes_ok > 0 && r.victim_view_changes > 0;
      all_ok = all_ok && ok;
      table.AddRow({FormatCount(seed), ShardChaosScenarioName(scenario),
                    FormatCount(static_cast<uint64_t>(r.victim_shard)),
                    FormatCount(static_cast<uint64_t>(r.workload.committed)),
                    FormatCount(static_cast<uint64_t>(r.workload.timeouts)),
                    FormatCount(static_cast<uint64_t>(r.probes_ok)) + "/" +
                        FormatCount(static_cast<uint64_t>(r.probes_attempted)),
                    FormatCount(r.victim_view_changes),
                    r.workload.verdict.linearizable ? "yes" : "NO",
                    r.liveness.live ? "yes" : "NO",
                    c.deterministic ? "yes" : "NO"});
      if (!ok) {
        std::printf("FAILED seed %llu scenario %s: %s%s\n",
                    static_cast<unsigned long long>(seed),
                    ShardChaosScenarioName(scenario),
                    r.workload.verdict.linearizable
                        ? ""
                        : r.workload.verdict.explanation.c_str(),
                    r.liveness.live ? "" : r.liveness.explanation.c_str());
      }
      json.BeginObject();
      json.Field("seed", seed);
      json.Field("scenario", ShardChaosScenarioName(scenario));
      json.Field("victim_shard", r.victim_shard);
      json.Field("committed", r.workload.committed);
      json.Field("timeouts", r.workload.timeouts);
      json.Field("probes_ok", r.probes_ok);
      json.Field("victim_view_changes", r.victim_view_changes);
      json.Field("linearizable", r.workload.verdict.linearizable);
      json.Field("invariant_violations", r.invariant_violations);
      json.Field("live", r.liveness.live);
      json.Field("max_window_recovery_us",
                 static_cast<uint64_t>(r.liveness.max_window_recovery_us));
      json.Field("deterministic", c.deterministic);
      json.Field("history_digest", r.workload.history_digest.Hex(32));
      json.EndObject();
    }
  }
  json.EndArray();
  EmitBenchMetadata(json, nullptr, /*shards=*/2);
  json.EndObject();

  table.Print();
  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!all_ok) {
    std::printf("FAILED: some shard chaos runs were unacceptable\n");
    return 1;
  }
  std::printf("all shard chaos runs linearizable, invariant-clean, live and "
              "deterministic\n");
  return 0;
}
