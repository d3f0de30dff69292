// Experiment E1 — the paper's headline result (§4):
//   "We ran a scaled-up version of the Andrew benchmark ... Our performance
//    results indicate that the overhead introduced by our technique is low;
//    it is approximately 30% for this benchmark with a window of
//    vulnerability of 17 minutes."
//
// This bench runs the Andrew-like workload against (a) the unreplicated
// off-the-shelf NFS baseline and (b) BASEFS with 4 replicas wrapping the
// same implementation, with staggered proactive recovery armed so that the
// window of vulnerability is ~17 minutes, and reports per-phase times and
// the total overhead.
#include <cstdlib>

#include "bench/bench_common.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/workload/andrew.h"

using namespace bftbase;

namespace {

AndrewConfig ScaledAndrew(uint64_t seed) {
  AndrewConfig config;
  config.directories = 10;
  config.files_per_directory = 10;
  config.file_size = 8192;
  config.write_chunk = 4096;
  config.seed = seed;
  return config;
}

AndrewResult RunBaseline(const AndrewConfig& config) {
  Simulation sim(1000 + config.seed);
  PlainNfsServer server(&sim, 50, MakeFileSystem(FsVendor::kLinear, &sim));
  PlainFsSession fs(&sim, 60, 50);
  return RunAndrewBenchmark(fs, sim, config);
}

AndrewResult RunReplicated(const AndrewConfig& config, SimTime tv_minutes) {
  auto params = StandardParams(2000 + config.seed);
  auto group = MakeBasefsGroup(params, {FsVendor::kLinear}, 2048);
  if (tv_minutes > 0) {
    // Tv = 2*Tk + Tr with Tk == Tr == recovery period in this build, so the
    // recovery period is Tv / 3.
    group->EnableProactiveRecovery(tv_minutes * kMinute / 3);
  }
  ReplicatedFsSession fs(group.get(), 0, /*op_timeout=*/300 * kSecond);
  return RunAndrewBenchmark(fs, group->sim(), config);
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader(
      "E1: scaled Andrew benchmark — BASEFS vs off-the-shelf NFS (paper §4)");

  AndrewConfig config = ScaledAndrew(42);
  // `bench_andrew <scale>` multiplies the working set; scale 32 writes
  // ~1 GB of logical data like the paper's full run (several minutes of
  // simulation). The default stays laptop-fast.
  if (argc > 1) {
    int scale = std::max(1, atoi(argv[1]));
    config.directories *= scale;
    config.file_size *= 4;
  }
  std::printf("workload: %d dirs x %d files x %zu B (%.1f MB logical), "
              "checkpoint interval k=128\n",
              config.directories, config.files_per_directory,
              config.file_size,
              static_cast<double>(config.directories *
                                  config.files_per_directory *
                                  config.file_size) /
                  (1 << 20));

  AndrewResult baseline = RunBaseline(config);
  AndrewResult replicated = RunReplicated(config, /*tv_minutes=*/17);
  AndrewResult no_recovery = RunReplicated(config, /*tv_minutes=*/0);
  if (!baseline.ok || !replicated.ok || !no_recovery.ok) {
    std::printf("FAILED: %s %s %s\n", baseline.error.c_str(),
                replicated.error.c_str(), no_recovery.error.c_str());
    return 1;
  }

  // The last four columns are the real hot-path work done by the replicated
  // run (SHA-256 compressions, MB through the hashers, payload copies by the
  // zero-copy fabric, buffers encoded).
  Table table({"phase", "NFS (ms)", "BASEFS (ms)", "BASEFS no-PR (ms)",
               "overhead", "msgs dlvd", "MB dlvd", "sha256 blk", "MB hashed",
               "copies", "enc allocs"});
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t total_sha_blocks = 0;
  uint64_t total_hashed = 0;
  uint64_t total_copies = 0;
  uint64_t total_encode_allocs = 0;
  for (size_t i = 0; i < baseline.phases.size(); ++i) {
    const auto& base_phase = baseline.phases[i];
    const auto& repl_phase = replicated.phases[i];
    const auto& nopr_phase = no_recovery.phases[i];
    total_messages += repl_phase.messages_delivered;
    total_bytes += repl_phase.bytes_delivered;
    total_sha_blocks += repl_phase.sha256_blocks;
    total_hashed += repl_phase.bytes_hashed;
    total_copies += repl_phase.payload_copies;
    total_encode_allocs += repl_phase.encode_allocs;
    table.AddRow({base_phase.name, FormatMs(base_phase.elapsed_us),
                  FormatMs(repl_phase.elapsed_us),
                  FormatMs(nopr_phase.elapsed_us),
                  FormatRatio(static_cast<double>(repl_phase.elapsed_us) /
                              static_cast<double>(base_phase.elapsed_us)),
                  FormatCount(repl_phase.messages_delivered),
                  FormatMb(repl_phase.bytes_delivered),
                  FormatCount(repl_phase.sha256_blocks),
                  FormatMb(repl_phase.bytes_hashed),
                  FormatCount(repl_phase.payload_copies),
                  FormatCount(repl_phase.encode_allocs)});
  }
  double overhead = static_cast<double>(replicated.total_us) /
                        static_cast<double>(baseline.total_us) -
                    1.0;
  table.AddRow({"TOTAL", FormatMs(baseline.total_us),
                FormatMs(replicated.total_us),
                FormatMs(no_recovery.total_us),
                FormatPercent(overhead), FormatCount(total_messages),
                FormatMb(total_bytes), FormatCount(total_sha_blocks),
                FormatMb(total_hashed), FormatCount(total_copies),
                FormatCount(total_encode_allocs)});
  table.Print();

  std::printf("\nmeasured overhead with Tv = 17 min: %s"
              "   (paper reports ~30%% on its testbed)\n",
              FormatPercent(overhead).c_str());
  std::printf("operations: %llu in both runs; logical data: %llu bytes\n",
              static_cast<unsigned long long>(baseline.total_operations),
              static_cast<unsigned long long>(baseline.logical_bytes));
  return 0;
}
