// Experiment E4 — checkpoint machinery ablation (paper §2.2):
//   "Creating checkpoints by making full copies of the abstract state would
//    be too expensive. Instead, the library uses copy-on-write..."
//
// Sweeps the checkpoint period k with copy-on-write vs full-copy
// checkpoints on a write-heavy workload, reporting total time, snapshot
// bytes held, the number of object copies taken, and the digest CPU each
// checkpoint ran on a replica's idle lane, split into the part that ran in
// idle time and the part paced into foreground handlers to meet the vote
// deadline (DESIGN.md §12).
#include "bench/bench_common.h"
#include "src/base/kv_adapter.h"

using namespace bftbase;

namespace {

constexpr size_t kSlots = 4096;

struct RunResult {
  SimTime total_us = 0;
  uint64_t cow_copies = 0;
  size_t cow_bytes_peak = 0;
  // Mean over every replica's checkpoints: digest CPU run in idle time, and
  // digest CPU paced into foreground handlers.
  SimTime idle_us_per_checkpoint = 0;
  SimTime forced_us_per_checkpoint = 0;
  bool ok = true;
};

RunResult RunLoad(SeqNum checkpoint_interval, bool full_copy, uint64_t seed) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = checkpoint_interval;
  params.config.log_window = 2 * checkpoint_interval;
  params.seed = seed;
  params.service.full_copy_checkpoints = full_copy;

  ServiceGroup group(params, [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kSlots);
  });

  // Preload every slot so full-copy checkpoints carry real weight.
  Bytes blob(512, 0x42);
  Rng rng(seed);
  RunResult result;
  for (int i = 0; i < 64; ++i) {
    auto r = group.Invoke(KvAdapter::EncodeSet(
        static_cast<uint32_t>(rng.NextBelow(kSlots)), blob));
    if (!r.ok()) {
      result.ok = false;
      return result;
    }
  }
  group.sim().RunUntil(group.sim().Now() + kSecond);

  const MetricsRegistry& metrics = group.sim().metrics();
  const uint64_t idle_before = metrics.Total("sim.idle_lane_cpu_us");
  const uint64_t forced_before = metrics.Total("sim.idle_lane_forced_us");
  const uint64_t checkpoints_before =
      metrics.Histogram("replica.checkpoint_vote_lag_us").count;
  SimTime start = group.sim().Now();
  const int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    auto r = group.Invoke(KvAdapter::EncodeSet(
        static_cast<uint32_t>(rng.NextBelow(kSlots)), blob));
    if (!r.ok()) {
      result.ok = false;
      return result;
    }
    result.cow_bytes_peak = std::max(
        result.cow_bytes_peak, group.service(0).checkpoints().CowBytes());
  }
  result.total_us = group.sim().Now() - start;
  result.cow_copies = group.service(0).checkpoints().cow_copies_taken();
  const uint64_t checkpoints =
      metrics.Histogram("replica.checkpoint_vote_lag_us").count -
      checkpoints_before;
  if (checkpoints > 0) {
    result.idle_us_per_checkpoint = static_cast<SimTime>(
        (metrics.Total("sim.idle_lane_cpu_us") - idle_before) / checkpoints);
    result.forced_us_per_checkpoint = static_cast<SimTime>(
        (metrics.Total("sim.idle_lane_forced_us") - forced_before) /
        checkpoints);
  }
  return result;
}

}  // namespace

int main() {
  PrintHeader(
      "E4: copy-on-write vs full-copy checkpoints (400 writes over 4096 "
      "objects x 512B)");

  Table table({"k", "mode", "total (ms)", "us/op", "peak snapshot bytes",
               "object copies", "lane idle/ckpt (us)",
               "lane forced/ckpt (us)"});
  for (SeqNum k : {16u, 64u, 128u, 256u}) {
    RunResult cow = RunLoad(k, /*full_copy=*/false, 100 + k);
    RunResult full = RunLoad(k, /*full_copy=*/true, 200 + k);
    if (!cow.ok || !full.ok) {
      std::printf("run failed for k=%llu\n",
                  static_cast<unsigned long long>(k));
      return 1;
    }
    table.AddRow({FormatCount(k), "cow", FormatMs(cow.total_us),
                  FormatUs(cow.total_us / 400),
                  FormatCount(cow.cow_bytes_peak),
                  FormatCount(cow.cow_copies),
                  FormatCount(cow.idle_us_per_checkpoint),
                  FormatCount(cow.forced_us_per_checkpoint)});
    table.AddRow({FormatCount(k), "full", FormatMs(full.total_us),
                  FormatUs(full.total_us / 400),
                  FormatCount(full.cow_bytes_peak),
                  FormatCount(full.cow_copies),
                  FormatCount(full.idle_us_per_checkpoint),
                  FormatCount(full.forced_us_per_checkpoint)});
  }
  table.Print();
  std::printf(
      "\nshape check: full-copy digest CPU per checkpoint grows with the\n"
      "state size; copy-on-write digests only the objects modified since the\n"
      "previous checkpoint. That CPU runs in each replica's idle time, and\n"
      "only what idle time leaves short of the vote deadline is paced into\n"
      "handlers (the forced column), so it barely shows up in us/op.\n");
  return 0;
}
