// The three perfbench workloads. Each call runs one repetition: it sets up a
// fresh deployment, runs the workload's generated inputs through the public
// client API, checks the outputs, and reports what it measured.
//
//   kv_lan_hot     closed loop, 16 clients, f=1 on the LAN cost model,
//                  Sets of 0.5-1.5 KiB (1 KiB mean) over 4096 slots; no
//                  faults, no storage.
//   andrew_hetero  the scaled Andrew benchmark on BASEFS with heterogeneous
//                  replicas (linear/tree/log/linear) plus the unreplicated
//                  NFS baseline it is compared with.
//   kv_geo_crash   open-loop Poisson arrivals on the 3-region topology, 50%
//                  read-only Gets / 50% small Sets over 2^18 slots, durable
//                  storage; the primary crashes and restarts from disk.
//                  After the window the new primary crashes, and the group
//                  must still commit.
//
// Virtual-time results are a pure function of the seed; wall-clock results
// are what the harness costs on the host.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/tracer.h"
#include "src/crypto/digest.h"
#include "src/workload/andrew.h"

namespace perfbench {

struct RepOptions {
  uint64_t seed = 1;
  // Test-sized inputs (the unit tests run every workload end to end).
  bool small = false;
  // Non-null for a traced repetition: spans and adapter/phase telemetry.
  Tracer* tracer = nullptr;
  // Folds the run into the simulation's EventTrace digest.
  bool event_trace = false;
};

// Telemetry read before and after the measured window through each layer's
// public API. Every field is a pure function of the seed.
struct LayerCounts {
  // sim
  uint64_t events = 0;
  uint64_t requeued = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t msgs_delivered = 0;
  uint64_t bytes_delivered = 0;
  uint64_t bytes_copied = 0;
  uint64_t msgs_dropped = 0;
  uint64_t storage_syncs = 0;
  uint64_t storage_bytes_written = 0;
  uint64_t storage_bytes_read_on_restart = 0;
  // crypto
  uint64_t sha_calls = 0;
  uint64_t sha_blocks = 0;
  uint64_t sha_ni_blocks = 0;
  uint64_t sha_multi_blocks = 0;
  uint64_t bytes_hashed = 0;
  uint64_t hmac_lane_batches = 0;
  // bft
  uint64_t digest_memo_hits = 0;
  uint64_t digest_memo_misses = 0;
  uint64_t verify_memo_hits = 0;
  uint64_t verify_memo_misses = 0;
  uint64_t requests_executed = 0;
  uint64_t batches_executed = 0;
  uint64_t view_changes = 0;
  uint64_t client_retries = 0;
  uint64_t client_timeout_retries = 0;
  // base
  uint64_t checkpoints = 0;  // traced runs only (ProtocolObserver)
  uint64_t cow_copies = 0;
  uint64_t tree_rehashed = 0;
  uint64_t tree_preserved = 0;
  uint64_t wal_records = 0;
  uint64_t st_bytes_fetched = 0;
  uint64_t st_leaves_fetched = 0;
  uint64_t st_leaves_local = 0;
  // util
  uint64_t pool_jobs = 0;
  uint64_t encode_allocs = 0;
  uint64_t encode_reuses = 0;

  bool operator==(const LayerCounts&) const = default;
};

struct RepResult {
  // Names of the output checks that failed; empty when all passed.
  std::vector<std::string> check_failures;
  // Timed client operations (latency in virtual microseconds).
  OpLedger ledger;
  SimTime elapsed_us = 0;  // virtual length of the measured window
  double setup_s = 0;      // wall: build the deployment and preload it
  double measure_s = 0;    // wall: the measured window
  LayerCounts counts;
  // Workload-specific virtual-time results.
  std::optional<SimTime> outage_us;          // kv_geo_crash
  std::optional<double> nfs_overhead_frac;   // andrew_hetero
  std::optional<SimTime> catchup_us;         // kv_geo_crash
  // kv_geo_crash, after the window: crash of the new primary -> first
  // committed Set (only the restarted replica can complete the quorum).
  std::optional<SimTime> second_outage_us;
  std::vector<SimTime> queue_waits_us;       // open loop only
  // Wall time of each Replica::RestartFromStorage call.
  std::vector<double> restart_wall_ms;
  // Tracer aggregates bracketing the measured window (traced runs only).
  Tracer::Totals trace_begin;
  Tracer::Totals trace_end;
  bftbase::Digest event_trace;  // set when RepOptions::event_trace

  bool ok() const { return check_failures.empty(); }
  // Digest over every seed-determined result (virtual latencies, virtual
  // times, per-layer counts); equal across repetitions of one seed.
  bftbase::Digest Fingerprint() const;
};

// --- Generated inputs (pure functions of the seed) ---------------------------
struct KvOp {
  uint32_t slot = 0;
  uint32_t value_size = 0;
  bool read = false;
  SimTime due_us = 0;  // open loop only
};
// Closed loop: ops[c] is client c's sequence of Sets.
std::vector<std::vector<KvOp>> MakeKvLanInputs(uint64_t seed, bool small);
// Open loop: one schedule of Gets and Sets.
std::vector<KvOp> MakeKvGeoInputs(uint64_t seed, bool small);
bftbase::AndrewConfig MakeAndrewConfig(uint64_t seed, bool small);
// Deterministic value bytes for request `request` of the given size.
bftbase::Bytes ValueFor(uint64_t seed, uint64_t request, uint32_t size);

// --- Workloads ---------------------------------------------------------------
RepResult RunKvLanHot(const RepOptions& opts);
RepResult RunAndrewHetero(const RepOptions& opts);
RepResult RunKvGeoCrash(const RepOptions& opts);

struct WorkloadInfo {
  const char* name;
  RepResult (*run)(const RepOptions&);
  // Latency limit for the limit-miss fraction (virtual ms).
  int64_t latency_limit_ms;
};
const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
