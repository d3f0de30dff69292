// Experiment E6 — proactive recovery / software rejuvenation (paper
// §2.2, §3.4): recovery duration vs state size, service availability during
// staggered rotation, and the window of vulnerability.
//
// Experiment E15 — durable restart-from-disk: crash-recovery cost (checkpoint
// page load + WAL-tail replay) as a function of object count, up to 1M+
// abstract objects, with the replayed root digest verified against an
// independently computed expected root. `--wal-smoke` runs the small
// configuration as a CI gate; results land in BENCH_recovery.json.
//
// Experiment E26 — what a cold replica keeps per abstract object: the live
// heap bytes of a KV adapter plus its checkpoint manager and partition tree
// (counted by tests/heap_counter.cc, which replaces the global operator new
// in this binary), the interior nodes its partition tree stores, and the
// wall time, GetObj calls and real interior-node hashes of the FullResync
// that construction and every restart from disk run.
#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/bench_common.h"
#include "src/base/checkpoint_manager.h"
#include "src/base/kv_adapter.h"
#include "src/base/replica_service.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/sim/storage.h"
#include "src/util/hotpath.h"
#include "tests/checkpoint_helpers.h"
#include "tests/heap_counter.h"

using namespace bftbase;

namespace {

// Recovery duration as a function of abstract-state size. The recovering
// replica rebuilds from its own saved copy (no corruption), so only the
// save/reboot/verify path is measured — the paper's "frequent recoveries
// are cheap" claim.
void RecoveryDurationSweep() {
  std::printf("\n-- recovery duration vs state size (clean replica) --\n");
  Table table({"objects", "state bytes", "recovery (s)", "fetched",
               "from local disk"});
  for (size_t objects : {1024u, 4096u, 16384u}) {
    ServiceGroup::Params params;
    params.config.f = 1;
    params.config.checkpoint_interval = 16;
    params.config.log_window = 32;
    params.seed = 500 + objects;
    ServiceGroup group(params, [objects](Simulation* sim, NodeId) {
      return std::make_unique<KvAdapter>(sim, objects);
    });
    Bytes blob(256, 0x11);
    size_t state_bytes = 0;
    for (uint32_t i = 0; i < objects; i += 8) {
      if (!group.Invoke(KvAdapter::EncodeSet(i, blob)).ok()) {
        std::printf("load failed\n");
        return;
      }
      state_bytes += blob.size();
    }
    group.sim().RunUntil(group.sim().Now() + 5 * kSecond);

    group.replica(2).StartProactiveRecovery();
    if (!group.sim().RunUntilTrue(
            [&] { return group.replica(2).recoveries_completed() == 1; },
            group.sim().Now() + 900 * kSecond)) {
      std::printf("recovery did not complete\n");
      return;
    }
    char secs[32];
    std::snprintf(secs, sizeof(secs), "%.2f",
                  static_cast<double>(
                      group.replica(2).last_recovery_duration()) /
                      kSecond);
    table.AddRow({FormatCount(objects), FormatCount(state_bytes), secs,
                  FormatCount(group.service(2).state_transfer()
                                  .leaves_fetched()),
                  FormatCount(group.service(2).state_transfer()
                                  .leaves_from_local_source())});
  }
  table.Print();
}

// Availability of the file service while the whole group rotates through
// staggered recoveries.
void AvailabilityDuringRotation() {
  std::printf("\n-- availability during a full staggered rotation --\n");
  auto params = StandardParams(77);
  params.config.checkpoint_interval = 32;
  params.config.log_window = 64;
  auto group = MakeBasefsGroup(
      params,
      {FsVendor::kLinear, FsVendor::kTree, FsVendor::kLog, FsVendor::kLinear},
      512);
  ReplicatedFsSession fs(group.get(), 0, 120 * kSecond);
  auto file = fs.Create(fs.Root(), "probe");
  if (!file.ok()) {
    std::printf("setup failed\n");
    return;
  }
  fs.Write(*file, 0, ToBytes("probe-data"));

  const SimTime period = 6 * kMinute;
  group->EnableProactiveRecovery(period);
  int attempted = 0;
  int succeeded = 0;
  SimTime worst = 0;
  while (true) {
    uint64_t recoveries = 0;
    for (int r = 0; r < group->replica_count(); ++r) {
      recoveries += group->replica(r).recoveries_completed();
    }
    if (recoveries >= 4) {
      break;
    }
    SimTime start = group->sim().Now();
    auto data = fs.Read(*file, 0, 64);
    ++attempted;
    if (data.ok()) {
      ++succeeded;
    }
    worst = std::max(worst, group->sim().Now() - start);
    group->sim().RunUntil(group->sim().Now() + 5 * kSecond);
  }
  std::printf("probe reads during rotation: %d/%d succeeded, worst latency "
              "%.0f ms\n",
              succeeded, attempted, static_cast<double>(worst) / 1000.0);
  std::printf("window of vulnerability Tv = 2Tk + Tr = %.0f min at a %.0f "
              "min recovery period\n",
              static_cast<double>(
                  ServiceGroup::WindowOfVulnerability(period)) /
                  kMinute,
              static_cast<double>(period) / kMinute);
}

void WindowOfVulnerabilityTable() {
  std::printf("\n-- window of vulnerability vs recovery period --\n");
  Table table({"recovery period (min)", "Tv = 2Tk + Tr (min)"});
  for (int minutes : {2, 4, 6, 10, 17, 30}) {
    char tv[32];
    std::snprintf(tv, sizeof(tv), "%.1f",
                  static_cast<double>(ServiceGroup::WindowOfVulnerability(
                      minutes * kMinute)) /
                      kMinute);
    table.AddRow({FormatCount(minutes), tv});
  }
  table.Print();
  std::printf("the paper's Andrew run used Tv = 17 min (period ~5.7 min).\n");
}

// --- E15: durable restart-from-disk ------------------------------------------

constexpr size_t kValueBytes = 64;

// One single-request batch per object, the way the replica logs them.
void RunDurableBatch(ReplicaService& svc, SeqNum seq, uint32_t slot,
                     const Bytes& value, bool log) {
  Bytes nondet = ReplicaService::EncodeNondet(seq * 100);
  Bytes op = KvAdapter::EncodeSet(slot, value);
  svc.Execute(op, /*client=*/100, nondet, false);
  if (log) {
    svc.LogBatch(seq, BytesView(nondet.data(), nondet.size()),
                 {ServiceInterface::ExecutedRequest{100, seq, op}});
  }
}

// The expected post-recovery root, computed by a twin with no storage.
Digest ExpectedRoot(size_t objects) {
  Simulation sim(9100);
  KvAdapter adapter(&sim, objects);
  Config config;
  ReplicaService twin(&sim, config, 1, &adapter);
  Bytes value(kValueBytes, 0x5a);
  for (SeqNum seq = 1; seq <= objects; ++seq) {
    RunDurableBatch(twin, seq, static_cast<uint32_t>(seq - 1), value,
                    /*log=*/false);
  }
  return TakeCheckpointNow(sim, twin, objects);
}

struct DurableCell {
  bool ok = false;
  bool verified = false;
  size_t objects = 0;
  size_t state_bytes = 0;
  SeqNum checkpoint_seq = 0;
  uint64_t tail_batches = 0;
  uint64_t replayed = 0;
  uint64_t bytes_read = 0;
  SimTime load_us = 0;
  SimTime replay_us = 0;
};

// Populates N objects through the durable path (one batch per object, a
// persisted checkpoint before the final `tail` batches), crashes, recovers
// from disk, and measures the virtual-time recovery cost under an NVMe-class
// storage cost model.
DurableCell RunDurableRecovery(size_t objects, uint64_t tail) {
  CostModel cost;
  cost.storage_fsync_us = 120;       // NVMe-class sync
  cost.storage_us_per_byte = 0.001;  // ~1 GB/s sequential
  Simulation sim(9000, cost);
  StorageDevice dev(&sim, 0);
  KvAdapter adapter(&sim, objects);
  ReplicaService::Options options;
  options.storage = &dev;
  Config config;
  ReplicaService svc(&sim, config, 0, &adapter, options);

  DurableCell cell;
  cell.objects = objects;
  cell.state_bytes = objects * kValueBytes;
  cell.checkpoint_seq = objects - tail;
  cell.tail_batches = tail;

  Bytes value(kValueBytes, 0x5a);
  for (SeqNum seq = 1; seq <= objects; ++seq) {
    RunDurableBatch(svc, seq, static_cast<uint32_t>(seq - 1), value,
                    /*log=*/true);
    if (seq == cell.checkpoint_seq) {
      TakeCheckpointNow(sim, svc, seq);  // persists pages, truncates the WAL
    }
  }

  svc.OnCrash();
  uint64_t read_before = dev.bytes_read();
  auto info = svc.RecoverFromStorage();
  if (!info.ok || info.checkpoint_seq != cell.checkpoint_seq ||
      info.last_seq != objects) {
    return cell;
  }
  cell.ok = true;
  cell.replayed = info.replayed.size();
  cell.bytes_read = dev.bytes_read() - read_before;
  cell.load_us = info.load_time_us;
  cell.replay_us = info.replay_time_us;
  cell.verified =
      TakeCheckpointNow(sim, svc, objects) == ExpectedRoot(objects);
  return cell;
}

// --- E26: cold-deployment bookkeeping per object ------------------------------

// The gates: a cold deployment keeps a dirty bit per leaf and a slot word
// per block of leaves, but no record per object; a leaf digest and a slot
// per object would read ~57, dense interior nodes add ~2.2. Its partition
// tree stores the path to the last leaf, at most branching x depth + 1
// interior nodes; the dense tree stores ~objects / 15. Its FullResync hashes
// one cold digest per height plus the partial last node of each level, at
// most 2 x depth interior nodes; hashing every node would read ~objects /
// 15. It walks the adapter's runs of equal values, one GetObj per run: a
// cold adapter is one run of empty slots, while a walk object by object
// would read `objects`.
constexpr double kMaxColdBytesPerObject = 1.0;
constexpr uint64_t kMaxColdGetObjCalls = 2;

// A KvAdapter that counts the GetObj calls made on it.
class CountingKvAdapter : public KvAdapter {
 public:
  using KvAdapter::KvAdapter;
  Bytes GetObj(size_t index) override {
    ++getobj_calls;
    return KvAdapter::GetObj(index);
  }
  uint64_t getobj_calls = 0;
};

struct ColdCell {
  size_t objects = 0;
  double bytes_per_object = 0;
  double resync_wall_ms = 0;  // median of kResyncRuns
  uint64_t getobj_calls = 0;  // most in one run
  uint64_t nodes_rehashed = 0;  // real interior hashes: most in one run
  size_t nodes_stored = 0;  // interior nodes the tree stores after the runs
  int depth = 0;
  size_t branching = 0;
};

constexpr int kResyncRuns = 5;

ColdCell MeasureColdDeployment(size_t objects) {
  ColdCell cell;
  cell.objects = objects;
  Simulation sim(1);
  const size_t before = heap_counter::LiveBytes();
  CountingKvAdapter adapter(&sim, objects);
  CheckpointManager cm(&sim, &adapter);
  cell.bytes_per_object =
      static_cast<double>(heap_counter::LiveBytes() - before) / objects;
  std::vector<double> runs;
  for (int i = 0; i < kResyncRuns; ++i) {
    const uint64_t rehashed = hotpath::counters().tree_nodes_rehashed;
    const uint64_t calls = adapter.getobj_calls;
    const auto start = std::chrono::steady_clock::now();
    cm.FullResync(/*seq=*/0, /*protocol_state=*/Bytes());
    runs.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    cell.getobj_calls =
        std::max(cell.getobj_calls, adapter.getobj_calls - calls);
    cell.nodes_rehashed =
        std::max(cell.nodes_rehashed,
                 hotpath::counters().tree_nodes_rehashed - rehashed);
  }
  std::sort(runs.begin(), runs.end());
  cell.resync_wall_ms = runs[runs.size() / 2];
  cell.nodes_stored = cm.tree().stored_nodes();
  cell.depth = cm.tree().depth();
  cell.branching = cm.tree().branching();
  return cell;
}

// One row per state size into the table and the JSON array. Returns false
// if any row keeps more than kMaxColdBytesPerObject, makes more than
// kMaxColdGetObjCalls GetObj calls, hashes more than 2 x depth interior
// nodes per FullResync or stores more than branching x depth + 1.
bool ColdDeploymentSweep(bool smoke, JsonWriter& json) {
  std::printf("\n-- E26: cold-deployment bookkeeping vs object count --\n");
  std::vector<size_t> sizes;
  if (smoke) {
    sizes = {size_t{1} << 16};
  } else {
    for (int bits = 12; bits <= 20; bits += 2) {
      sizes.push_back(size_t{1} << bits);
    }
  }
  Table table({"objects", "bytes/object", "FullResync wall (ms)",
               "GetObj calls", "nodes hashed", "nodes stored", "depth"});
  json.Key("cold_deployment");
  json.BeginArray();
  bool ok = true;
  for (size_t objects : sizes) {
    ColdCell cell = MeasureColdDeployment(objects);
    ok = ok && cell.bytes_per_object <= kMaxColdBytesPerObject &&
         cell.getobj_calls <= kMaxColdGetObjCalls &&
         cell.nodes_rehashed <= 2 * static_cast<uint64_t>(cell.depth) &&
         cell.nodes_stored <=
             cell.branching * static_cast<size_t>(cell.depth) + 1;
    char per_object[32], wall[32];
    std::snprintf(per_object, sizeof(per_object), "%.2f",
                  cell.bytes_per_object);
    std::snprintf(wall, sizeof(wall), "%.3f", cell.resync_wall_ms);
    table.AddRow({FormatCount(objects), per_object, wall,
                  FormatCount(cell.getobj_calls),
                  FormatCount(cell.nodes_rehashed),
                  FormatCount(cell.nodes_stored), FormatCount(cell.depth)});
    json.BeginObject();
    json.Field("objects", static_cast<uint64_t>(objects));
    json.Field("bookkeeping_bytes_per_object", cell.bytes_per_object);
    json.Field("full_resync_wall_ms", cell.resync_wall_ms);
    json.Field("full_resync_getobj_calls", cell.getobj_calls);
    json.Field("full_resync_nodes_rehashed", cell.nodes_rehashed);
    json.Field("tree_nodes_stored", static_cast<uint64_t>(cell.nodes_stored));
    json.Field("tree_depth", static_cast<uint64_t>(cell.depth));
    json.EndObject();
  }
  json.EndArray();
  table.Print();
  std::printf("bytes/object: live heap of a KV adapter + checkpoint manager "
              "+ partition tree\n"
              "with no object written, over the object count (gate: <= "
              "%.0f); FullResync\nwall: median of %d runs; GetObj calls: "
              "adapter reads of one FullResync\n(gate: <= %llu); nodes "
              "hashed: real interior-node hashes of one\nFullResync (gate: "
              "<= 2 x depth); nodes stored: interior nodes the tree\nkeeps "
              "(gate: <= branching x depth + 1).\n",
              kMaxColdBytesPerObject, kResyncRuns,
              static_cast<unsigned long long>(kMaxColdGetObjCalls));
  if (!ok) {
    std::printf("FAIL: a cold deployment keeps more than %.0f bytes per "
                "object, makes more\nthan %llu GetObj calls, hashes more "
                "than 2 x depth interior nodes per\nFullResync or stores "
                "more than branching x depth + 1\n",
                kMaxColdBytesPerObject,
                static_cast<unsigned long long>(kMaxColdGetObjCalls));
  }
  return ok;
}

// Recovery-time vs object-count table (EXPERIMENTS.md E15), the cold
// deployment rows (E26), and the JSON artifact. Returns false if any cell
// failed or failed verification, or a cold deployment broke its gate.
bool DurableRecoverySweep(bool smoke, const std::string& json_path) {
  std::printf("\n-- E15: restart-from-disk cost vs object count --\n");
  std::vector<size_t> sizes;
  if (smoke) {
    sizes = {2048, 8192};
  } else {
    sizes = {65536, 262144, 1048576};
  }

  Table table({"objects", "state bytes", "ckpt seq", "tail batches",
               "load (ms)", "replay (ms)", "total (ms)", "root verified"});
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_recovery");
  json.Field("smoke", smoke);
  json.Field("storage_fsync_us", static_cast<uint64_t>(120));
  json.Field("storage_us_per_byte", 0.001);
  json.Key("durable_recovery");
  json.BeginArray();

  bool all_ok = true;
  for (size_t objects : sizes) {
    uint64_t tail = objects / 16 < 4096 ? objects / 16 : 4096;
    DurableCell cell = RunDurableRecovery(objects, tail);
    all_ok = all_ok && cell.ok && cell.verified;
    char load[32], replay[32], total[32];
    std::snprintf(load, sizeof(load), "%.2f", cell.load_us / 1000.0);
    std::snprintf(replay, sizeof(replay), "%.2f", cell.replay_us / 1000.0);
    std::snprintf(total, sizeof(total), "%.2f",
                  (cell.load_us + cell.replay_us) / 1000.0);
    table.AddRow({FormatCount(cell.objects), FormatCount(cell.state_bytes),
                  FormatCount(cell.checkpoint_seq),
                  FormatCount(cell.tail_batches), load, replay, total,
                  cell.ok ? (cell.verified ? "yes" : "NO") : "FAILED"});
    json.BeginObject();
    json.Field("objects", static_cast<uint64_t>(cell.objects));
    json.Field("state_bytes", static_cast<uint64_t>(cell.state_bytes));
    json.Field("checkpoint_seq", static_cast<uint64_t>(cell.checkpoint_seq));
    json.Field("tail_batches", cell.tail_batches);
    json.Field("replayed_requests", cell.replayed);
    json.Field("bytes_read", cell.bytes_read);
    json.Field("load_ms", cell.load_us / 1000.0);
    json.Field("replay_ms", cell.replay_us / 1000.0);
    json.Field("total_ms", (cell.load_us + cell.replay_us) / 1000.0);
    json.Field("recovered", cell.ok);
    json.Field("root_verified", cell.verified);
    json.EndObject();
  }
  json.EndArray();
  json.Field("all_verified", all_ok);
  table.Print();
  std::printf("recovery = durable checkpoint page load + WAL-tail replay; "
              "the replayed\nroot digest is checked against an independently "
              "computed expected root.\n");
  const bool cold_ok = ColdDeploymentSweep(smoke, json);
  EmitBenchMetadata(json);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::printf("failed to write %s\n", json_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return all_ok && cold_ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool wal_smoke = false;
  std::string json_path = "BENCH_recovery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal-smoke") == 0) {
      wal_smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  if (wal_smoke) {
    // CI gate: the durable restart-from-disk path in its short
    // configuration; fails if recovery breaks or the root diverges, or a
    // cold 2^16-object deployment keeps more than 1 byte per object, makes
    // more than 2 GetObj calls, hashes more than 2 x depth interior nodes
    // per FullResync or stores more than branching x depth + 1.
    PrintHeader("E15 (smoke): durable restart-from-disk");
    return DurableRecoverySweep(/*smoke=*/true, json_path) ? 0 : 1;
  }

  PrintHeader("E6: proactive recovery — duration, availability, Tv");
  RecoveryDurationSweep();
  AvailabilityDuringRotation();
  WindowOfVulnerabilityTable();
  bool ok = DurableRecoverySweep(/*smoke=*/false, json_path);
  return ok ? 0 : 1;
}
