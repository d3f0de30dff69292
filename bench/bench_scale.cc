// Large-group scale benchmark for the event kernel (BENCH_scale.json).
//
// Three parts. First, the harness-cost figure: an f=1-group, single-client
// message/timer flood — full Network fabric (multicast, fault checks, cost
// model, CPU serialization, retransmission-style timer arm/cancel churn) with
// protocol-free handlers — reported as sim events per wall-clock second. The
// flood is the right instrument for what the kernel costs per event because
// the replicated protocol itself is crypto-bound. Its event count is
// deterministic and pinned at commit fb72bea, where the std::priority_queue
// kernel this one replaced still ran the identical event sequence.
//
// Second, a sweep over group size n ∈ {4, 7, 10, 13, 25} × concurrent
// clients ∈ {1, 16, 64, 256} on the closed-loop KV protocol, reporting sim
// events/sec, wall-clock requests/sec, peak scheduler queue depth and the
// event-pool reuse rate. This is the scaling surface the paper's testbed
// could not reach (their experiments stop at n = 4).
//
// Third, the sharded scale-OUT sweep: S independent f=1 BASE groups behind
// the key→shard router (src/shard/), driven by the closed-loop zipfian keyed
// KV workload, over shards ∈ {1, 2, 4, 8} × router clients. Reported per
// cell: aggregate committed ops/sec on the SIMULATED clock (the scaling
// claim is about the replicated system, not the host), per-shard balance
// under the zipfian skew, and router overhead (trampoline + harness events
// per sub-op). Gated: S = 4 must deliver ≥ 3x the S = 1 aggregate
// simulated-time throughput at the same client count.
//
// Usage: bench_scale [--smoke] [--json PATH] [--threads N]
//   --smoke    shrink request counts and the sweep grid (CI's ctest target)
//   --json     where to write the JSON artifact (default: BENCH_scale.json)
//   --threads  worker-pool size (default: BASE_THREADS, else 0)
//
// Exits nonzero if any run fails to complete, the flood's event count moves
// off its pin, or the sharded sweep misses its scaling floor (≥3.0x full,
// ≥2.0x smoke).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/shard/keyed_workload.h"
#include "src/shard/shard_router.h"
#include "src/sim/network.h"
#include "src/util/hotpath.h"

using namespace bftbase;

namespace {

constexpr uint32_t kKvSlots = 4096;

struct ScaleConfig {
  int f = 1;
  int clients = 1;
  int requests_per_client = 100;
  uint64_t seed = 7101;
};

struct ScaleStats {
  bool ok = false;
  double wall_sec = 0;
  uint64_t requests = 0;
  uint64_t sim_events = 0;
  SimTime sim_elapsed = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t pool_allocs = 0;
  uint64_t pool_reuses = 0;
  uint64_t events_requeued = 0;
  uint64_t events_pruned = 0;
  uint64_t messages_delivered = 0;

  double RequestsPerSec() const {
    return wall_sec > 0 ? requests / wall_sec : 0;
  }
  double EventsPerSec() const {
    return wall_sec > 0 ? sim_events / wall_sec : 0;
  }
  // Fraction of event slots served from the free list instead of growing
  // the pool: the steady-state figure of merit for allocation recycling.
  double PoolReuseRate() const {
    const uint64_t total = pool_allocs + pool_reuses;
    return total > 0 ? static_cast<double>(pool_reuses) / total : 0;
  }
};

// --- Kernel flood: the harness-cost instrument ------------------------------
//
// An f=1-sized group (n = 4) plus one client, speaking a protocol-shaped
// but crypto-free exchange: client sends a 1 KiB request to the primary,
// the primary multicasts it to the backups, each backup acks the client
// directly; every replica handler charges CPU (so deliveries defer behind
// busy nodes and requeue) and re-arms a retransmission-style timer,
// cancelling the previous one (so the cancel/prune path and the slot free
// list churn exactly like PBFT's per-request view-change timers do).

constexpr int kFloodGroup = 4;              // 3f+1 with f = 1
constexpr NodeId kFloodClient = kFloodGroup;
constexpr SimTime kFloodCpuUs = 10;         // stand-in for handler work
constexpr SimTime kFloodTimerUs = 1000;     // retransmission-style timer

class FloodReplica : public SimNode {
 public:
  FloodReplica(Simulation* sim, NodeId id) : sim_(sim), id_(id) {}

  void OnMessage(NodeId from, const Bytes& payload) override {
    sim_->ChargeCpu(kFloodCpuUs);
    if (id_ == 0 && from == kFloodClient) {
      // Primary: relay the request to every backup (one shared buffer).
      sim_->network().Multicast(0, 1, kFloodGroup, payload);
      RearmTimer();
    } else if (from == 0) {
      // Backup: ack straight to the client.
      Bytes ack(64, static_cast<uint8_t>(0x20 + id_));
      sim_->network().Send(id_, kFloodClient, std::move(ack));
      RearmTimer();
    }
  }

 private:
  void RearmTimer() {
    if (timer_ != 0) {
      sim_->Cancel(timer_);
    }
    timer_ = sim_->After(id_, kFloodTimerUs, [] {});
  }

  Simulation* sim_;
  NodeId id_;
  TimerId timer_ = 0;
};

class FloodClient : public SimNode {
 public:
  FloodClient(Simulation* sim, uint64_t rounds)
      : sim_(sim), remaining_(rounds), request_(1024, 0xab) {}

  void Start() { IssueNext(); }
  bool Done() const { return done_; }
  uint64_t completed() const { return completed_; }

  void OnMessage(NodeId, const Bytes&) override {
    sim_->ChargeCpu(kFloodCpuUs);
    if (++acks_ >= kFloodGroup - 1) {
      acks_ = 0;
      ++completed_;
      IssueNext();
    }
  }

 private:
  void IssueNext() {
    if (remaining_ == 0) {
      done_ = true;
      return;
    }
    --remaining_;
    Bytes req(request_);
    sim_->network().Send(kFloodClient, 0, std::move(req));
  }

  Simulation* sim_;
  uint64_t remaining_;
  int acks_ = 0;
  uint64_t completed_ = 0;
  bool done_ = false;
  Bytes request_;
};

ScaleStats RunKernelFlood(uint64_t rounds, uint64_t seed) {
  const hotpath::Counters before = hotpath::counters();

  Simulation sim(seed);
  std::vector<std::unique_ptr<FloodReplica>> replicas;
  for (NodeId id = 0; id < kFloodGroup; ++id) {
    replicas.push_back(std::make_unique<FloodReplica>(&sim, id));
    sim.AddNode(id, replicas.back().get());
  }
  FloodClient client(&sim, rounds);
  sim.AddNode(kFloodClient, &client);

  auto start = std::chrono::steady_clock::now();
  client.Start();
  bool finished = sim.RunUntilTrue([&] { return client.Done(); },
                                   static_cast<SimTime>(rounds) * kSecond);
  sim.RunUntilIdle();  // drain the uncancelled tail timers
  auto stop = std::chrono::steady_clock::now();

  ScaleStats s;
  s.ok = finished && client.completed() == rounds;
  s.wall_sec = std::chrono::duration<double>(stop - start).count();
  s.requests = client.completed();
  s.sim_events = sim.events_processed();
  s.sim_elapsed = sim.Now();
  s.peak_queue_depth = sim.peak_queue_depth();
  const hotpath::Counters& after = hotpath::counters();
  s.pool_allocs = after.event_pool_allocs - before.event_pool_allocs;
  s.pool_reuses = after.event_pool_reuses - before.event_pool_reuses;
  s.events_requeued = after.events_requeued - before.events_requeued;
  s.events_pruned = after.events_pruned - before.events_pruned;
  s.messages_delivered = sim.network().messages_delivered();
  return s;
}

// The bench_wallclock closed-loop KV workload: each client keeps one Set in
// flight until its quota is done.
ScaleStats RunOnce(const ScaleConfig& cfg) {
  const hotpath::Counters before = hotpath::counters();

  ServiceGroup::Params params;
  params.config.f = cfg.f;
  params.config.checkpoint_interval = 128;
  params.config.log_window = 256;
  params.config.max_clients = std::max(16, cfg.clients);
  params.seed = cfg.seed;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });

  const uint64_t total =
      static_cast<uint64_t>(cfg.clients) * cfg.requests_per_client;
  uint64_t completed = 0;
  Bytes value(1024, 0xab);
  std::vector<int> issued(cfg.clients, 0);
  std::vector<std::function<void()>> issue(cfg.clients);
  for (int i = 0; i < cfg.clients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= cfg.requests_per_client) {
        return;
      }
      ++issued[i];
      uint32_t slot = static_cast<uint32_t>(i * 997 + issued[i]) % kKvSlots;
      group.client(i).Invoke(KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false, [&, i](Status, Bytes) {
                               ++completed;
                               issue[i]();
                             });
    };
  }

  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < cfg.clients; ++i) {
    issue[i]();
  }
  bool finished = group.sim().RunUntilTrue(
      [&] { return completed == total; },
      static_cast<SimTime>(total) * kSecond);
  auto stop = std::chrono::steady_clock::now();

  ScaleStats s;
  s.ok = finished;
  s.wall_sec = std::chrono::duration<double>(stop - start).count();
  s.requests = completed;
  s.sim_events = group.sim().events_processed();
  s.sim_elapsed = group.sim().Now();
  s.peak_queue_depth = group.sim().peak_queue_depth();
  const hotpath::Counters& after = hotpath::counters();
  s.pool_allocs = after.event_pool_allocs - before.event_pool_allocs;
  s.pool_reuses = after.event_pool_reuses - before.event_pool_reuses;
  s.events_requeued = after.events_requeued - before.events_requeued;
  s.events_pruned = after.events_pruned - before.events_pruned;
  s.messages_delivered = group.sim().network().messages_delivered();
  return s;
}

void EmitRunJson(JsonWriter& json, const ScaleStats& s) {
  json.BeginObject();
  json.Field("completed", s.ok);
  json.Field("requests", s.requests);
  json.Field("wall_sec", s.wall_sec);
  json.Field("wall_requests_per_sec", s.RequestsPerSec());
  json.Field("sim_events", s.sim_events);
  json.Field("sim_events_per_sec", s.EventsPerSec());
  json.Field("sim_elapsed_us", static_cast<uint64_t>(s.sim_elapsed));
  json.Field("peak_queue_depth", s.peak_queue_depth);
  json.Field("event_pool_allocs", s.pool_allocs);
  json.Field("event_pool_reuses", s.pool_reuses);
  json.Field("pool_reuse_rate", s.PoolReuseRate());
  json.Field("events_requeued", s.events_requeued);
  json.Field("events_pruned", s.events_pruned);
  json.Field("messages_delivered", s.messages_delivered);
  json.EndObject();
}

std::string FormatRate(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

// --- Sharded keyed sweep (Part 3) ----------------------------------------

struct ShardCell {
  int shards = 1;
  int clients = 1;
  uint64_t seed = 0;
  int ops_per_client = 0;
  double wall_sec = 0;
  uint64_t sim_events = 0;
  uint64_t subops = 0;
  KeyedWorkloadResult result;

  // Router + harness events per protocol sub-op: each sub-op costs one
  // trampoline event in the owning shard's queue, and each logical op adds
  // a think-time timer and a timeout timer. Everything else is protocol.
  uint64_t RouterOverheadEvents() const {
    return subops + 2 * result.logical_ops;
  }
  double RouterOverheadFraction() const {
    return sim_events > 0
               ? static_cast<double>(RouterOverheadEvents()) / sim_events
               : 0;
  }
};

ShardCell RunShardCell(int shards, int clients, int ops_per_client,
                       uint64_t seed) {
  ShardCell cell;
  cell.shards = shards;
  cell.clients = clients;
  cell.seed = seed;
  cell.ops_per_client = ops_per_client;

  ShardedDeployment::Params params;
  params.shards = shards;
  params.clients = clients;
  params.seed = seed;
  params.keys = kKvSlots;
  ShardedDeployment dep(params);

  KeyedWorkloadOptions opts;
  opts.seed = seed;
  opts.clients = clients;
  opts.ops_per_client = ops_per_client;
  // Saturating closed loop; the exhaustive checker cannot handle thousands
  // of ops on one zipfian-hot key, so the sweep relies on the keyed history
  // digest (pinned by tests/shard_test.cc) instead.
  opts.op_gap = 0;
  opts.check_linearizability = false;

  auto start = std::chrono::steady_clock::now();
  cell.result = RunKeyedWorkload(dep, opts);
  auto stop = std::chrono::steady_clock::now();
  cell.wall_sec = std::chrono::duration<double>(stop - start).count();
  cell.sim_events = dep.TotalEventsProcessed();
  for (int c = 0; c < clients; ++c) {
    cell.subops += dep.client(c).subops();
  }
  return cell;
}

std::string FormatOps(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string FormatImbalance(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_scale.json";
  int pool_threads = WorkerPool::ThreadsFromEnv(0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      pool_threads = std::atoi(argv[++i]);
    }
  }
  WorkerPool::Global().SetThreads(pool_threads > 0 ? pool_threads : 0);

  PrintHeader(smoke ? "Event-kernel scale bench (smoke config)"
                    : "Event-kernel scale bench: harness cost, group-size "
                      "and shard sweeps");

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_scale");
  json.Field("smoke", smoke);

  bool all_ok = true;

  // --- Part 1: harness cost, f=1 single-client kernel flood ----------------
  const uint64_t flood_rounds = smoke ? 3000 : 30000;
  const uint64_t flood_seed = 7100;
  // Seven events per round plus the four tail timers, pinned at fb72bea: a
  // kernel change that adds, drops or splits events moves this count.
  const uint64_t flood_pinned_events = smoke ? 21004 : 210004;
  // Untimed warmup so the process-global buffer pool and the allocator are
  // warm for the timed run.
  RunKernelFlood(flood_rounds / 10, flood_seed);
  ScaleStats flood = RunKernelFlood(flood_rounds, flood_seed);
  all_ok = all_ok && flood.ok;
  const bool flood_events_met = flood.sim_events == flood_pinned_events;

  Table flood_table({"workload", "req/s", "sim ev/s", "events", "peak queue",
                     "pool reuse"});
  flood_table.AddRow({"flood", FormatRate(flood.RequestsPerSec()),
                      FormatRate(flood.EventsPerSec()),
                      FormatCount(flood.sim_events),
                      FormatCount(flood.peak_queue_depth),
                      FormatPercent(flood.PoolReuseRate())});
  flood_table.Print();
  std::printf("flood events: %llu (pinned %llu)\n",
              static_cast<unsigned long long>(flood.sim_events),
              static_cast<unsigned long long>(flood_pinned_events));

  json.Key("kernel_flood");
  json.BeginObject();
  json.Key("params");
  json.BeginObject();
  json.Field("f", 1);
  json.Field("n", kFloodGroup);
  json.Field("clients", 1);
  json.Field("rounds", flood_rounds);
  json.Field("seed", flood_seed);
  json.EndObject();
  json.Key("run");
  EmitRunJson(json, flood);
  json.Field("pinned_sim_events", flood_pinned_events);
  json.Field("events_met", flood_events_met);
  json.EndObject();

  // --- Part 2: group-size × client-count sweep ------------------------------
  const std::vector<int> fs = smoke ? std::vector<int>{1, 8}
                                    : std::vector<int>{1, 2, 3, 4, 8};
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 64} : std::vector<int>{1, 16, 64, 256};

  Table sweep_table({"n", "clients", "req/s", "sim ev/s", "events",
                     "peak queue", "pool reuse", "requeued"});
  json.Key("sweep");
  json.BeginArray();
  uint64_t cell = 0;
  for (int f : fs) {
    for (int clients : client_counts) {
      ScaleConfig cfg;
      cfg.f = f;
      cfg.clients = clients;
      // Scale the per-client quota down with concurrency so every cell does
      // comparable total work; floor of 2 keeps the closed loop meaningful.
      const int budget = smoke ? 32 : 400;
      cfg.requests_per_client = std::max(2, budget / clients);
      cfg.seed = 7200 + cell;
      ++cell;
      ScaleStats s = RunOnce(cfg);
      all_ok = all_ok && s.ok;
      const int n = 3 * f + 1;
      sweep_table.AddRow({FormatCount(n), FormatCount(clients),
                          FormatRate(s.RequestsPerSec()),
                          FormatRate(s.EventsPerSec()),
                          FormatCount(s.sim_events),
                          FormatCount(s.peak_queue_depth),
                          FormatPercent(s.PoolReuseRate()),
                          FormatCount(s.events_requeued)});
      json.BeginObject();
      json.Key("params");
      json.BeginObject();
      json.Field("f", f);
      json.Field("n", n);
      json.Field("clients", clients);
      json.Field("requests_per_client", cfg.requests_per_client);
      json.Field("seed", cfg.seed);
      json.EndObject();
      json.Key("run");
      EmitRunJson(json, s);
      json.EndObject();
    }
  }
  json.EndArray();

  // --- Part 3: sharded keyed scale-out sweep -------------------------------
  // The scaling gate needs the S = 1 group saturated (queueing at the
  // primary): with too few closed-loop clients each shard is latency-bound
  // and splitting the load shows no queueing win. The full gate cell runs
  // 256 clients (64 per shard at S = 4); the smoke keeps 64 to stay cheap
  // under sanitizers, with a correspondingly lenient floor.
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> shard_clients =
      smoke ? std::vector<int>{64} : std::vector<int>{16, 64, 256};
  const int gate_clients = shard_clients.back();
  // Comparable total work per cell: the per-client quota shrinks as the
  // router client count grows. Large enough that the bounded ~1 ms start
  // ramp is noise against the steady state.
  const int shard_budget = smoke ? 512 : 2048;

  Table shard_table({"shards", "clients", "sim ops/s", "imbalance",
                     "committed", "timeouts", "subops", "router ovh",
                     "wall sec"});
  json.Key("shard_sweep");
  json.BeginArray();
  double gate_s1 = 0, gate_s4 = 0;
  uint64_t shard_cell_index = 0;
  for (int shards : shard_counts) {
    for (int clients : shard_clients) {
      const int ops = std::max(2, shard_budget / clients);
      ShardCell cell =
          RunShardCell(shards, clients, ops, 7300 + shard_cell_index);
      ++shard_cell_index;
      all_ok = all_ok && cell.result.completed;
      const double sim_ops = cell.result.SimOpsPerSec();
      if (clients == gate_clients && shards == 1) {
        gate_s1 = sim_ops;
      }
      if (clients == gate_clients && shards == 4) {
        gate_s4 = sim_ops;
      }
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.2f", cell.wall_sec);
      shard_table.AddRow(
          {FormatCount(static_cast<uint64_t>(shards)),
           FormatCount(static_cast<uint64_t>(clients)), FormatOps(sim_ops),
           FormatImbalance(cell.result.ShardImbalance()),
           FormatCount(static_cast<uint64_t>(cell.result.committed)),
           FormatCount(static_cast<uint64_t>(cell.result.timeouts)),
           FormatCount(cell.subops),
           FormatPercent(cell.RouterOverheadFraction()), wall});
      json.BeginObject();
      json.Key("params");
      json.BeginObject();
      json.Field("shards", shards);
      json.Field("clients", clients);
      json.Field("ops_per_client", cell.ops_per_client);
      json.Field("seed", cell.seed);
      json.Field("keys", static_cast<uint64_t>(kKvSlots));
      json.Field("distribution", "zipfian");
      json.Field("zipf_theta", 0.99);
      json.EndObject();
      json.Key("run");
      json.BeginObject();
      json.Field("completed", cell.result.completed);
      json.Field("committed", cell.result.committed);
      json.Field("timeouts", cell.result.timeouts);
      json.Field("rejected", cell.result.rejected);
      json.Field("logical_ops", cell.result.logical_ops);
      json.Field("subops", cell.subops);
      json.Field("multigets", cell.result.multigets);
      json.Field("cross_shard_reads", cell.result.cross_shard_reads);
      json.Field("sim_elapsed_us",
                 static_cast<uint64_t>(cell.result.elapsed_us));
      json.Field("aggregate_sim_ops_per_sec", sim_ops);
      json.Field("shard_imbalance", cell.result.ShardImbalance());
      json.Key("per_shard_committed");
      json.BeginArray();
      for (uint64_t c : cell.result.per_shard_committed) {
        json.Value(c);
      }
      json.EndArray();
      json.Field("router_overhead_events", cell.RouterOverheadEvents());
      json.Field("router_overhead_event_fraction",
                 cell.RouterOverheadFraction());
      json.Field("sim_events", cell.sim_events);
      json.Field("wall_sec", cell.wall_sec);
      json.Field("history_digest", cell.result.history_digest.Hex(32));
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray();

  const double shard_ratio = gate_s1 > 0 ? gate_s4 / gate_s1 : 0;
  const double shard_floor = smoke ? 2.0 : 3.0;
  const bool shard_ratio_met = shard_ratio >= shard_floor;
  json.Key("shard_scaling");
  json.BeginObject();
  json.Field("gate_clients", gate_clients);
  json.Field("s1_sim_ops_per_sec", gate_s1);
  json.Field("s4_sim_ops_per_sec", gate_s4);
  json.Field("ratio", shard_ratio);
  json.Field("ratio_floor", shard_floor);
  json.Field("ratio_met", shard_ratio_met);
  json.EndObject();

  EmitBenchMetadata(json, WorkerPool::Global().threads(), nullptr,
                    shard_counts.back());
  json.EndObject();

  std::printf("\n");
  sweep_table.Print();
  std::printf("\n");
  shard_table.Print();
  std::printf(
      "sharded aggregate sim ops/s at %d clients: S=4 is %.2fx S=1 "
      "(floor %.2fx)\n",
      gate_clients, shard_ratio, shard_floor);

  if (!json.WriteFile(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_ok) {
    std::printf("FAILED: some runs did not complete\n");
    return 1;
  }
  if (!flood_events_met) {
    std::printf("FAILED: flood ran %llu events, pinned %llu\n",
                static_cast<unsigned long long>(flood.sim_events),
                static_cast<unsigned long long>(flood_pinned_events));
    return 1;
  }
  if (!shard_ratio_met) {
    std::printf("FAILED: sharded S=4/S=1 sim-throughput ratio %.2fx below "
                "%.2fx\n",
                shard_ratio, shard_floor);
    return 1;
  }
  return 0;
}
