// Wall-clock hot-path benchmark (BENCH_core.json).
//
// Every other bench in this repo reports *virtual* time from the cost model;
// this one measures what the substrate itself costs in real seconds — the
// event-processing rate is the ceiling on every experiment we can run. It
// drives a closed-loop KV workload through the full
// send→authenticate→deliver→verify path and reports wall-clock requests/sec,
// sim-events/sec, SHA-256 work per request and payload bytes copied per
// delivered message.
//
// Each configuration runs once. SHA-256 invocations per request and payload
// bytes copied per delivered message are deterministic per seed, so each is
// gated against a ceiling pinned when PRE-PREPAREs began to carry request
// digests instead of bodies (DESIGN.md §6): a digest or MAC cache that stops
// hitting, a body hashed twice, or a fabric that copies per recipient again
// pushes a figure over its ceiling.
//
// The worker-pool pair runs each configuration with the pool empty (every
// pipeline job claimed synchronously at its join point) and with N worker
// threads (--threads, default 4), and requires byte-identical EventTrace
// digests — the pool may only change wall-clock time, never behaviour.
//
// Usage: bench_wallclock [--smoke] [--json PATH] [--threads N]
//   --smoke    shrink the request counts (CI's bench-smoke ctest target)
//   --json     where to write the JSON artifact (default: BENCH_core.json)
//   --threads  worker-pool size for the "pool on" runs (default: the
//              BASE_THREADS environment variable, else 4)
//
// Exits nonzero if a run does not complete, a counter ceiling is exceeded,
// or the worker-pool pair fails its gates, so perf plumbing cannot silently
// rot.
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
#include "src/sim/network.h"
#include "src/util/hotpath.h"
#include "src/util/workerpool.h"

using namespace bftbase;

namespace {

constexpr uint32_t kKvSlots = 4096;

struct WallclockConfig {
  std::string name;
  int f = 1;
  int clients = 1;
  int requests_per_client = 400;
  size_t value_size = 1024;
  uint64_t seed = 7001;
  // Pinned ceilings (the smoke or full request counts).
  double max_sha_per_request = 0;
  double max_copied_per_delivered = 0;
};

struct RunStats {
  bool ok = false;
  double wall_sec = 0;
  uint64_t requests = 0;
  uint64_t sim_events = 0;
  SimTime sim_elapsed = 0;
  // Hot-path deltas over the run.
  uint64_t sha256_invocations = 0;
  uint64_t sha256_blocks = 0;
  uint64_t bytes_hashed = 0;
  uint64_t encode_allocs = 0;
  uint64_t encode_reuses = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t pool_jobs = 0;
  uint64_t pool_verify_jobs = 0;
  uint64_t pool_mac_shard_jobs = 0;
  uint64_t pool_digest_shard_jobs = 0;
  uint64_t verify_memo_hits = 0;
  // Network accounting (per-simulation, so no snapshot needed).
  uint64_t messages_delivered = 0;
  uint64_t bytes_delivered = 0;
  uint64_t payload_copies = 0;
  uint64_t bytes_copied = 0;

  double RequestsPerSec() const {
    return wall_sec > 0 ? requests / wall_sec : 0;
  }
  double EventsPerSec() const {
    return wall_sec > 0 ? sim_events / wall_sec : 0;
  }
  double ShaPerRequest() const {
    return requests > 0 ? static_cast<double>(sha256_invocations) / requests
                        : 0;
  }
  double BytesHashedPerRequest() const {
    return requests > 0 ? static_cast<double>(bytes_hashed) / requests : 0;
  }
  double CopiedPerDelivered() const {
    return messages_delivered > 0
               ? static_cast<double>(bytes_copied) / messages_delivered
               : 0;
  }

  // Set when the run traced (worker-pool pair): the EventTrace digest that
  // must be identical at any thread count.
  std::string trace_digest;
  uint64_t trace_events = 0;
};

struct RunOptions {
  bool trace = false;
  int threads = 0;  // worker-pool size for this run (0 = synchronous joins)
};

RunStats RunOnce(const WallclockConfig& cfg, const RunOptions& opt) {
  WorkerPool::Global().SetThreads(opt.threads);
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
  if (opt.trace) {
    group.EnableTrace();
  }

  const uint64_t total =
      static_cast<uint64_t>(cfg.clients) * cfg.requests_per_client;
  uint64_t completed = 0;
  Bytes value(cfg.value_size, 0xab);
  std::vector<int> issued(cfg.clients, 0);
  std::vector<std::function<void()>> issue(cfg.clients);
  for (int i = 0; i < cfg.clients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= cfg.requests_per_client) {
        return;
      }
      ++issued[i];
      uint32_t slot =
          static_cast<uint32_t>(i * 997 + issued[i]) % kKvSlots;
      group.client(i).Invoke(KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false, [&, i](Status, Bytes) {
                               ++completed;
                               issue[i]();
                             });
    };
  }

  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < cfg.clients; ++i) {
    issue[i]();  // each client keeps one operation in flight until done
  }
  bool finished = group.sim().RunUntilTrue(
      [&] { return completed == total; },
      static_cast<SimTime>(total) * kSecond);
  auto stop = std::chrono::steady_clock::now();

  // Leave the pool empty (queued prologue jobs survive the shrink and are
  // claimed at their joins when the group tears down).
  WorkerPool::Global().SetThreads(0);

  RunStats s;
  s.ok = finished;
  if (opt.trace) {
    s.trace_digest = group.sim().trace().digest().Hex();
    s.trace_events = group.sim().trace().event_count();
  }
  s.wall_sec = std::chrono::duration<double>(stop - start).count();
  s.requests = completed;
  s.sim_events = group.sim().events_processed();
  s.sim_elapsed = group.sim().Now();
  const hotpath::Counters& after = hotpath::counters();
  s.sha256_invocations = after.sha256_invocations - before.sha256_invocations;
  s.sha256_blocks = after.sha256_blocks - before.sha256_blocks;
  s.bytes_hashed = after.bytes_hashed - before.bytes_hashed;
  s.encode_allocs = after.encode_allocs - before.encode_allocs;
  s.encode_reuses = after.encode_reuses - before.encode_reuses;
  s.memo_hits = after.digest_memo_hits - before.digest_memo_hits;
  s.memo_misses = after.digest_memo_misses - before.digest_memo_misses;
  s.pool_jobs = after.pool_jobs - before.pool_jobs;
  s.pool_verify_jobs = after.pool_verify_jobs - before.pool_verify_jobs;
  s.pool_mac_shard_jobs =
      after.pool_mac_shard_jobs - before.pool_mac_shard_jobs;
  s.pool_digest_shard_jobs =
      after.pool_digest_shard_jobs - before.pool_digest_shard_jobs;
  s.verify_memo_hits = after.verify_memo_hits - before.verify_memo_hits;
  const Network& net = group.sim().network();
  s.messages_delivered = net.messages_delivered();
  s.bytes_delivered = net.bytes_delivered();
  s.payload_copies = net.payload_copies();
  s.bytes_copied = net.bytes_copied();
  return s;
}

void EmitRunJson(JsonWriter& json, const RunStats& s) {
  json.BeginObject();
  json.Field("completed", s.ok);
  json.Field("requests", s.requests);
  json.Field("wall_sec", s.wall_sec);
  json.Field("wall_requests_per_sec", s.RequestsPerSec());
  json.Field("sim_events", s.sim_events);
  json.Field("sim_events_per_sec", s.EventsPerSec());
  json.Field("sim_elapsed_us", static_cast<uint64_t>(s.sim_elapsed));
  json.Field("sha256_invocations", s.sha256_invocations);
  json.Field("sha256_invocations_per_request", s.ShaPerRequest());
  json.Field("sha256_blocks", s.sha256_blocks);
  json.Field("bytes_hashed", s.bytes_hashed);
  json.Field("bytes_hashed_per_request", s.BytesHashedPerRequest());
  json.Field("messages_delivered", s.messages_delivered);
  json.Field("bytes_delivered", s.bytes_delivered);
  json.Field("payload_copies", s.payload_copies);
  json.Field("bytes_copied", s.bytes_copied);
  json.Field("bytes_copied_per_delivered_message", s.CopiedPerDelivered());
  json.Field("encode_allocs", s.encode_allocs);
  json.Field("encode_reuses", s.encode_reuses);
  json.Field("digest_memo_hits", s.memo_hits);
  json.Field("digest_memo_misses", s.memo_misses);
  json.Field("pool_jobs", s.pool_jobs);
  json.Field("pool_verify_jobs", s.pool_verify_jobs);
  json.Field("pool_mac_shard_jobs", s.pool_mac_shard_jobs);
  json.Field("pool_digest_shard_jobs", s.pool_digest_shard_jobs);
  json.Field("verify_memo_hits", s.verify_memo_hits);
  json.EndObject();
}

void AddRow(Table& table, const std::string& config, const std::string& label,
            const RunStats& s) {
  char reqs[64];
  std::snprintf(reqs, sizeof(reqs), "%.0f", s.RequestsPerSec());
  char evs[64];
  std::snprintf(evs, sizeof(evs), "%.0f", s.EventsPerSec());
  char sha[64];
  std::snprintf(sha, sizeof(sha), "%.1f", s.ShaPerRequest());
  char hashed[64];
  std::snprintf(hashed, sizeof(hashed), "%.1f",
                s.BytesHashedPerRequest() / 1024.0);
  char copied[64];
  std::snprintf(copied, sizeof(copied), "%.0f", s.CopiedPerDelivered());
  table.AddRow({config, label, reqs, evs, sha, hashed, copied,
                FormatCount(s.memo_hits)});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_core.json";
  int pool_threads = WorkerPool::ThreadsFromEnv(4);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      pool_threads = std::atoi(argv[++i]);
    }
  }
  if (pool_threads < 0) {
    pool_threads = 0;
  }

  std::vector<WallclockConfig> configs;
  {
    WallclockConfig standard;
    standard.name = "f1_1client";
    standard.f = 1;
    standard.clients = 1;
    standard.requests_per_client = smoke ? 40 : 600;
    standard.value_size = 1024;
    standard.seed = 7001;
    standard.max_sha_per_request = smoke ? 204.6 : 181.98;
    standard.max_copied_per_delivered = smoke ? 60.38 : 60.3;
    configs.push_back(standard);

    WallclockConfig scaled;
    scaled.name = "f2_16clients";
    scaled.f = 2;
    scaled.clients = 16;
    scaled.requests_per_client = smoke ? 5 : 60;
    scaled.value_size = 1024;
    scaled.seed = 7002;
    scaled.max_sha_per_request = smoke ? 204.98 : 180.52;
    scaled.max_copied_per_delivered = smoke ? 44.13 : 44.81;
    configs.push_back(scaled);
  }

  PrintHeader(smoke
                  ? "Wall-clock hot path (smoke config)"
                  : "Wall-clock hot path: zero-copy fabric + digest caches");
  Table table({"config", "run", "req/s", "sim ev/s", "SHA/req",
               "kB hashed/req", "B copied/msg", "memo hits"});

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_wallclock");
  json.Field("smoke", smoke);
  json.Key("configs");
  json.BeginArray();

  bool all_ok = true;
  bool thresholds_met = true;
  for (const WallclockConfig& cfg : configs) {
    RunStats s = RunOnce(cfg, RunOptions{});
    all_ok = all_ok && s.ok;
    AddRow(table, cfg.name, "gated", s);

    const bool met = s.ShaPerRequest() <= cfg.max_sha_per_request &&
                     s.CopiedPerDelivered() <= cfg.max_copied_per_delivered;
    thresholds_met = thresholds_met && met;
    if (!met) {
      std::printf(
          "%s: %.2f SHA-256/request (ceiling %.2f), %.2f B copied/message "
          "(ceiling %.2f)\n",
          cfg.name.c_str(), s.ShaPerRequest(), cfg.max_sha_per_request,
          s.CopiedPerDelivered(), cfg.max_copied_per_delivered);
    }

    json.BeginObject();
    json.Field("name", cfg.name);
    json.Key("params");
    json.BeginObject();
    json.Field("f", cfg.f);
    json.Field("n", 3 * cfg.f + 1);
    json.Field("clients", cfg.clients);
    json.Field("requests_per_client", cfg.requests_per_client);
    json.Field("value_size", static_cast<uint64_t>(cfg.value_size));
    json.Field("seed", cfg.seed);
    json.EndObject();
    json.Key("run");
    EmitRunJson(json, s);
    json.Key("gates");
    json.BeginObject();
    json.Field("sha256_invocations_per_request_ceiling",
               cfg.max_sha_per_request);
    json.Field("bytes_copied_per_delivered_message_ceiling",
               cfg.max_copied_per_delivered);
    json.Field("thresholds_met", met);
    json.EndObject();
    json.EndObject();
  }

  json.EndArray();

  // Worker-pool pipeline, like-for-like: pool empty (every verify/MAC/digest
  // job runs synchronously at its join point) then `pool_threads` workers
  // racing the event loop to the same joins. The pool may only move work off
  // the critical path — the same-seed EventTrace digests must be
  // byte-identical — so the wall-clock ratio is the honest measure of what
  // the pipeline overlaps.
  std::string pool_on_label = "pool on(" + std::to_string(pool_threads) + ")";
  // The wall-clock floor only means something where the workers can actually
  // run in parallel with the event loop: there must be workers, and more
  // hardware threads than workers. Otherwise the pair still runs (and the
  // determinism gate still applies) but the timing gate is waived. The JSON
  // metadata records hardware_concurrency so readers can tell which case a
  // given artifact measured.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool hw_can_parallelize =
      pool_threads > 0 && hw > static_cast<unsigned>(pool_threads);
  json.Key("worker_pool");
  json.BeginObject();
  json.Field("threads", pool_threads);
  json.Field("timing_gated", hw_can_parallelize);
  json.Key("configs");
  json.BeginArray();
  bool pool_met_all = true;
  std::vector<std::string> pool_summaries;
  for (const WallclockConfig& cfg : configs) {
    RunStats pool_off = RunOnce(cfg, RunOptions{.trace = true});
    RunStats pool_on = RunOnce(
        cfg, RunOptions{.trace = true, .threads = pool_threads});
    all_ok = all_ok && pool_off.ok && pool_on.ok;
    AddRow(table, cfg.name, "pool off", pool_off);
    AddRow(table, cfg.name, pool_on_label, pool_on);
    double pool_speedup = pool_off.wall_sec > 0 && pool_on.wall_sec > 0
                              ? pool_off.wall_sec / pool_on.wall_sec
                              : 0;
    bool pool_traces_match =
        pool_off.trace_digest == pool_on.trace_digest &&
        pool_off.trace_events == pool_on.trace_events;
    // Determinism always gates; smoke runs (short, often sanitized) and
    // hosts without enough hardware threads skip the timing floor. Full runs
    // on real multicore hardware require the pipeline to actually overlap.
    bool pool_met = pool_traces_match &&
                    (smoke || !hw_can_parallelize || pool_speedup >= 1.5);
    pool_met_all = pool_met_all && pool_met;
    char line[200];
    std::snprintf(
        line, sizeof(line),
        "worker pool (config %s, %d threads, %u hw): %.2fx wall speedup%s, "
        "traces %s",
        cfg.name.c_str(), pool_threads, hw, pool_speedup,
        hw_can_parallelize  ? ""
        : pool_threads == 0 ? " (timing gate waived: no workers)"
                            : " (timing gate waived: too few cores)",
        pool_traces_match ? "identical" : "DIVERGED");
    pool_summaries.push_back(line);

    json.BeginObject();
    json.Field("name", cfg.name);
    json.Key("before");  // pool empty == synchronous joins
    EmitRunJson(json, pool_off);
    json.Key("after");
    EmitRunJson(json, pool_on);
    json.Key("improvement");
    json.BeginObject();
    json.Field("wall_speedup", pool_speedup);
    json.Field("trace_digest_before", pool_off.trace_digest);
    json.Field("trace_digest_after", pool_on.trace_digest);
    json.Field("traces_match", pool_traces_match);
    json.Field("thresholds_met", pool_met);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  thresholds_met = thresholds_met && pool_met_all;

  EmitBenchMetadata(json, pool_threads);
  json.EndObject();

  table.Print();
  std::printf("\n");
  for (const std::string& line : pool_summaries) {
    std::printf("%s\n", line.c_str());
  }

  if (!json.WriteFile(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_ok) {
    std::printf("FAILED: some runs did not complete\n");
    return 1;
  }
  if (!thresholds_met) {
    std::printf(
        "FAILED: hot-path thresholds not met (see 'gates' and "
        "'worker_pool' in JSON)\n");
    return 1;
  }
  return 0;
}
