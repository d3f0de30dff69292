// Wall-clock hot-path benchmark (BENCH_core.json).
//
// Every other bench in this repo reports *virtual* time from the cost model;
// this one measures what the substrate itself costs in real seconds — the
// event-processing rate is the ceiling on every experiment we can run. It
// drives a closed-loop KV workload through the full
// send→authenticate→deliver→verify path and reports wall-clock requests/sec,
// sim-events/sec, SHA-256 work per request, payload bytes copied per
// delivered message by the fabric and by the receivers' opens, plus the
// run's checkpoint figures (CheckpointFigures in bench_common.h: the
// primary's high-watermark stalls, checkpoint digest CPU per request and its
// paced share, the slowest take-to-vote lag; all virtual time, reported, not
// gated).
//
// Each configuration runs once. SHA-256 invocations per request and payload
// bytes copied per delivered message are deterministic per seed, so each is
// gated against a pinned ceiling. The bytes-copied ceilings date from when
// PRE-PREPAREs began to carry request digests instead of bodies (DESIGN.md
// §6), the SHA-256 ceilings from when every replica began to return a result
// no longer than a digest in full, so no replica hashes a Set's result for a
// digest reply (DESIGN.md §6). A digest or MAC cache that stops hitting, a
// body hashed twice, or a fabric that copies per recipient again pushes a
// figure over its ceiling.
//
// Usage: bench_wallclock [--smoke] [--json PATH]
//   --smoke    shrink the request counts (CI's bench-smoke ctest target)
//   --json     where to write the JSON artifact (default: BENCH_core.json)
//
// Exits nonzero if a run does not complete or a counter ceiling is
// exceeded, so perf plumbing cannot silently rot.
#include <chrono>
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
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t open_bytes_copied = 0;
  // Network accounting (per-simulation, so no snapshot needed).
  uint64_t messages_delivered = 0;
  uint64_t bytes_delivered = 0;
  uint64_t payload_copies = 0;
  uint64_t bytes_copied = 0;
  CheckpointFigures checkpoints;

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
  double OpenCopiedPerDelivered() const {
    return messages_delivered > 0
               ? static_cast<double>(open_bytes_copied) / messages_delivered
               : 0;
  }
};

RunStats RunOnce(const WallclockConfig& cfg) {
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

  RunStats s;
  s.ok = finished;
  s.wall_sec = std::chrono::duration<double>(stop - start).count();
  s.requests = completed;
  s.sim_events = group.sim().events_processed();
  s.sim_elapsed = group.sim().Now();
  const hotpath::Counters& after = hotpath::counters();
  s.sha256_invocations = after.sha256_invocations - before.sha256_invocations;
  s.sha256_blocks = after.sha256_blocks - before.sha256_blocks;
  s.bytes_hashed = after.bytes_hashed - before.bytes_hashed;
  s.encode_allocs = after.encode_allocs - before.encode_allocs;
  s.memo_hits = after.digest_memo_hits - before.digest_memo_hits;
  s.memo_misses = after.digest_memo_misses - before.digest_memo_misses;
  s.open_bytes_copied = after.open_bytes_copied - before.open_bytes_copied;
  const Network& net = group.sim().network();
  s.messages_delivered = net.messages_delivered();
  s.bytes_delivered = net.bytes_delivered();
  s.payload_copies = net.payload_copies();
  s.bytes_copied = net.bytes_copied();
  s.checkpoints = CheckpointFigures::Read(group.sim().metrics());
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
  json.Field("open_bytes_copied", s.open_bytes_copied);
  json.Field("open_bytes_copied_per_delivered_message",
             s.OpenCopiedPerDelivered());
  json.Field("encode_allocs", s.encode_allocs);
  json.Field("digest_memo_hits", s.memo_hits);
  json.Field("digest_memo_misses", s.memo_misses);
  s.checkpoints.EmitJsonFields(json, s.requests);
  json.EndObject();
}

void AddRow(Table& table, const std::string& config, const RunStats& s) {
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
  char opened[64];
  std::snprintf(opened, sizeof(opened), "%.0f", s.OpenCopiedPerDelivered());
  std::vector<std::string> row = {config, reqs,   evs,    sha,
                                  hashed, copied, opened,
                                  FormatCount(s.memo_hits)};
  s.checkpoints.AppendCells(&row, s.requests);
  table.AddRow(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
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
    standard.max_sha_per_request = smoke ? 194.6 : 171.98;
    standard.max_copied_per_delivered = smoke ? 60.38 : 60.3;
    configs.push_back(standard);

    WallclockConfig scaled;
    scaled.name = "f2_16clients";
    scaled.f = 2;
    scaled.clients = 16;
    scaled.requests_per_client = smoke ? 5 : 60;
    scaled.value_size = 1024;
    scaled.seed = 7002;
    scaled.max_sha_per_request = smoke ? 197.2 : 173.0;
    scaled.max_copied_per_delivered = smoke ? 44.13 : 44.81;
    configs.push_back(scaled);
  }

  PrintHeader(smoke
                  ? "Wall-clock hot path (smoke config)"
                  : "Wall-clock hot path: zero-copy fabric + digest caches");
  std::vector<std::string> columns = {"config",        "req/s",
                                      "sim ev/s",      "SHA/req",
                                      "kB hashed/req", "B copied/msg",
                                      "B opened/msg",  "memo hits"};
  for (const std::string& column : CheckpointFigures::Columns()) {
    columns.push_back(column);
  }
  Table table(std::move(columns));

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "bench_wallclock");
  json.Field("smoke", smoke);
  json.Key("configs");
  json.BeginArray();

  bool all_ok = true;
  bool thresholds_met = true;
  for (const WallclockConfig& cfg : configs) {
    RunStats s = RunOnce(cfg);
    all_ok = all_ok && s.ok;
    AddRow(table, cfg.name, s);

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
  EmitBenchMetadata(json);
  json.EndObject();

  table.Print();
  std::printf("\n");

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
    std::printf("FAILED: hot-path thresholds not met (see 'gates' in JSON)\n");
    return 1;
  }
  return 0;
}
