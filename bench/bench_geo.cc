// Experiment E19 — geo-distributed deployments (WAN topology presets).
//
// Sweeps topology presets (lan, 3-region, 5-region-wan) x client counts,
// running the closed-loop KV workload twice per cell: once with the static
// batching the seed repo ships (max_batch = 8) and once with the adaptive
// batching controller (config.adaptive_batching). Reports aggregate
// committed throughput on the simulated clock, client retransmissions and
// view changes, and per-region commit-latency percentiles (p50/p99/p999,
// nearest-rank over per-client samples grouped by the client's region).
//
// Self-checks (full run; --smoke is lenient on margins, strict on
// completion):
//   - every cell completes with zero view changes, and the light-load
//     cells (the lowest client count) complete with zero timeout-driven
//     client retransmissions — the RTT-derived retry timeout must not
//     fire on an unloaded healthy WAN, where the old LAN constant fired
//     on every request. Saturated cells are exempt from the retry gate:
//     their latency tails are queueing-bound (static batching pushes
//     p999 past any sane timeout — the very pathology the adaptive
//     controller removes), so retransmission there is correct liveness
//     behavior, not miscalibration. The reported "retries" column also
//     counts eager digest-quorum retransmits, which are never gated on;
//   - on at least one WAN preset at the saturating client count, adaptive
//     batching beats static on throughput or on p99 latency (the gate
//     BENCH_geo.json records).
//
// Usage: bench_geo [--smoke] [--json FILE]
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/sim/topology.h"
#include "src/util/percentile.h"

using namespace bftbase;

namespace {

constexpr uint32_t kKvSlots = 4096;
constexpr uint64_t kSeedBase = 8100;

struct CellResult {
  bool completed = false;
  int committed = 0;
  SimTime elapsed_us = 0;
  uint64_t retries = 0;
  uint64_t timeout_retries = 0;
  uint64_t view_changes = 0;
  LatencySummary overall;
  std::vector<LatencySummary> per_region;

  double Throughput() const {
    return elapsed_us > 0
               ? static_cast<double>(committed) * kSecond / elapsed_us
               : 0;
  }
};

// One closed-loop KV run (the bench_wallclock workload shape) on `topo`
// with `clients` clients issuing writes; per-client commit latencies are
// folded into per-region percentile summaries.
CellResult RunCell(const Topology& topo, int clients, int requests_per_client,
                   bool adaptive, uint64_t seed) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 128;
  params.config.log_window = 256;
  params.config.max_clients = clients < 16 ? 16 : clients;
  params.config.network_rtt_us = topo.MaxRttUs();
  params.config.adaptive_batching = adaptive;
  params.seed = seed;
  const Config config = params.config;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });
  ApplyTopology(group.sim().network(), topo, config.node_count());

  const uint64_t total =
      static_cast<uint64_t>(clients) * requests_per_client;
  uint64_t completed = 0;
  Bytes value(1024, 0xab);
  std::vector<int> issued(clients, 0);
  std::vector<SimTime> invoked_at(clients, 0);
  std::vector<std::vector<int64_t>> latencies(clients);
  std::vector<std::function<void()>> issue(clients);
  for (int i = 0; i < clients; ++i) {
    latencies[i].reserve(requests_per_client);
    issue[i] = [&, i] {
      if (issued[i] >= requests_per_client) {
        return;
      }
      ++issued[i];
      invoked_at[i] = group.sim().Now();
      uint32_t slot = static_cast<uint32_t>(i * 997 + issued[i]) % kKvSlots;
      group.client(i).Invoke(KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false, [&, i](Status status, Bytes) {
                               if (status.ok()) {
                                 latencies[i].push_back(group.sim().Now() -
                                                        invoked_at[i]);
                               }
                               ++completed;
                               issue[i]();
                             });
    };
  }
  const SimTime start = group.sim().Now();
  for (int i = 0; i < clients; ++i) {
    issue[i]();
  }
  CellResult r;
  r.completed = group.sim().RunUntilTrue(
      [&] { return completed == total; }, static_cast<SimTime>(total) * kSecond);
  r.elapsed_us = group.sim().Now() - start;
  for (int i = 0; i < clients; ++i) {
    r.committed += static_cast<int>(latencies[i].size());
    r.retries += group.client(i).retries();
    r.timeout_retries += group.client(i).timeout_retries();
  }
  for (int rep = 0; rep < group.replica_count(); ++rep) {
    r.view_changes += group.replica(rep).view_changes_started();
  }
  std::vector<std::vector<int64_t>> by_region(topo.regions);
  std::vector<int64_t> all;
  for (int i = 0; i < clients; ++i) {
    const int region = topo.RegionOf(config.ClientId(i));
    by_region[region].insert(by_region[region].end(), latencies[i].begin(),
                             latencies[i].end());
    all.insert(all.end(), latencies[i].begin(), latencies[i].end());
  }
  r.overall = SummarizeLatencies(std::move(all));
  for (auto& samples : by_region) {
    r.per_region.push_back(SummarizeLatencies(std::move(samples)));
  }
  return r;
}

struct Cell {
  std::string topology;
  int clients = 0;
  bool adaptive = false;
  CellResult result;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<std::string> presets =
      smoke ? std::vector<std::string>{"lan", "3-region"}
            : KnownTopologyNames();
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{4, 16} : std::vector<int>{4, 16, 64};
  const int requests_per_client = smoke ? 10 : 30;
  const int saturating = client_counts.back();

  PrintHeader(smoke ? "E19: geo sweep (smoke)" : "E19: geo sweep");
  Table table({"topology", "clients", "batching", "ops/sim-s", "p50 ms",
               "p99 ms", "p999 ms", "retries", "view chg"});
  std::vector<Cell> cells;
  bool all_completed = true;
  bool timers_clean = true;
  uint64_t cell_seed = kSeedBase;
  for (const std::string& name : presets) {
    Topology topo;
    if (!TopologyFromName(name, &topo)) {
      std::fprintf(stderr, "unknown topology %s\n", name.c_str());
      return 2;
    }
    for (int clients : client_counts) {
      for (bool adaptive : {false, true}) {
        Cell cell;
        cell.topology = name;
        cell.clients = clients;
        cell.adaptive = adaptive;
        // Same seed for the static/adaptive pair of a cell: identical
        // network jitter draws, so the comparison isolates the controller.
        cell.result = RunCell(topo, clients, requests_per_client, adaptive,
                              cell_seed);
        char tput[64];
        std::snprintf(tput, sizeof(tput), "%.0f", cell.result.Throughput());
        table.AddRow({name, FormatCount(clients),
                      adaptive ? "adaptive" : "static", tput,
                      FormatMs(cell.result.overall.p50),
                      FormatMs(cell.result.overall.p99),
                      FormatMs(cell.result.overall.p999),
                      FormatCount(cell.result.retries),
                      FormatCount(cell.result.view_changes)});
        all_completed = all_completed && cell.result.completed;
        timers_clean = timers_clean && cell.result.view_changes == 0 &&
                       (clients != client_counts.front() ||
                        cell.result.timeout_retries == 0);
        cells.push_back(std::move(cell));
      }
      ++cell_seed;  // static/adaptive share a seed; new seed per cell pair
    }
  }
  table.Print();

  // Per-region tail-latency tables for the WAN presets (the saturating
  // client count, static batching): the numbers EXPERIMENTS.md E19 quotes.
  for (const Cell& cell : cells) {
    if (cell.topology == "lan" || cell.clients != saturating ||
        cell.adaptive) {
      continue;
    }
    std::printf("\nper-region latency, %s, %d clients, static batching:\n",
                cell.topology.c_str(), cell.clients);
    Table regions({"region", "samples", "p50 ms", "p99 ms", "p999 ms"});
    for (size_t reg = 0; reg < cell.result.per_region.size(); ++reg) {
      const LatencySummary& s = cell.result.per_region[reg];
      regions.AddRow({FormatCount(reg), FormatCount(s.samples),
                      FormatMs(s.p50), FormatMs(s.p99), FormatMs(s.p999)});
    }
    regions.Print();
  }

  // The adaptive-vs-static gate: at the saturating client count, adaptive
  // must beat static on throughput or p99 on at least one WAN preset.
  bool gate_met = false;
  std::string gate_detail;
  for (const std::string& name : presets) {
    if (name == "lan") {
      continue;
    }
    const Cell* stat = nullptr;
    const Cell* adap = nullptr;
    for (const Cell& cell : cells) {
      if (cell.topology == name && cell.clients == saturating) {
        (cell.adaptive ? adap : stat) = &cell;
      }
    }
    if (stat == nullptr || adap == nullptr) {
      continue;
    }
    const bool tput =
        adap->result.Throughput() > stat->result.Throughput();
    const bool p99 = adap->result.overall.p99 < stat->result.overall.p99;
    if (tput || p99) {
      gate_met = true;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s @%d clients: adaptive %s (%.0f vs %.0f ops/sim-s, "
                    "p99 %.2f vs %.2f ms)",
                    name.c_str(), saturating, tput ? "throughput" : "p99",
                    adap->result.Throughput(), stat->result.Throughput(),
                    adap->result.overall.p99 / 1000.0,
                    stat->result.overall.p99 / 1000.0);
      gate_detail = buf;
      break;
    }
  }

  std::printf("\ncompleted: %s, light-load timeout retries zero + "
              "view changes zero: %s, "
              "adaptive gate: %s%s%s\n",
              all_completed ? "yes" : "NO", timers_clean ? "yes" : "NO",
              gate_met ? "met" : "NOT MET",
              gate_detail.empty() ? "" : " — ", gate_detail.c_str());

  if (json_path != nullptr) {
    JsonWriter json;
    json.BeginObject();
    json.Field("bench", "geo");
    json.Field("smoke", smoke);
    EmitBenchMetadata(json);
    json.Field("requests_per_client", requests_per_client);
    json.Field("adaptive_gate_met", gate_met);
    json.Field("adaptive_gate_detail", gate_detail);
    json.Key("cells");
    json.BeginArray();
    for (const Cell& cell : cells) {
      json.BeginObject();
      json.Field("topology", cell.topology);
      json.Field("clients", cell.clients);
      json.Field("batching", cell.adaptive ? "adaptive" : "static");
      json.Field("completed", cell.result.completed);
      json.Field("committed", cell.result.committed);
      json.Field("elapsed_sim_us", static_cast<int64_t>(cell.result.elapsed_us));
      json.Field("sim_ops_per_sec", cell.result.Throughput());
      json.Field("client_retries", cell.result.retries);
      json.Field("timeout_retries", cell.result.timeout_retries);
      json.Field("view_changes", cell.result.view_changes);
      json.Field("p50_us", cell.result.overall.p50);
      json.Field("p99_us", cell.result.overall.p99);
      json.Field("p999_us", cell.result.overall.p999);
      json.Key("regions");
      json.BeginArray();
      for (size_t reg = 0; reg < cell.result.per_region.size(); ++reg) {
        const LatencySummary& s = cell.result.per_region[reg];
        json.BeginObject();
        json.Field("region", static_cast<uint64_t>(reg));
        json.Field("samples", s.samples);
        json.Field("p50_us", s.p50);
        json.Field("p99_us", s.p99);
        json.Field("p999_us", s.p999);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::printf("json written to %s\n", json_path);
  }

  if (!all_completed || !timers_clean) {
    return 1;
  }
  // Smoke stays lenient on the performance gate (tiny op counts make the
  // static/adaptive comparison noisy); the full run enforces it.
  if (!smoke && !gate_met) {
    return 1;
  }
  return 0;
}
