// perfbench: runs one named workload from a seed, checks its outputs, and
// prints its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-commit SHA] [--spans-dir DIR]
//
// --trace 0 repeats the workload for S wall-clock seconds and reports the
// end-to-end metrics: virtual-time ones from the seed (identical on every
// repetition, which is checked), wall-clock ones as the median over
// repetitions. --trace 1 alternates untraced and traced repetitions and
// reports the per-layer metrics plus the tracing overhead; its spans are
// written to DIR when --spans-dir is given. Exits 1 if any output check fails
// and 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"
#include "src/crypto/sha256_multi.h"
#include "src/util/log.h"
#include "src/util/workerpool.h"

using namespace perfbench;

namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 2000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_commit = "unknown";
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else if (flag == "--spans-dir") {
      args->spans_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;  // "virtual", "wall" or "count"
  std::string note;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-40s %16s  %-10s %-8s %s\n", "metric", "value", "unit", "kind",
              "note");
  for (const Metric& m : metrics) {
    std::printf("%-40s %16s  %-10s %-8s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(), m.kind.c_str(),
                m.note.c_str());
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void PrintMetadata(const Args& args, size_t repetitions) {
  std::printf(
      "metadata: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"repetitions\": %zu, \"git_commit\": \"%s\", \"build_type\": \"%s\", "
      "\"optimized\": %s, \"nproc\": %u, \"sha_ni\": %s, "
      "\"pool_threads\": %d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, repetitions, args.git_commit.c_str(), PERFBENCH_BUILD_TYPE,
      Optimized() ? "true" : "false", std::thread::hardware_concurrency(),
      bftbase::sha256_multi::HasShaNi() ? "true" : "false",
      bftbase::WorkerPool::Global().threads());
  if (!Optimized()) {
    std::fprintf(stderr,
                 "warning: perfbench was built without optimization; "
                 "wall-clock figures are not comparable\n");
  }
}

// Output checks of every repetition, plus determinism: every repetition of
// one seed must produce the same virtual-time results and per-layer counts.
bool CheckRepetitions(const std::vector<const RepResult*>& reps) {
  bool correct = true;
  for (const RepResult* rep : reps) {
    for (const std::string& failure : rep->check_failures) {
      std::fprintf(stderr, "check failed: %s\n", failure.c_str());
      correct = false;
    }
    if (rep->Fingerprint() != reps.front()->Fingerprint()) {
      std::fprintf(stderr, "check failed: repetitions of one seed differ\n");
      correct = false;
    }
  }
  return correct;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double WallOpsPerS(const RepResult& rep) {
  return Ratio(static_cast<double>(rep.ledger.ok()), rep.measure_s);
}

double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

// --- End-to-end run ----------------------------------------------------------

int RunEndToEnd(const Args& args, const WorkloadInfo& w) {
  std::vector<RepResult> reps;
  const int64_t start = WallNs();
  RepOptions opts;
  opts.seed = args.seed;
  do {
    reps.push_back(w.run(opts));
  } while ((SecondsSince(start) < args.seconds || reps.size() < kMinReps) &&
           reps.size() < kMaxReps);

  std::vector<const RepResult*> all;
  std::vector<double> wall_ops;
  std::vector<double> setup;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RepResult& rep : reps) {
    all.push_back(&rep);
    wall_ops.push_back(WallOpsPerS(rep));
    setup.push_back(rep.setup_s);
    attempted += rep.ledger.attempted();
    failed += rep.ledger.failed();
  }
  const bool correct = CheckRepetitions(all);
  const RepResult& first = reps.front();
  const std::vector<int64_t>& lat = first.ledger.latencies();
  const uint64_t n = lat.size();
  const std::string samples = "n=" + std::to_string(n);

  std::vector<Metric> e2e = {
      {"sim_ops_per_s",
       Ratio(static_cast<double>(n), static_cast<double>(first.elapsed_us) /
                                         bftbase::kSecond),
       "1/s", "virtual", samples + " committed"},
      {"lat_p50_ms", Ms(PercentileOf(lat, 0.50)), "ms", "virtual", samples},
      {"lat_p99_ms", Ms(PercentileOf(lat, 0.99)), "ms", "virtual",
       samples + (PercentileReportable(n, 0.99) ? "" : " (not reportable)")},
      {"setup_s", Median(setup), "s", "wall",
       "median of " + std::to_string(reps.size()) + " set-ups"},
      {"peak_rss_mb", PeakRssMb(), "MB", "wall", "whole process"},
  };

  // Workload-specific figures: printed, not part of the result line.
  // Wall throughput is one of them: on a shared host it swings by up to 2x
  // over minutes, wider than any bound; the traced run reports it per layer.
  std::vector<Metric> extra;
  extra.push_back(
      {"wall_ops_per_s", Median(wall_ops), "1/s", "wall",
       "median of " + std::to_string(reps.size()) + " repetitions (min " +
           FormatNumber(*std::min_element(wall_ops.begin(), wall_ops.end())) +
           ", max " +
           FormatNumber(*std::max_element(wall_ops.begin(), wall_ops.end())) +
           ")"});
  const TailReport tail = HighestReportable(lat);
  if (PercentileReportable(n, 0.999)) {
    extra.push_back({"lat_p999_ms", Ms(PercentileOf(lat, 0.999)), "ms",
                     "virtual", samples});
  }
  if (tail.q > 0.999) {
    extra.push_back({"lat_" + PercentileLabel(tail.q) + "_ms",
                     Ms(tail.value), "ms", "virtual",
                     "highest percentile with >=10 samples beyond, " +
                         samples});
  }
  extra.push_back({"lat_max_ms", Ms(PercentileOf(lat, 1.0)), "ms", "virtual",
                   samples});
  extra.push_back({"ops_failed_frac", first.ledger.failed_frac(), "ratio",
                   "virtual",
                   "timed out " + std::to_string(first.ledger.timed_out()) +
                       ", rejected " + std::to_string(first.ledger.rejected()) +
                       ", wrong " + std::to_string(first.ledger.wrong()) +
                       " of " + std::to_string(first.ledger.attempted())});
  extra.push_back(
      {"limit_miss_frac",
       Ratio(static_cast<double>(
                 first.ledger.MissedLimit(w.latency_limit_ms * 1000)),
             static_cast<double>(first.ledger.attempted())),
       "ratio", "virtual",
       "ops over " + std::to_string(w.latency_limit_ms) +
           " ms or failed"});
  if (first.outage_us) {
    extra.push_back({"outage_ms", Ms(*first.outage_us), "ms", "virtual",
                     "crash -> commit of the first Set sent after it"});
  }
  if (first.second_outage_us) {
    extra.push_back({"second_crash_outage_ms", Ms(*first.second_outage_us),
                     "ms", "virtual",
                     "after the window: new primary crash -> next commit"});
  }
  if (first.catchup_us) {
    extra.push_back({"recovery_catchup_ms", Ms(*first.catchup_us), "ms",
                     "virtual", "restart -> caught up with the group"});
  }
  if (!first.queue_waits_us.empty()) {
    extra.push_back({"generator_max_lateness_ms",
                     Ms(PercentileOf(first.queue_waits_us, 1.0)), "ms",
                     "virtual", "longest wait from due time to send"});
  }
  if (first.nfs_overhead_frac) {
    extra.push_back({"nfs_overhead_pct", *first.nfs_overhead_frac * 100.0,
                     "%", "virtual",
                     "replicated / unreplicated NFS Andrew time - 1"});
  }

  PrintMetadata(args, reps.size());
  PrintTable("end-to-end metrics (" + std::string(w.name) + ")", e2e);
  PrintTable("workload figures (not in the result line)", extra);
  PrintResultLine(correct, attempted, failed, e2e);
  return correct ? 0 : 1;
}

// --- Traced run --------------------------------------------------------------

// Per-layer metrics: name, unit, kind ("count", "virtual" or "wall") and the
// end-to-end metric (and workload) a change in it should move. README.md
// carries the same table.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* kind;
  const char* moves;
};
constexpr LayerDef kLayerDefs[] = {
    {"sim.events_per_op", "count/op", "count", "wall_ops_per_s (kv_lan_hot)"},
    {"sim.wall_ns_per_event", "ns", "wall", "wall_ops_per_s (kv_lan_hot)"},
    {"sim.requeued_per_op", "count/op", "count", "lat_p99_ms (kv_lan_hot)"},
    {"sim.peak_queue_depth", "count", "count", "lat_p99_ms (kv_lan_hot)"},
    {"net.msgs_per_op", "count/op", "count",
     "wall_ops_per_s, sim_ops_per_s (all)"},
    {"net.bytes_per_op", "B/op", "count",
     "wall_ops_per_s, sim_ops_per_s (all)"},
    {"net.copied_bytes_per_msg", "B/msg", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"net.dropped_per_op", "count/op", "count",
     "ops_failed_frac (kv_geo_crash)"},
    {"storage.syncs_per_op", "count/op", "count", "lat_p50_ms (kv_geo_crash)"},
    {"storage.bytes_written_per_op", "B/op", "count",
     "lat_p50_ms (kv_geo_crash)"},
    {"storage.bytes_read_on_restart", "B", "count", "outage_ms (kv_geo_crash)"},
    {"crypto.sha_calls_per_op", "count/op", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"crypto.sha_blocks_per_op", "count/op", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"crypto.bytes_hashed_per_op", "B/op", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"crypto.hmac_lane_batches_per_op", "count/op", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"crypto.scalar_block_frac", "ratio", "count",
     "wall_ops_per_s (kv_geo_crash, andrew_hetero)"},
    {"channel.digest_memo_hit_frac", "ratio", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"channel.verify_memo_hit_frac", "ratio", "count",
     "wall_ops_per_s (kv_lan_hot)"},
    {"replica.batch_size_mean", "count", "count",
     "sim_ops_per_s, lat_p99_ms (kv_geo_crash, kv_lan_hot)"},
    {"phase.preprepare_to_prepared_ms.p50", "ms", "virtual",
     "lat_p50_ms (all)"},
    {"phase.preprepare_to_prepared_ms.p99", "ms", "virtual",
     "lat_p99_ms (all)"},
    {"phase.prepared_to_committed_ms.p50", "ms", "virtual", "lat_p50_ms (all)"},
    {"phase.prepared_to_committed_ms.p99", "ms", "virtual", "lat_p99_ms (all)"},
    {"phase.committed_to_executed_ms.p50", "ms", "virtual", "lat_p50_ms (all)"},
    {"phase.committed_to_executed_ms.p99", "ms", "virtual", "lat_p99_ms (all)"},
    {"replica.view_changes", "count", "count", "outage_ms (kv_geo_crash)"},
    {"client.retries_per_op", "count/op", "count",
     "lat_p999_ms, ops_failed_frac (kv_geo_crash)"},
    {"client.timeout_retries", "count", "count",
     "lat_p999_ms, ops_failed_frac (kv_geo_crash)"},
    {"client.queue_wait_ms", "ms", "virtual", "lat_p999_ms (kv_geo_crash)"},
    {"ckpt.count", "count", "count",
     "wall_ops_per_s (kv_geo_crash, andrew_hetero)"},
    {"ckpt.cow_copies_per_ckpt", "count/ckpt", "count",
     "wall_ops_per_s (kv_geo_crash, andrew_hetero)"},
    {"tree.nodes_rehashed_per_ckpt", "count/ckpt", "count",
     "wall_ops_per_s (kv_geo_crash, andrew_hetero)"},
    {"tree.nodes_preserved_per_ckpt", "count/ckpt", "count",
     "wall_ops_per_s (kv_geo_crash, andrew_hetero)"},
    {"wal.records_per_op", "count/op", "count", "lat_p50_ms (kv_geo_crash)"},
    {"st.bytes_fetched", "B", "count", "outage_ms (kv_geo_crash)"},
    {"st.leaves_fetched", "count", "count", "outage_ms (kv_geo_crash)"},
    {"st.local_source_frac", "ratio", "count", "outage_ms (kv_geo_crash)"},
    {"recovery.restart_wall_ms", "ms", "wall", "wall_ops_per_s (kv_geo_crash)"},
    {"recovery.catchup_ms", "ms", "virtual", "lat_p999_ms (kv_geo_crash)"},
    {"adapter.execute_ns_per_op", "ns/op", "wall",
     "wall_ops_per_s (andrew_hetero)"},
    {"adapter.getobj_calls_per_ckpt", "count/ckpt", "count",
     "wall_ops_per_s (andrew_hetero)"},
    {"adapter.getobj_ns_per_call", "ns", "wall",
     "wall_ops_per_s (andrew_hetero)"},
    {"adapter.putobjs_wall_ms", "ms", "wall", "wall_ops_per_s (andrew_hetero)"},
    {"adapter.wall_frac", "ratio", "wall", "wall_ops_per_s (andrew_hetero)"},
    {"pool.jobs_per_op", "count/op", "count", "wall_ops_per_s (kv_lan_hot)"},
    {"bufpool.alloc_frac", "ratio", "count", "wall_ops_per_s (kv_lan_hot)"},
    {"stack.self_ns_per_op", "ns/op", "wall", "wall_ops_per_s (all)"},
    {"wall_ops_per_s", "1/s", "wall",
     "(whole-stack wall throughput of the untraced repetitions)"},
    {"trace.overhead_frac", "ratio", "wall", "(tracing cost; moves nothing)"},
};

using MetricMap = std::map<std::string, double>;

size_t K(SpanKind kind) { return static_cast<size_t>(kind); }

// Wall-clock per-layer figures of one traced repetition (window only).
MetricMap WallLayerMetrics(const RepResult& rep) {
  const Tracer::Totals& b = rep.trace_begin;
  const Tracer::Totals& e = rep.trace_end;
  auto count = [&](SpanKind k) {
    return static_cast<double>(e.counts[K(k)] - b.counts[K(k)]);
  };
  auto ns = [&](SpanKind k) {
    return static_cast<double>(e.ns[K(k)] - b.ns[K(k)]);
  };
  const double ops = static_cast<double>(rep.ledger.ok());
  const double step_ns = ns(SpanKind::kStep);
  const double adapter_ns = ns(SpanKind::kAdapterExecute) +
                            ns(SpanKind::kAdapterGetObj) +
                            ns(SpanKind::kAdapterPutObjs);
  double restart_ms = 0;
  for (double ms : rep.restart_wall_ms) {
    restart_ms += ms / static_cast<double>(rep.restart_wall_ms.size());
  }
  return {
      {"sim.wall_ns_per_event", Ratio(step_ns, count(SpanKind::kStep))},
      {"adapter.execute_ns_per_op", Ratio(ns(SpanKind::kAdapterExecute), ops)},
      {"adapter.getobj_ns_per_call",
       Ratio(ns(SpanKind::kAdapterGetObj), count(SpanKind::kAdapterGetObj))},
      {"adapter.putobjs_wall_ms", ns(SpanKind::kAdapterPutObjs) * 1e-6},
      {"adapter.wall_frac", Ratio(adapter_ns, step_ns)},
      {"stack.self_ns_per_op", Ratio(step_ns - adapter_ns, ops)},
      {"recovery.restart_wall_ms", restart_ms},
  };
}

// Seed-determined per-layer figures (window only).
MetricMap CountLayerMetrics(const RepResult& rep, const Tracer& tracer) {
  const LayerCounts& c = rep.counts;
  const double ops = static_cast<double>(rep.ledger.ok());
  const double ckpts = static_cast<double>(c.checkpoints);
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), ops); };
  auto per_ckpt = [&](double v) { return Ratio(v, ckpts); };
  auto frac = [](uint64_t part, uint64_t whole) {
    return Ratio(static_cast<double>(part), static_cast<double>(whole));
  };
  auto phase = [&](SpanKind kind, double q) {
    const size_t slot =
        K(kind) - K(SpanKind::kPhasePrePrepareToPrepared);
    const std::vector<int64_t>& all = tracer.phase_samples(kind);
    const auto begin = static_cast<std::ptrdiff_t>(
        rep.trace_begin.phase_samples[slot]);
    const auto end =
        static_cast<std::ptrdiff_t>(rep.trace_end.phase_samples[slot]);
    std::vector<int64_t> window(all.begin() + begin, all.begin() + end);
    return Ms(PercentileOf(std::move(window), q));
  };
  double wait_ms = 0;
  for (SimTime wait : rep.queue_waits_us) {
    wait_ms += Ms(wait) / static_cast<double>(rep.queue_waits_us.size());
  }
  const uint64_t kernel_blocks = c.sha_ni_blocks + c.sha_multi_blocks;
  const uint64_t scalar_blocks =
      c.sha_blocks - std::min(c.sha_blocks, kernel_blocks);
  const double getobj_calls = static_cast<double>(
      rep.trace_end.counts[K(SpanKind::kAdapterGetObj)] -
      rep.trace_begin.counts[K(SpanKind::kAdapterGetObj)]);
  return {
      {"sim.events_per_op", per_op(c.events)},
      {"sim.requeued_per_op", per_op(c.requeued)},
      {"sim.peak_queue_depth", static_cast<double>(c.peak_queue_depth)},
      {"net.msgs_per_op", per_op(c.msgs_delivered)},
      {"net.bytes_per_op", per_op(c.bytes_delivered)},
      {"net.copied_bytes_per_msg", frac(c.bytes_copied, c.msgs_delivered)},
      {"net.dropped_per_op", per_op(c.msgs_dropped)},
      {"storage.syncs_per_op", per_op(c.storage_syncs)},
      {"storage.bytes_written_per_op", per_op(c.storage_bytes_written)},
      {"storage.bytes_read_on_restart",
       static_cast<double>(c.storage_bytes_read_on_restart)},
      {"crypto.sha_calls_per_op", per_op(c.sha_calls)},
      {"crypto.sha_blocks_per_op", per_op(c.sha_blocks)},
      {"crypto.bytes_hashed_per_op", per_op(c.bytes_hashed)},
      {"crypto.hmac_lane_batches_per_op", per_op(c.hmac_lane_batches)},
      {"crypto.scalar_block_frac", frac(scalar_blocks, c.sha_blocks)},
      {"channel.digest_memo_hit_frac",
       frac(c.digest_memo_hits, c.digest_memo_hits + c.digest_memo_misses)},
      {"channel.verify_memo_hit_frac",
       frac(c.verify_memo_hits, c.verify_memo_hits + c.verify_memo_misses)},
      {"replica.batch_size_mean",
       frac(c.requests_executed, c.batches_executed)},
      {"phase.preprepare_to_prepared_ms.p50",
       phase(SpanKind::kPhasePrePrepareToPrepared, 0.50)},
      {"phase.preprepare_to_prepared_ms.p99",
       phase(SpanKind::kPhasePrePrepareToPrepared, 0.99)},
      {"phase.prepared_to_committed_ms.p50",
       phase(SpanKind::kPhasePreparedToCommitted, 0.50)},
      {"phase.prepared_to_committed_ms.p99",
       phase(SpanKind::kPhasePreparedToCommitted, 0.99)},
      {"phase.committed_to_executed_ms.p50",
       phase(SpanKind::kPhaseCommittedToExecuted, 0.50)},
      {"phase.committed_to_executed_ms.p99",
       phase(SpanKind::kPhaseCommittedToExecuted, 0.99)},
      {"replica.view_changes", static_cast<double>(c.view_changes)},
      {"client.retries_per_op", per_op(c.client_retries)},
      {"client.timeout_retries", static_cast<double>(c.client_timeout_retries)},
      {"client.queue_wait_ms", wait_ms},
      {"ckpt.count", ckpts},
      {"ckpt.cow_copies_per_ckpt", per_ckpt(static_cast<double>(c.cow_copies))},
      {"tree.nodes_rehashed_per_ckpt",
       per_ckpt(static_cast<double>(c.tree_rehashed))},
      {"tree.nodes_preserved_per_ckpt",
       per_ckpt(static_cast<double>(c.tree_preserved))},
      {"wal.records_per_op", per_op(c.wal_records)},
      {"st.bytes_fetched", static_cast<double>(c.st_bytes_fetched)},
      {"st.leaves_fetched", static_cast<double>(c.st_leaves_fetched)},
      {"st.local_source_frac",
       frac(c.st_leaves_local, c.st_leaves_local + c.st_leaves_fetched)},
      {"recovery.catchup_ms", Ms(rep.catchup_us.value_or(0))},
      {"adapter.getobj_calls_per_ckpt", per_ckpt(getobj_calls)},
      {"pool.jobs_per_op", per_op(c.pool_jobs)},
      {"bufpool.alloc_frac",
       frac(c.encode_allocs, c.encode_allocs + c.encode_reuses)},
  };
}

int RunTraced(const Args& args, const WorkloadInfo& w) {
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  // The first traced repetition keeps its spans; later ones only aggregate.
  std::unique_ptr<Tracer> first_tracer;
  const int64_t start = WallNs();
  RepOptions opts;
  opts.seed = args.seed;
  do {
    opts.tracer = nullptr;
    plain.push_back(w.run(opts));
    auto tracer =
        std::make_unique<Tracer>(first_tracer ? 0 : Tracer::kDefaultSpanCap);
    opts.tracer = tracer.get();
    traced.push_back(w.run(opts));
    if (!first_tracer) {
      first_tracer = std::move(tracer);
    }
  } while ((SecondsSince(start) < args.seconds || traced.size() < kMinReps) &&
           traced.size() < kMaxReps);

  std::vector<const RepResult*> all;
  std::vector<double> plain_ops;
  std::vector<double> traced_ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RepResult& rep : plain) {
    all.push_back(&rep);
    plain_ops.push_back(WallOpsPerS(rep));
  }
  std::map<std::string, std::vector<double>> wall_samples;
  for (const RepResult& rep : traced) {
    all.push_back(&rep);
    traced_ops.push_back(WallOpsPerS(rep));
    attempted += rep.ledger.attempted();
    failed += rep.ledger.failed();
    for (const auto& [name, value] : WallLayerMetrics(rep)) {
      wall_samples[name].push_back(value);
    }
  }
  // Traced and untraced repetitions must fingerprint the same: tracing only
  // observes.
  const bool correct = CheckRepetitions(all);

  MetricMap values = CountLayerMetrics(traced.front(), *first_tracer);
  for (const auto& [name, samples] : wall_samples) {
    values[name] = Median(samples);
  }
  values["wall_ops_per_s"] = Median(plain_ops);
  values["trace.overhead_frac"] =
      1.0 - Ratio(Median(traced_ops), Median(plain_ops));

  std::vector<Metric> layer;
  for (const LayerDef& def : kLayerDefs) {
    auto it = values.find(def.name);
    layer.push_back({def.name, it == values.end() ? 0.0 : it->second, def.unit,
                     def.kind, std::string("-> ") + def.moves});
  }

  PrintMetadata(args, traced.size());
  std::printf("traced run: %zu untraced + %zu traced repetitions; "
              "end-to-end numbers come from --trace 0 runs only\n",
              plain.size(), traced.size());
  if (!args.spans_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.spans_dir, ec);
    const std::string path = args.spans_dir + "/" + std::string(w.name) +
                             "-seed" + std::to_string(args.seed) + ".tsv";
    if (first_tracer->WriteTsv(path)) {
      std::printf("spans: %zu written to %s (%llu past the cap not kept)\n",
                  first_tracer->spans().size(), path.c_str(),
                  static_cast<unsigned long long>(
                      first_tracer->spans_dropped()));
    } else {
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   path.c_str());
    }
  }
  PrintTable("per-layer metrics (" + std::string(w.name) + ")", layer);
  PrintResultLine(correct, attempted, failed, layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--git-commit SHA] [--spans-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  // Protocol warnings (e.g. a restarted replica's stale pre-prepares) are
  // expected under the crash workload; keep stdout to the results.
  bftbase::SetLogLevel(bftbase::LogLevel::kError);
  const WorkloadInfo* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const WorkloadInfo& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args.trace == 0 ? RunEndToEnd(args, *w) : RunTraced(args, *w);
}
