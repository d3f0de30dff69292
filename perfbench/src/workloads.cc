#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/sim/network.h"
#include "src/sim/storage.h"
#include "src/sim/topology.h"
#include "src/util/bufpool.h"
#include "src/util/hotpath.h"
#include "src/util/rng.h"

namespace perfbench {

using bftbase::Bytes;
using bftbase::Digest;
using bftbase::KvAdapter;
using bftbase::Rng;
using bftbase::ServiceAdapter;
using bftbase::ServiceGroup;
using bftbase::Simulation;
using bftbase::Status;

namespace {

// --- Workload constants ------------------------------------------------------
constexpr int kLanClients = 16;
constexpr uint32_t kLanSlots = 4096;
constexpr int kLanOpsPerClient = 640;  // 10240 timed ops: p999 is reportable
constexpr int kLanOpsPerClientSmall = 24;

// Few clients: under open-loop load every retransmission from a stuck client
// re-arms the backups' view-change timers, so more clients stretch the
// outage after a primary crash (see README.md).
constexpr int kGeoClients = 8;
constexpr uint32_t kGeoSlots = 1u << 18;
constexpr uint32_t kGeoSlotsSmall = 1u << 12;
// Enough requests that the ones delayed by the crash stay well under 1%:
// p99 is the steady WAN tail and p999 the outage.
constexpr size_t kGeoOps = 20000;
constexpr size_t kGeoOpsSmall = 160;
// Offered load: half the saturated throughput of this workload (about 20
// ops/s with every request due at once, measured when the benchmark was
// added; see README.md).
constexpr double kGeoRatePerS = 10.0;

// Per-message LAN jitter (uniform, seeded) on both Andrew deployments, so
// that their virtual times depend on the seed and not only on the op mix.
constexpr SimTime kAndrewJitterUs = 20;

constexpr size_t kReadBackSample = 64;
// Sets that must commit after the second (post-window) primary crash.
constexpr uint32_t kSecondCrashSets = 8;

// Every counter that is reported as a delta over the measured window.
#define PERFBENCH_DELTA_FIELDS(X)                                          \
  X(events) X(requeued) X(msgs_delivered) X(bytes_delivered) X(bytes_copied) \
  X(msgs_dropped) X(storage_syncs) X(storage_bytes_written) X(sha_calls)    \
  X(sha_blocks) X(sha_ni_blocks) X(sha_multi_blocks) X(bytes_hashed)        \
  X(hmac_lane_batches) X(digest_memo_hits) X(digest_memo_misses)            \
  X(verify_memo_hits) X(verify_memo_misses) X(requests_executed)            \
  X(batches_executed) X(view_changes) X(client_retries)                     \
  X(client_timeout_retries) X(cow_copies) X(tree_rehashed)                  \
  X(tree_preserved) X(wal_records) X(st_bytes_fetched) X(st_leaves_fetched) \
  X(st_leaves_local) X(pool_jobs) X(encode_allocs) X(encode_reuses)

// Reads the layers' own telemetry (absolute values).
LayerCounts ReadCounts(ServiceGroup& group, int clients) {
  LayerCounts c;
  Simulation& sim = group.sim();
  const bftbase::hotpath::Counters& hot = bftbase::hotpath::counters();
  c.events = sim.events_processed();
  c.requeued = hot.events_requeued;
  c.peak_queue_depth = sim.peak_queue_depth();
  c.msgs_delivered = sim.network().messages_delivered();
  c.bytes_delivered = sim.network().bytes_delivered();
  c.bytes_copied = sim.network().bytes_copied();
  c.msgs_dropped = sim.network().messages_dropped();
  c.sha_calls = hot.sha256_invocations;
  c.sha_blocks = hot.sha256_blocks;
  c.sha_ni_blocks = hot.sha256_ni_blocks;
  c.sha_multi_blocks = hot.sha256_multi_blocks;
  c.bytes_hashed = hot.bytes_hashed;
  c.hmac_lane_batches = hot.hmac_lane_batches;
  c.digest_memo_hits = hot.digest_memo_hits;
  c.digest_memo_misses = hot.digest_memo_misses;
  c.verify_memo_hits = hot.verify_memo_hits;
  c.verify_memo_misses = hot.verify_memo_misses;
  c.tree_rehashed = hot.tree_nodes_rehashed;
  c.tree_preserved = hot.tree_nodes_preserved;
  c.pool_jobs = hot.pool_jobs;
  c.encode_allocs = hot.encode_allocs;
  c.encode_reuses = hot.encode_reuses;
  for (int i = 0; i < group.replica_count(); ++i) {
    bftbase::Replica& replica = group.replica(i);
    c.requests_executed += replica.requests_executed();
    c.batches_executed += replica.batches_executed();
    c.view_changes = std::max<uint64_t>(c.view_changes, replica.view());
    bftbase::ReplicaService& service = group.service(i);
    c.cow_copies += service.checkpoints().cow_copies_taken();
    if (service.wal() != nullptr) {
      c.wal_records += service.wal()->records_appended();
    }
    c.st_bytes_fetched += service.state_transfer().bytes_fetched();
    c.st_leaves_fetched += service.state_transfer().leaves_fetched();
    c.st_leaves_local += service.state_transfer().leaves_from_local_source();
    if (bftbase::StorageDevice* dev = group.storage(i)) {
      c.storage_syncs += dev->syncs();
      c.storage_bytes_written += dev->bytes_written();
    }
  }
  for (int i = 0; i < clients; ++i) {
    c.client_retries += group.client(i).retries();
    c.client_timeout_retries += group.client(i).timeout_retries();
  }
  return c;
}

LayerCounts Delta(const LayerCounts& after, const LayerCounts& before) {
  LayerCounts d = after;
#define PERFBENCH_SUB(field) d.field = after.field - before.field;
  PERFBENCH_DELTA_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

// The paper's k = 128; test-sized inputs checkpoint every 16 batches so that
// they still take (and agree on) several checkpoints.
void SetCheckpointing(bftbase::Config* config, bool small) {
  config->checkpoint_interval = small ? 16 : 128;
  config->log_window = 2 * config->checkpoint_interval;
}

// Starts every repetition from the same process-global state, so per-layer
// counts repeat exactly: the encode-buffer pool is the only global cache.
void BeginRepetition() {
  bftbase::BufferPool::Clear();
  bftbase::hotpath::ResetCounters();
}

// Adds `span`, ending now, when the repetition is traced.
void EndSpan(Tracer* tracer, Span span) {
  if (tracer == nullptr) {
    return;
  }
  span.end_ns = WallNs();
  tracer->Add(span);
}

// A replicated deployment plus the traced-run instrumentation around it.
// `outstanding` maps client index -> harness request id, for adapter spans;
// it is declared before the group so it outlives the adapters that read it.
struct Deployment {
  std::vector<uint64_t> outstanding;
  std::unique_ptr<PhaseObserver> observer;
  std::unique_ptr<ServiceGroup> group;
};

using InnerFactory = ServiceGroup::AdapterFactory;

std::unique_ptr<Deployment> Deploy(ServiceGroup::Params params,
                                   InnerFactory inner,
                                   const RepOptions& opts) {
  auto d = std::make_unique<Deployment>();
  const int n = params.config.n();
  d->outstanding.assign(params.config.max_clients, 0);
  ServiceGroup::AdapterFactory factory = inner;
  if (opts.tracer != nullptr) {
    Deployment* raw = d.get();
    factory = [inner, raw, n, tracer = opts.tracer](
                  Simulation* sim,
                  NodeId id) -> std::unique_ptr<ServiceAdapter> {
      return std::make_unique<TimedAdapter>(
          inner(sim, id), tracer, id, [raw, n](NodeId client) -> uint64_t {
            const int index = client - n;
            return index >= 0 &&
                           index < static_cast<int>(raw->outstanding.size())
                       ? raw->outstanding[index]
                       : 0;
          });
    };
  }
  const int64_t start = WallNs();
  d->group = std::make_unique<ServiceGroup>(std::move(params), factory);
  EndSpan(opts.tracer, {.kind = SpanKind::kGroupSetup, .start_ns = start});
  if (opts.tracer != nullptr) {
    opts.tracer->AttachSimulation(&d->group->sim());
    d->observer =
        std::make_unique<PhaseObserver>(&d->group->sim(), opts.tracer);
    for (int i = 0; i < d->group->replica_count(); ++i) {
      d->group->replica(i).SetObserver(d->observer.get());
    }
  }
  if (opts.event_trace) {
    d->group->EnableTrace();
  }
  return d;
}

// A span around one harness call into a replica (crash, restart), made
// from inside a simulation event.
void EndReplicaSpan(Tracer* tracer, SpanKind kind, NodeId replica,
                    int64_t start_ns, SimTime now) {
  EndSpan(tracer, {.kind = kind,
                   .node = replica,
                   .step = tracer != nullptr ? tracer->current_step() : -1,
                   .start_ns = start_ns,
                   .vstart_us = now,
                   .vend_us = now});
}

void MarkWindow(const RepOptions& opts, Tracer::Totals* out) {
  if (opts.tracer != nullptr) {
    *out = opts.tracer->totals();
  }
}

void EndClientSpan(Tracer* tracer, NodeId client, uint64_t request,
                   int64_t start_ns, SimTime vstart, SimTime vend) {
  EndSpan(tracer, {.kind = SpanKind::kClientOp,
                   .node = client,
                   .request = request,
                   .start_ns = start_ns,
                   .vstart_us = vstart,
                   .vend_us = vend});
}

// Lets the group go idle for a while, then requires every live replica to
// report the same stable checkpoint (sequence number and root digest).
void CheckStableRootsAgree(ServiceGroup& group, const std::vector<int>& live,
                           RepResult* r) {
  group.sim().RunUntil(group.sim().Now() + 3 * bftbase::kSecond);
  const bftbase::Replica& first = group.replica(live.front());
  if (first.stable_seq() == 0) {
    r->check_failures.push_back("no stable checkpoint was reached");
    return;
  }
  for (int id : live) {
    const bftbase::Replica& replica = group.replica(id);
    if (replica.stable_seq() != first.stable_seq() ||
        replica.stable_digest() != first.stable_digest()) {
      r->check_failures.push_back("stable checkpoint roots disagree (replica " +
                                  std::to_string(id) + ")");
      return;
    }
  }
}

// Reads a seeded sample of the slots whose last acknowledged write is known
// back through the protocol (read-only requests on client 0).
void ReadBackSample(ServiceGroup& group, uint64_t seed,
                    const std::map<uint32_t, Bytes>& expected,
                    RepResult* r) {
  if (expected.empty()) {
    r->check_failures.push_back("read-back: no acknowledged writes");
    return;
  }
  std::vector<uint32_t> slots;
  slots.reserve(expected.size());
  for (const auto& [slot, value] : expected) {
    slots.push_back(slot);
  }
  Rng rng(seed ^ 0x7265616462616b31ULL);
  const size_t sample = std::min(kReadBackSample, slots.size());
  for (size_t i = 0; i < sample; ++i) {
    // Partial Fisher-Yates: a sample without repeats.
    std::swap(slots[i], slots[i + rng.NextBelow(slots.size() - i)]);
    auto got = group.client(0).InvokeSync(KvAdapter::EncodeGet(slots[i]),
                                          /*read_only=*/true,
                                          60 * bftbase::kSecond);
    if (!got.ok() || *got != expected.at(slots[i])) {
      r->check_failures.push_back("read-back mismatch at slot " +
                                  std::to_string(slots[i]));
      return;
    }
  }
}

void FinishTrace(Deployment& d, const RepOptions& opts, RepResult* r) {
  if (opts.event_trace) {
    r->event_trace = d.group->sim().trace().digest();
  }
  if (d.observer != nullptr) {
    r->counts.checkpoints = d.observer->checkpoints_taken();
  }
}

bool IsOk(const Bytes& result) {
  return result.size() == 2 && result[0] == 'O' && result[1] == 'K';
}

}  // namespace

// --- Generated inputs --------------------------------------------------------

Bytes ValueFor(uint64_t seed, uint64_t request, uint32_t size) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + request);
  Bytes value(size);
  for (uint32_t i = 0; i < size; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(value.data() + i, &word, std::min<uint32_t>(8, size - i));
  }
  return value;
}

std::vector<std::vector<KvOp>> MakeKvLanInputs(uint64_t seed, bool small) {
  const int per_client = small ? kLanOpsPerClientSmall : kLanOpsPerClient;
  Rng rng(seed ^ 0x6b766c616e686f74ULL);
  std::vector<std::vector<KvOp>> ops(kLanClients);
  for (int c = 0; c < kLanClients; ++c) {
    ops[c].reserve(per_client);
    for (int i = 0; i < per_client; ++i) {
      KvOp op;
      // Each client owns the slots congruent to its index, so every slot's
      // writes are sequential and its last acknowledged value is defined.
      op.slot = static_cast<uint32_t>(
          c + kLanClients * rng.NextBelow(kLanSlots / kLanClients));
      op.value_size = static_cast<uint32_t>(512 + rng.NextBelow(1025));
      ops[c].push_back(op);
    }
  }
  return ops;
}

std::vector<KvOp> MakeKvGeoInputs(uint64_t seed, bool small) {
  const size_t count = small ? kGeoOpsSmall : kGeoOps;
  const uint32_t slots = small ? kGeoSlotsSmall : kGeoSlots;
  std::vector<SimTime> due = PoissonSchedule(seed, kGeoRatePerS, count, 0);
  Rng rng(seed ^ 0x67656f6372617368ULL);
  // Sets write distinct slots (a partial permutation), so a slot has at most
  // one write and every Get has a single legal non-empty answer.
  std::vector<uint32_t> perm(slots);
  std::iota(perm.begin(), perm.end(), 0u);
  size_t next_fresh = 0;
  std::vector<uint32_t> written;
  std::vector<KvOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    KvOp& op = ops[i];
    op.due_us = due[i];
    op.read = rng.NextBool(0.5);
    if (op.read) {
      op.slot = written.empty()
                    ? static_cast<uint32_t>(rng.NextBelow(slots))
                    : written[rng.NextBelow(written.size())];
    } else {
      std::swap(perm[next_fresh],
                perm[next_fresh + rng.NextBelow(slots - next_fresh)]);
      op.slot = perm[next_fresh++];
      op.value_size = static_cast<uint32_t>(32 + rng.NextBelow(97));
      written.push_back(op.slot);
    }
  }
  return ops;
}

bftbase::AndrewConfig MakeAndrewConfig(uint64_t seed, bool small) {
  bftbase::AndrewConfig config;
  config.directories = small ? 2 : 20;
  config.files_per_directory = small ? 3 : 10;
  // Two WRITE chunks of 3.75-4 KiB per file; the sizes come from the seed.
  Rng rng(seed ^ 0x616e647265770a01ULL);
  config.write_chunk = 3840 + 32 * rng.NextBelow(9);
  config.file_size = 2 * config.write_chunk - rng.NextBelow(257);
  config.seed = seed;
  return config;
}

Digest RepResult::Fingerprint() const {
  Digest::Builder b;
  b.Add(ledger.attempted()).Add(ledger.failed());
  for (int64_t latency : ledger.latencies()) {
    b.Add(static_cast<uint64_t>(latency));
  }
  b.Add(static_cast<uint64_t>(elapsed_us));
#define PERFBENCH_ADD(field) b.Add(counts.field);
  PERFBENCH_DELTA_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  // counts.checkpoints is left out: only traced runs observe it, and traced
  // and untraced repetitions of one seed must fingerprint the same.
  b.Add(counts.peak_queue_depth).Add(counts.storage_bytes_read_on_restart);
  b.Add(static_cast<uint64_t>(outage_us.value_or(-1)));
  b.Add(static_cast<uint64_t>(catchup_us.value_or(-1)));
  b.Add(static_cast<uint64_t>(second_outage_us.value_or(-1)));
  uint64_t overhead_bits = 0;
  const double overhead = nfs_overhead_frac.value_or(-1.0);
  std::memcpy(&overhead_bits, &overhead, sizeof(overhead_bits));
  b.Add(overhead_bits);
  for (SimTime wait : queue_waits_us) {
    b.Add(static_cast<uint64_t>(wait));
  }
  b.Add(event_trace);
  return b.Build();
}

// --- kv_lan_hot --------------------------------------------------------------

RepResult RunKvLanHot(const RepOptions& opts) {
  RepResult r;
  const auto inputs = MakeKvLanInputs(opts.seed, opts.small);
  BeginRepetition();

  const int64_t setup_start = WallNs();
  ServiceGroup::Params params;
  params.config.f = 1;
  SetCheckpointing(&params.config, opts.small);
  params.config.max_clients = kLanClients;
  params.seed = opts.seed;
  auto d = Deploy(params,
                  [](Simulation* sim, NodeId) {
                    return std::make_unique<KvAdapter>(sim, kLanSlots);
                  },
                  opts);
  ServiceGroup& group = *d->group;
  Simulation& sim = group.sim();
  // Warm-up: one 1 KiB Set per client on its first owned slot.
  std::map<uint32_t, Bytes> acked;
  int warm = 0;
  for (int c = 0; c < kLanClients; ++c) {
    Bytes value = ValueFor(opts.seed, 0, 1024);
    group.client(c).Invoke(
        KvAdapter::EncodeSet(static_cast<uint32_t>(c), value), false,
        [&warm, &acked, c, value](Status status, Bytes result) {
          if (status.ok() && IsOk(result)) {
            acked[static_cast<uint32_t>(c)] = value;
          }
          ++warm;
        });
  }
  sim.RunUntilTrue([&] { return warm == kLanClients; },
                   sim.Now() + 60 * bftbase::kSecond);
  r.setup_s = SecondsSince(setup_start);
  if (warm != kLanClients) {
    r.check_failures.push_back("warm-up did not complete");
    return r;
  }

  // Measured window: closed loop, each client runs its Set sequence.
  const int per_client = static_cast<int>(inputs[0].size());
  const uint64_t total = static_cast<uint64_t>(kLanClients) * per_client;
  uint64_t done = 0;
  std::vector<int> sent_count(kLanClients, 0);
  std::vector<SimTime> invoked_at(kLanClients, 0);
  std::vector<int64_t> invoked_ns(kLanClients, 0);
  std::vector<std::function<void()>> send_next(kLanClients);
  for (int c = 0; c < kLanClients; ++c) {
    send_next[c] = [&, c] {
      if (sent_count[c] >= per_client) {
        return;
      }
      const KvOp& op = inputs[c][sent_count[c]];
      const uint64_t request =
          static_cast<uint64_t>(c) * per_client + sent_count[c] + 1;
      ++sent_count[c];
      d->outstanding[c] = request;
      invoked_at[c] = sim.Now();
      invoked_ns[c] = WallNs();
      Bytes value = ValueFor(opts.seed, request, op.value_size);
      Bytes encoded = KvAdapter::EncodeSet(op.slot, value);
      group.client(c).Invoke(
          std::move(encoded), false,
          [&, c, request, slot = op.slot, value = std::move(value)](
              Status status, Bytes result) mutable {
            if (!status.ok()) {
              r.ledger.Record(Outcome::kRejected);
            } else if (!IsOk(result)) {
              r.ledger.Record(Outcome::kWrongResult);
            } else {
              r.ledger.Record(Outcome::kOk, sim.Now() - invoked_at[c]);
              acked[slot] = std::move(value);
            }
            EndClientSpan(opts.tracer, group.config().ClientId(c), request,
                          invoked_ns[c], invoked_at[c], sim.Now());
            ++done;
            send_next[c]();
          });
    };
  }
  const LayerCounts before = ReadCounts(group, kLanClients);
  MarkWindow(opts, &r.trace_begin);
  const SimTime window_start = sim.Now();
  const int64_t wall_start = WallNs();
  if (opts.tracer != nullptr) {
    opts.tracer->CutStep();
  }
  for (int c = 0; c < kLanClients; ++c) {
    send_next[c]();
  }
  const bool finished = sim.RunUntilTrue(
      [&] { return done == total; },
      window_start + static_cast<SimTime>(total) * bftbase::kSecond);
  r.measure_s = SecondsSince(wall_start);
  r.elapsed_us = sim.Now() - window_start;
  r.counts = Delta(ReadCounts(group, kLanClients), before);
  MarkWindow(opts, &r.trace_end);
  if (!finished) {
    for (uint64_t i = done; i < total; ++i) {
      r.ledger.Record(Outcome::kTimedOut);
    }
    r.check_failures.push_back("closed loop did not finish");
    return r;
  }
  if (r.ledger.wrong() > 0) {
    r.check_failures.push_back("wrong Set replies");
  }

  ReadBackSample(group, opts.seed, acked, &r);
  std::vector<int> live(group.replica_count());
  std::iota(live.begin(), live.end(), 0);
  CheckStableRootsAgree(group, live, &r);
  FinishTrace(*d, opts, &r);
  return r;
}

// --- andrew_hetero -----------------------------------------------------------

namespace {

// Times every NFS call of the wrapped session in virtual time and accounts
// its outcome; the relay between the Andrew workload and Client::Invoke.
class TimedFsSession : public bftbase::FsSession {
 public:
  // `outstanding` (may be null) receives the id of the call in flight.
  TimedFsSession(bftbase::FsSession* inner, Simulation* sim, OpLedger* ledger,
                 Tracer* tracer, uint64_t* outstanding, NodeId client)
      : inner_(inner),
        sim_(sim),
        ledger_(ledger),
        tracer_(tracer),
        outstanding_(outstanding),
        client_(client) {}

  bftbase::Result<bftbase::NfsReply> Call(
      const bftbase::NfsCall& call) override {
    if (ledger_ == nullptr) {
      return inner_->Call(call);
    }
    const uint64_t request = ++requests_;
    if (outstanding_ != nullptr) {
      *outstanding_ = request;
    }
    if (tracer_ != nullptr) {
      tracer_->CutStep();
    }
    const SimTime start = sim_->Now();
    const int64_t start_ns = WallNs();
    auto reply = inner_->Call(call);
    if (!reply.ok()) {
      const bool timed_out =
          reply.status().ToString().find("timed out") != std::string::npos;
      ledger_->Record(timed_out ? Outcome::kTimedOut : Outcome::kRejected);
    } else if (reply->stat != bftbase::NfsStat::kOk) {
      ledger_->Record(Outcome::kWrongResult);
    } else {
      ledger_->Record(Outcome::kOk, sim_->Now() - start);
    }
    EndClientSpan(tracer_, client_, request, start_ns, start, sim_->Now());
    return reply;
  }
  bftbase::Oid Root() const override { return inner_->Root(); }
  // Stops accounting (used for the post-run content walk).
  void StopAccounting() { ledger_ = nullptr; }

 private:
  bftbase::FsSession* inner_;
  Simulation* sim_;
  OpLedger* ledger_;
  Tracer* tracer_;
  uint64_t* outstanding_;
  NodeId client_;
  uint64_t requests_ = 0;
};

// Reads every regular file below `dir` into `out` (path -> contents).
Status ReadTree(bftbase::FsSession& fs, bftbase::Oid dir,
                const std::string& prefix, std::map<std::string, Bytes>* out) {
  auto listing = fs.Readdir(dir);
  if (!listing.ok()) {
    return listing.status();
  }
  for (const auto& [name, oid] : *listing) {
    if (name == "." || name == "..") {
      continue;
    }
    auto attr = fs.GetAttr(oid);
    if (!attr.ok()) {
      return attr.status();
    }
    if (attr->type == bftbase::FileType::kDirectory) {
      Status s = ReadTree(fs, oid, prefix + name + "/", out);
      if (!s.ok()) {
        return s;
      }
      continue;
    }
    Bytes content;
    for (;;) {
      auto chunk = fs.Read(oid, content.size(), 4096);
      if (!chunk.ok()) {
        return chunk.status();
      }
      content.insert(content.end(), chunk->begin(), chunk->end());
      if (chunk->size() < 4096) {
        break;
      }
    }
    (*out)[prefix + name] = std::move(content);
  }
  return Status::Ok();
}

}  // namespace

RepResult RunAndrewHetero(const RepOptions& opts) {
  RepResult r;
  const bftbase::AndrewConfig config = MakeAndrewConfig(opts.seed, opts.small);
  BeginRepetition();

  const int64_t setup_start = WallNs();
  Simulation base_sim(opts.seed ^ 0x6e6673ULL);
  bftbase::PlainNfsServer server(
      &base_sim, 50, bftbase::MakeFileSystem(bftbase::FsVendor::kLinear,
                                             &base_sim));
  bftbase::PlainFsSession base_fs(&base_sim, 60, 50);
  base_sim.network().SetJitter(kAndrewJitterUs);
  ServiceGroup::Params params;
  params.config.f = 1;
  SetCheckpointing(&params.config, opts.small);
  params.seed = opts.seed;
  auto d = Deploy(params,
                  bftbase::BasefsAdapterFactory(
                      {bftbase::FsVendor::kLinear, bftbase::FsVendor::kTree,
                       bftbase::FsVendor::kLog, bftbase::FsVendor::kLinear},
                      2048),
                  opts);
  ServiceGroup& group = *d->group;
  group.sim().network().SetJitter(kAndrewJitterUs);
  bftbase::ReplicatedFsSession repl_fs(&group, 0, 300 * bftbase::kSecond);
  r.setup_s = SecondsSince(setup_start);

  // Unreplicated NFS baseline: same inputs, its own simulation.
  OpLedger base_ledger;
  TimedFsSession base_timed(&base_fs, &base_sim, &base_ledger, nullptr,
                            nullptr, 60);
  const bftbase::AndrewResult base =
      bftbase::RunAndrewBenchmark(base_timed, base_sim, config);

  // Measured window: the replicated run.
  TimedFsSession repl_timed(&repl_fs, &group.sim(), &r.ledger, opts.tracer,
                            &d->outstanding[0], group.config().ClientId(0));
  const LayerCounts before = ReadCounts(group, 1);
  MarkWindow(opts, &r.trace_begin);
  const int64_t wall_start = WallNs();
  const bftbase::AndrewResult repl =
      bftbase::RunAndrewBenchmark(repl_timed, group.sim(), config);
  r.measure_s = SecondsSince(wall_start);
  r.elapsed_us = repl.total_us;
  r.counts = Delta(ReadCounts(group, 1), before);
  MarkWindow(opts, &r.trace_end);
  repl_timed.StopAccounting();
  base_timed.StopAccounting();

  if (!base.ok) {
    r.check_failures.push_back("baseline Andrew run failed: " + base.error);
  }
  if (!repl.ok) {
    r.check_failures.push_back("replicated Andrew run failed: " + repl.error);
  }
  if (base.ok && repl.ok) {
    r.nfs_overhead_frac = static_cast<double>(repl.total_us) /
                              static_cast<double>(base.total_us) -
                          1.0;
    std::map<std::string, Bytes> base_files;
    std::map<std::string, Bytes> repl_files;
    Status bs = ReadTree(base_fs, base_fs.Root(), "/", &base_files);
    Status rs = ReadTree(repl_fs, repl_fs.Root(), "/", &repl_files);
    if (!bs.ok() || !rs.ok()) {
      r.check_failures.push_back("file tree walk failed");
    } else if (base_files.empty() || base_files != repl_files) {
      r.check_failures.push_back("replicated file contents differ from the "
                                 "unreplicated baseline");
    }
  }
  std::vector<int> live(group.replica_count());
  std::iota(live.begin(), live.end(), 0);
  CheckStableRootsAgree(group, live, &r);
  FinishTrace(*d, opts, &r);
  return r;
}

// --- kv_geo_crash ------------------------------------------------------------

RepResult RunKvGeoCrash(const RepOptions& opts) {
  RepResult r;
  const std::vector<KvOp> inputs = MakeKvGeoInputs(opts.seed, opts.small);
  BeginRepetition();

  const int64_t setup_start = WallNs();
  bftbase::Topology topo;
  bftbase::TopologyFromName("3-region", &topo);
  ServiceGroup::Params params;
  params.config.f = 1;
  SetCheckpointing(&params.config, opts.small);
  params.config.max_clients = kGeoClients;
  params.config.network_rtt_us = topo.MaxRttUs();
  params.durable_storage = true;
  params.cost.storage_fsync_us = 120;       // NVMe-class sync
  params.cost.storage_us_per_byte = 0.001;  // ~1 GB/s sequential
  params.seed = opts.seed;
  const uint32_t slots = opts.small ? kGeoSlotsSmall : kGeoSlots;
  const bftbase::Config config = params.config;
  auto d = Deploy(params,
                  [slots](Simulation* sim, NodeId) {
                    return std::make_unique<KvAdapter>(sim, slots);
                  },
                  opts);
  ServiceGroup& group = *d->group;
  Simulation& sim = group.sim();
  bftbase::ApplyTopology(sim.network(), topo, config.node_count());
  for (int c = 0; c < kGeoClients; ++c) {
    group.client(c);  // construct every client up front
  }
  r.setup_s = SecondsSince(setup_start);

  // Expected answers: slot -> index of the one Set that writes it.
  std::map<uint32_t, size_t> writer;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].read) {
      writer[inputs[i].slot] = i;
    }
  }
  const SimTime window_start = sim.Now();
  std::vector<SimTime> due;
  due.reserve(inputs.size());
  for (const KvOp& op : inputs) {
    due.push_back(window_start + op.due_us);
  }
  const SimTime span = inputs.back().due_us;
  std::vector<SimTime> acked_at(inputs.size(), -1);
  // (sent, committed) virtual times of every acknowledged Set.
  std::vector<std::pair<SimTime, SimTime>> set_commits;
  std::map<uint32_t, Bytes> acked;
  uint64_t wrong = 0;

  OpenLoopGenerator generator(
      &sim, due, kGeoClients,
      [&](size_t index, int client, OpenLoopGenerator::DoneFn done_fn) {
        const KvOp& op = inputs[index];
        const uint64_t request = index + 1;
        d->outstanding[client] = request;
        const SimTime sent = sim.Now();
        const int64_t sent_ns = WallNs();
        Bytes value;
        Bytes encoded;
        if (op.read) {
          encoded = KvAdapter::EncodeGet(op.slot);
        } else {
          value = ValueFor(opts.seed, request, op.value_size);
          encoded = KvAdapter::EncodeSet(op.slot, value);
        }
        group.client(client).Invoke(
            std::move(encoded), op.read,
            [&, index, client, request, sent, sent_ns,
             value = std::move(value),
             done_fn = std::move(done_fn)](Status status,
                                           Bytes result) mutable {
              EndClientSpan(opts.tracer, config.ClientId(client), request,
                            sent_ns, sent, sim.Now());
              const KvOp& o = inputs[index];
              if (!status.ok()) {
                done_fn(Outcome::kRejected);
                return;
              }
              bool right = true;
              if (!o.read) {
                right = IsOk(result);
                if (right) {
                  acked_at[index] = sim.Now();
                  set_commits.emplace_back(sent, sim.Now());
                  acked[o.slot] = std::move(value);
                }
              } else {
                auto w = writer.find(o.slot);
                if (w == writer.end()) {
                  right = result.empty();
                } else {
                  const Bytes expect = ValueFor(
                      opts.seed, w->second + 1, inputs[w->second].value_size);
                  const bool acked_before_send =
                      acked_at[w->second] >= 0 && acked_at[w->second] <= sent;
                  right = result == expect ||
                          (!acked_before_send && result.empty());
                }
              }
              if (!right) {
                ++wrong;
              }
              done_fn(right ? Outcome::kOk : Outcome::kWrongResult);
            });
      });

  // Fault schedule, staged so that every seed takes the same path: 60% of
  // the way in (so the median request sees the pre-crash view whichever
  // view the group settles in) the primary (replica 0) crashes; once the
  // others have installed a new view and committed a Set sent after the
  // crash, it restarts from its storage device and catches up (executes
  // everything the others had executed when it restarted) through
  // checkpoints and state transfer. The second crash runs after the
  // measured window (see below).
  const int first = config.PrimaryOf(0);
  std::vector<SimTime> crash_times;
  SimTime restart_time = -1;
  bftbase::SeqNum catchup_target = 0;
  uint64_t restart_bytes = 0;
  auto others = [&](bftbase::ViewNum* view, bftbase::SeqNum* executed) {
    *view = 0;
    *executed = 0;
    for (int id = 0; id < group.replica_count(); ++id) {
      if (id != first && !group.replica(id).crashed()) {
        *view = std::max(*view, group.replica(id).view());
        *executed = std::max(*executed, group.replica(id).last_executed());
      }
    }
  };
  // Re-checks `ready` every 10 ms of virtual time and runs `then` once.
  std::function<void(std::function<bool()>, std::function<void()>)> when;
  when = [&](std::function<bool()> ready, std::function<void()> then) {
    if (ready()) {
      then();
      return;
    }
    sim.After(Simulation::kNoOwner, 10 * bftbase::kMillisecond,
              [&when, ready, then] { when(ready, then); });
  };
  auto crash = [&](int id) {
    const int64_t start = WallNs();
    group.replica(id).Crash();
    sim.network().Isolate(id);
    crash_times.push_back(sim.Now());
    EndReplicaSpan(opts.tracer, SpanKind::kCrash, id, start, sim.Now());
  };
  auto restart = [&](int id) {
    const int64_t start = WallNs();
    bftbase::StorageDevice* dev = group.storage(id);
    const uint64_t read_before = dev->bytes_read();
    sim.network().Heal(id);
    group.replica(id).RestartFromStorage();
    restart_bytes += dev->bytes_read() - read_before;
    r.restart_wall_ms.push_back(static_cast<double>(WallNs() - start) * 1e-6);
    EndReplicaSpan(opts.tracer, SpanKind::kRestart, id, start, sim.Now());
  };
  auto recovered_since = [&](SimTime crashed_at) {
    bftbase::ViewNum view;
    bftbase::SeqNum executed;
    others(&view, &executed);
    return view > 0 &&
           std::any_of(set_commits.begin(), set_commits.end(),
                       [crashed_at](const auto& c) {
                         return c.first >= crashed_at;
                       });
  };
  sim.After(Simulation::kNoOwner, span * 6 / 10, [&] {
    crash(first);
    const SimTime crashed_at = sim.Now();
    when([&recovered_since, crashed_at] { return recovered_since(crashed_at); },
         [&] {
           restart(first);
           restart_time = sim.Now();
           bftbase::ViewNum view;
           others(&view, &catchup_target);
           when([&] {
                  return group.replica(first).last_executed() >=
                         catchup_target;
                },
                [&] { r.catchup_us = sim.Now() - restart_time; });
         });
  });

  const LayerCounts before = ReadCounts(group, kGeoClients);
  MarkWindow(opts, &r.trace_begin);
  const int64_t wall_start = WallNs();
  if (opts.tracer != nullptr) {
    opts.tracer->CutStep();
  }
  generator.Start();
  const bool finished =
      sim.RunUntilTrue([&] { return generator.finished(); },
                       window_start + span + 120 * bftbase::kSecond);
  r.measure_s = SecondsSince(wall_start);
  r.elapsed_us = sim.Now() - window_start;
  if (!finished) {
    generator.ExpireOutstanding();
    for (int c = 0; c < kGeoClients; ++c) {
      group.client(c).Abandon();
    }
  }
  r.counts = Delta(ReadCounts(group, kGeoClients), before);
  MarkWindow(opts, &r.trace_end);
  r.counts.storage_bytes_read_on_restart = restart_bytes;
  r.ledger = generator.ledger();
  r.queue_waits_us = generator.queue_waits();

  if (!finished) {
    r.check_failures.push_back("open loop did not finish");
  }
  if (wrong > 0) {
    r.check_failures.push_back(std::to_string(wrong) + " wrong replies");
  }
  if (crash_times.size() != 1) {
    r.check_failures.push_back("the primary crash did not happen");
  }
  if (!r.catchup_us.has_value()) {
    r.check_failures.push_back("restarted replica never caught up");
  }
  // Outage: from the crash to the first committed reply to a Set sent after
  // it (batches already in flight can still commit without the primary).
  SimTime first_commit = -1;
  for (const auto& [sent, committed] : set_commits) {
    if (!crash_times.empty() && sent >= crash_times.front() &&
        (first_commit < 0 || committed < first_commit)) {
      first_commit = committed;
    }
  }
  if (first_commit < 0) {
    r.check_failures.push_back("no commit after the crash");
  } else {
    r.outage_us = first_commit - crash_times.front();
  }

  // Output checks: read-back, then every replica (the restarted one too)
  // must agree on the stable checkpoint root.
  ReadBackSample(group, opts.seed, acked, &r);
  std::vector<int> live(group.replica_count());
  std::iota(live.begin(), live.end(), 0);
  CheckStableRootsAgree(group, live, &r);

  // Second crash, after the window: the new primary crashes and stays down,
  // so the group can only commit with the restarted replica in its quorum.
  bftbase::ViewNum view;
  bftbase::SeqNum executed;
  others(&view, &executed);
  const int second = config.PrimaryOf(view);
  if (second == first) {
    r.check_failures.push_back("no view change happened");
  } else {
    crash(second);
    const SimTime crashed_at = sim.Now();
    for (uint32_t i = 0; i < kSecondCrashSets; ++i) {
      auto reply = group.client(0).InvokeSync(
          KvAdapter::EncodeSet(i, ValueFor(opts.seed, inputs.size() + 1 + i,
                                           64)),
          false, 120 * bftbase::kSecond);
      if (!reply.ok() || !IsOk(*reply)) {
        r.check_failures.push_back(
            "no commit after the new primary crashed");
        break;
      }
      if (i == 0) {
        r.second_outage_us = sim.Now() - crashed_at;
      }
    }
  }
  FinishTrace(*d, opts, &r);
  return r;
}

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"kv_lan_hot", RunKvLanHot, 50},
      {"andrew_hetero", RunAndrewHetero, 100},
      {"kv_geo_crash", RunKvGeoCrash, 2000},
  };
  return kWorkloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
