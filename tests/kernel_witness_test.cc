// Determinism witness for the event kernel and the crypto hot path
// (DESIGN.md §10, §11).
//
// Optimizations of how events are scheduled or how bytes are hashed must be
// invisible to every experiment: same seed => byte-identical EventTrace
// digest. This suite pins the digests and event counts of chaos schedules
// (faults, crash/restart, recovery) and of the wall-clock bench configs
// (fault-free). The pins were first recorded while the replaced
// implementations still ran next to the current ones and agreed with them:
// the pre-overhaul event kernel (commit 70d3242 onward) and scalar SHA-256,
// both last runnable at commit fb72bea. A pin that moves means observable
// event order or timing changed. A pure optimization of how events are
// scheduled or how bytes are hashed must never move one; a change to the
// timing model (what the kernel charges, and when) may, and each such move
// is recorded in the pin's history below with its reason.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/workload/chaos.h"

namespace bftbase {
namespace {

struct TraceResult {
  bool ok = false;
  std::string digest;
  uint64_t events = 0;
  uint64_t forced_us = 0;  // checkpoint digest CPU paced into handlers
};

constexpr uint32_t kKvSlots = 4096;

// The bench_wallclock closed-loop KV workload, verbatim (same group
// parameters, slot schedule and value bytes), with the trace enabled. The
// checkpoint interval and log window default to bench_wallclock's.
TraceResult RunWallclock(int f, int clients, int requests_per_client,
                         uint64_t seed, SeqNum checkpoint_interval = 128,
                         SeqNum log_window = 256) {
  ServiceGroup::Params params;
  params.config.f = f;
  params.config.checkpoint_interval = checkpoint_interval;
  params.config.log_window = log_window;
  params.config.max_clients = clients < 16 ? 16 : clients;
  params.seed = seed;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });
  group.EnableTrace();

  const uint64_t total =
      static_cast<uint64_t>(clients) * requests_per_client;
  uint64_t completed = 0;
  Bytes value(1024, 0xab);
  std::vector<int> issued(clients, 0);
  std::vector<std::function<void()>> issue(clients);
  for (int i = 0; i < clients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= requests_per_client) {
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
  for (int i = 0; i < clients; ++i) {
    issue[i]();
  }
  TraceResult r;
  r.ok = group.sim().RunUntilTrue([&] { return completed == total; },
                                  static_cast<SimTime>(total) * kSecond);
  r.digest = group.sim().trace().digest().Hex();
  r.events = group.sim().trace().event_count();
  r.forced_us = group.sim().metrics().Total("sim.idle_lane_forced_us");
  return r;
}

// Pinned chaos schedules: seed 1 since the kernel overhaul; seeds 9 and 17
// since the crypto kernel, whose off/on runs agreed on them at fb72bea.
//
// Seed 1 pin history:
//   70d3242  176d678d1243 / 2663 events  (pre event-kernel overhaul)
//   02b0a3b  20082fd2dcc5 / 2966 events  — the Byzantine client-view fixes
//     (f+1 view attestations, fallback vote preservation, eager retransmit
//     on digest-quorum-without-result) change client behaviour under the
//     injected faults, so the fault-schedule trace legitimately shifted.
//   current  310c19ab264e / 2966 events  — durable replica state: chaos
//     crash/restart and proactive recovery now reboot through the real
//     restart-from-disk path (checkpoint page load + WAL-tail replay), and
//     replicas persist prepared certificates, so the post-fault message
//     interleaving legitimately shifted. The event count is unchanged; the
//     fault-free wall-clock pins below are untouched, which isolates the
//     shift to the recovery path.
//   7b5aec172f39 / 2966 events (seed 9: db548de23fc4 / 2823, seed 17:
//     b4432426e05b / 2945) — CPU charged while the group is built (each
//     replica's cold FullResync) no longer delays the messages sent before
//     the first event, so every client's first request departs at t=0
//     instead of ~23 ms late; the wall-clock pins moved for the same reason.
//   3dbd441813ef / 2966 events (seed 9: 835596cba47f / 2823, seed 17:
//     ef459a2fbc23 / 2945) — checkpoint digest work runs on each replica's
//     idle lane, so CHECKPOINT votes, page commits and WAL cuts happen when
//     that work completes rather than inside the executing handler. Event
//     counts are unchanged, and the fault-free wall-clock pins (no
//     checkpoint in their runs) did not move.
//   15ead6bbf8f9 / 3176 events — separate request transmission (DESIGN.md
//     §6): clients multicast every request, PRE-PREPAREs list digests,
//     backups FETCH bodies they lack and the view-change timer moves a
//     deadline. More messages (n copies of each request) and smaller
//     pre-prepares change every interleaving; the wall-clock pins moved for
//     the same reason. Seeds 9 and 17 read ab7c9d2ad85d / 3033 and
//     1e423e23d88b / 3155 until the next entry.
//   current  806e5b35ee6e / 3176 events (seed 9: 8d68a9816c47 / 3033, seed
//     17: f3c848af01b1 / 3155) — partition-tree interior nodes hash
//     (height, children) instead of (level, index, children) (DESIGN.md
//     §11), so every checkpoint root digest in CHECKPOINT messages and
//     state-transfer replies has new bytes. Event counts are unchanged, and
//     so are the wall-clock pins (their runs reach no checkpoint).
TEST(KernelWitness, ChaosSeedsMatchPins) {
  struct Pin {
    uint64_t seed;
    const char* digest;
    uint64_t events;
  };
  const Pin pins[] = {
      {1, "806e5b35ee6e", 3176},
      {9, "8d68a9816c47", 3033},
      {17, "f3c848af01b1", 3155},
  };
  for (const Pin& pin : pins) {
    ChaosOptions options;
    options.seed = pin.seed;
    ChaosRunResult r = RunChaos(options);
    EXPECT_EQ(r.trace_digest.Hex(), pin.digest) << "seed " << pin.seed;
    EXPECT_EQ(r.trace_events, pin.events) << "seed " << pin.seed;
    EXPECT_FALSE(r.Failed()) << "seed " << pin.seed;
  }
}

TEST(KernelWitness, WallclockConfigsMatchPreOverhaulPins) {
  struct Pin {
    int f;
    int clients;
    int requests_per_client;
    uint64_t seed;
    const char* digest;
    uint64_t events;
  };
  // The bench_wallclock --smoke configs (f1_1client, f2_16clients).
  //
  // f2_16clients pin history:
  //   ff902786faa0 / 5176 events — pre write-ahead reply ordering.
  //   eaf5e0052527 / 5173 events — ExecuteBatch now makes the whole batch
  //     durable (LogBatch + sync) BEFORE sending any reply, so in a
  //     multi-request batch every reply departs after ALL the batch's
  //     execution work instead of interleaved with it. Single-request
  //     batches are unaffected — the f1_1client pin is untouched, which
  //     isolates the shift to batched replies.
  //   56dc9a9e2fbf / 5173 events (f1_1client: 228d57578ed1 ->
  //     ed3034f33651 / 2918) — CPU charged while the group is built no
  //     longer delays the messages sent before the first event: the first
  //     requests depart at t=0 instead of behind every replica's cold
  //     FullResync. Event counts are unchanged.
  //   9b35a6966869 / 6326 events (f1_1client: c6c2ea0f45e1 / 3158) —
  //     separate request transmission (DESIGN.md §6): each request now
  //     reaches every replica from the client (n deliveries instead of
  //     one), and the pre-prepare carries digests, not bodies.
  //   7ae9098e7b2b / 6324 events (f1_1client: 036d39d1ab72 / 3158) —
  //     every replica returns a result no longer than a digest in full
  //     (DESIGN.md §6): each Set's "OK" reply is a full reply from all n
  //     replicas, so no client waits for (or eagerly retransmits to reach)
  //     the designated replier.
  const Pin pins[] = {
      {1, 1, 40, 7001, "036d39d1ab72", 3158},
      {2, 16, 5, 7002, "7ae9098e7b2b", 6324},
  };
  for (const Pin& pin : pins) {
    TraceResult r =
        RunWallclock(pin.f, pin.clients, pin.requests_per_client, pin.seed);
    ASSERT_TRUE(r.ok) << "seed " << pin.seed;
    EXPECT_EQ(r.digest, pin.digest) << "seed " << pin.seed;
    EXPECT_EQ(r.events, pin.events) << "seed " << pin.seed;
  }
}

// Witness of checkpoint pacing (DESIGN.md §12), which none of the pins above
// reaches: their replicas finish every checkpoint digest in idle time. Here
// a checkpoint every 8 batches with a window of 16 gives a vote deadline of
// 6 batches, and 16 clients keep the replicas busy enough that each
// executed batch charges the digest work its checkpoint is behind on.
//
// Pin history:
//   2edb80bccf6c / 10443 events — first pinned with the pacing itself
//     (DESIGN.md §12). The code before it forced nothing here and read
//     a98210177db9 / 10380.
//   b9b469106fcd / 10443 events — partition-tree interior nodes hash
//     (height, children) instead of (level, index, children) (DESIGN.md
//     §11): the checkpoint digests in the CHECKPOINT votes have new bytes;
//     the event count and every charge are unchanged.
TEST(KernelWitness, PacedCheckpointDigestsMatchPin) {
  TraceResult r = RunWallclock(/*f=*/1, /*clients=*/16,
                               /*requests_per_client=*/20, /*seed=*/7003,
                               /*checkpoint_interval=*/8, /*log_window=*/16);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.forced_us, 0u);
  EXPECT_EQ(r.digest, "b9b469106fcd");
  EXPECT_EQ(r.events, 10443u);
}

}  // namespace
}  // namespace bftbase
