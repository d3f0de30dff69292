// Regressions for the WAN-exposed timeout constants (DESIGN.md §16).
//
// The seed repo's protocol constants were calibrated on the paper's LAN
// testbed. Deployed on a geo topology preset they misfire in two ways this
// suite pins:
//
//   * the 300 ms client retransmission timeout fires before a cross-region
//     commit can possibly complete, so every request is retransmitted
//     (multicast to all replicas) on a perfectly healthy group;
//   * the retransmit storm feeds the primary-quality monitor — backups
//     sample relayed requests — and the 250 ms derived threshold then
//     deposes a healthy remote primary for latency it cannot avoid.
//
// Config::network_rtt_us (set from Topology::MaxRttUs()) derives effective
// timeouts from the deployment RTT instead. These tests run real service
// groups on the presets and check: the fixed constants are quiet on a
// healthy WAN, the old constants demonstrably were not, and a genuinely
// slow primary is still deposed. The primary's pipeline depth is derived
// the same way (Config::EffectivePipelineDepth): on a WAN only the high
// watermark bounds it, and the suite pins the throughput, the tail and a
// view change that carries more than two prepared batches. The
// adaptive-batching kill switch gets its byte-identical-trace witness and a
// burst-coalescing behavior check here too, and the last section checks that
// delay faults stack on the topology's link delays and heal back to them.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/bft/config.h"
#include "src/sim/topology.h"
#include "src/util/percentile.h"
#include "src/workload/fault_injector.h"

namespace bftbase {
namespace {

constexpr uint32_t kKvSlots = 4096;

// A service group deployed on a named preset: the topology's latency matrix
// and jitter are programmed onto the network and (unless the caller opts
// into the old LAN constants) config.network_rtt_us is set from the preset,
// exactly as bench_geo and the chaos runner do it.
std::unique_ptr<ServiceGroup> MakeGeoGroup(const Topology& topo,
                                           ServiceGroup::Params params,
                                           bool rtt_aware) {
  if (rtt_aware) {
    params.config.network_rtt_us = topo.MaxRttUs();
  }
  const int node_count = params.config.node_count();
  auto group = std::make_unique<ServiceGroup>(
      std::move(params), [](Simulation* sim, NodeId) {
        return std::make_unique<KvAdapter>(sim, kKvSlots);
      });
  ApplyTopology(group->sim().network(), topo, node_count);
  return group;
}

std::unique_ptr<ServiceGroup> MakeGeoGroup(const std::string& preset,
                                           ServiceGroup::Params params,
                                           bool rtt_aware) {
  Topology topo;
  EXPECT_TRUE(TopologyFromName(preset, &topo)) << preset;
  return MakeGeoGroup(topo, std::move(params), rtt_aware);
}

// Closed-loop KV writes: `clients` clients each issue `per_client` requests
// back to back. With `ordered_gets` they are ordered reads of the slots an
// earlier write run with the same counts filled, whose 256-byte results
// (longer than a digest) come in full from the designated replier only.
// `latencies`, when given, receives every request's commit latency.
// Returns true when every request completed in bounded virtual time.
bool RunClosedLoop(ServiceGroup& group, int clients, int per_client,
                   bool ordered_gets = false,
                   std::vector<int64_t>* latencies = nullptr) {
  const uint64_t total = static_cast<uint64_t>(clients) * per_client;
  uint64_t completed = 0;
  Bytes value(256, 0x5a);
  std::vector<int> issued(clients, 0);
  std::vector<SimTime> invoked_at(clients, 0);
  std::vector<std::function<void()>> issue(clients);
  for (int i = 0; i < clients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= per_client) {
        return;
      }
      ++issued[i];
      invoked_at[i] = group.sim().Now();
      uint32_t slot = static_cast<uint32_t>(i * 997 + issued[i]) % kKvSlots;
      group.client(i).Invoke(ordered_gets ? KvAdapter::EncodeGet(slot)
                                          : KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false, [&, i](Status, Bytes) {
                               ++completed;
                               if (latencies != nullptr) {
                                 latencies->push_back(group.sim().Now() -
                                                      invoked_at[i]);
                               }
                               issue[i]();
                             });
    };
  }
  for (int i = 0; i < clients; ++i) {
    issue[i]();
  }
  return group.sim().RunUntilTrue([&] { return completed == total; },
                                  static_cast<SimTime>(total + 16) * kSecond);
}

uint64_t TotalRetries(ServiceGroup& group, int clients) {
  uint64_t retries = 0;
  for (int i = 0; i < clients; ++i) {
    retries += group.client(i).retries();
  }
  return retries;
}

uint64_t TotalTimeoutRetries(ServiceGroup& group, int clients) {
  uint64_t retries = 0;
  for (int i = 0; i < clients; ++i) {
    retries += group.client(i).timeout_retries();
  }
  return retries;
}

uint64_t TotalQualityViewChanges(ServiceGroup& group) {
  uint64_t vc = 0;
  for (int r = 0; r < group.replica_count(); ++r) {
    vc += group.replica(r).quality_view_changes();
  }
  return vc;
}

uint64_t TotalBatches(ServiceGroup& group) {
  uint64_t batches = 0;
  for (int r = 0; r < group.replica_count(); ++r) {
    batches += group.replica(r).batches_executed();
  }
  return batches;
}

// --- The RTT-derived timeout formulas (src/bft/config.h) --------------------

TEST(GeoTimeouts, EffectiveValuesScaleWithDeploymentRtt) {
  Config config;
  // LAN (network_rtt_us == 0): every effective value is the static constant,
  // so seed-era traces are bit-identical.
  EXPECT_EQ(config.EffectiveClientRetryTimeout(), 300 * kMillisecond);
  EXPECT_EQ(config.EffectiveViewChangeTimeout(), 500 * kMillisecond);
  EXPECT_EQ(config.EffectivePrimaryLatencyThreshold(), 250 * kMillisecond);
  // The LAN pipeline keeps its window of max_in_flight_batches.
  EXPECT_EQ(config.EffectivePipelineDepth(), 2u);
  // A checkpoint vote is due D = L - k - depth batches after its checkpoint.
  EXPECT_EQ(config.CheckpointVoteDeadline(), 126u);  // 256 - 128 - 2
  Config small;
  small.checkpoint_interval = 8;
  small.log_window = 16;
  EXPECT_EQ(small.CheckpointVoteDeadline(), 6u);  // 16 - 8 - 2

  Topology topo;
  ASSERT_TRUE(TopologyFromName("3-region", &topo));
  config.network_rtt_us = topo.MaxRttUs();  // 164 ms
  EXPECT_EQ(config.EffectiveClientRetryTimeout(), 492 * kMillisecond);
  EXPECT_EQ(config.EffectiveViewChangeTimeout(), 656 * kMillisecond);
  EXPECT_EQ(config.EffectivePrimaryLatencyThreshold(), 492 * kMillisecond);
  // On a WAN only the high watermark bounds the pipeline, so a vote is due
  // the batch after its checkpoint.
  EXPECT_EQ(config.EffectivePipelineDepth(), config.log_window);
  EXPECT_EQ(config.CheckpointVoteDeadline(), 1u);

  ASSERT_TRUE(TopologyFromName("5-region-wan", &topo));
  config.network_rtt_us = topo.MaxRttUs();  // 325 ms
  EXPECT_EQ(config.EffectiveClientRetryTimeout(), 975 * kMillisecond);
  EXPECT_EQ(config.EffectiveViewChangeTimeout(), 1300 * kMillisecond);
  EXPECT_EQ(config.EffectivePrimaryLatencyThreshold(), 975 * kMillisecond);
  EXPECT_EQ(config.EffectivePipelineDepth(), config.log_window);
  EXPECT_EQ(config.CheckpointVoteDeadline(), 1u);
}

// --- Client retransmission on a WAN (the first misfire) ---------------------

// Same healthy 3-region group, both timeout regimes. With the seed's static
// 300 ms retry timeout the client retransmits because a cross-region commit
// plus the designated replier's full result takes longer than that to land;
// with the RTT-derived timeout the stream is retransmit-free. The control
// reads values longer than a digest: writes return "OK", which every replica
// sends in full, so they commit in 100-265 ms and no longer misfire. If this
// control half ever stops retransmitting, the regression has lost its
// teeth — the fixed half is the actual contract.
TEST(GeoRetransmission, RttDerivedRetryIsQuietWhereLanConstantStorms) {
  auto run = [](bool rtt_aware, bool ordered_gets) {
    ServiceGroup::Params params;
    params.config.f = 1;
    params.seed = 6401;
    auto group = MakeGeoGroup("3-region", std::move(params), rtt_aware);
    EXPECT_TRUE(RunClosedLoop(*group, /*clients=*/1, /*per_client=*/8));
    if (!ordered_gets) {
      return TotalRetries(*group, 1);
    }
    const uint64_t write_retries = TotalRetries(*group, 1);
    EXPECT_TRUE(RunClosedLoop(*group, /*clients=*/1, /*per_client=*/8,
                              /*ordered_gets=*/true));
    return TotalRetries(*group, 1) - write_retries;
  };
  EXPECT_GT(run(/*rtt_aware=*/false, /*ordered_gets=*/true), 0u)
      << "static 300ms retry no longer misfires on 3-region — recalibrate "
         "the control";
  EXPECT_EQ(run(/*rtt_aware=*/true, /*ordered_gets=*/false), 0u)
      << "RTT-derived retry timeout retransmitted on a healthy WAN";
}

// --- The primary-quality monitor on a WAN (the second misfire) --------------

// Healthy 5-region group, monitor armed, RTT-aware constants: nothing may
// fire. No retransmits means backups never even accumulate samples, and the
// derived threshold sits above one WAN commit's unavoidable latency.
TEST(GeoQualityMonitor, HealthyRemotePrimarySurvivesWan) {
  ServiceGroup::Params params;
  params.config.f = 2;
  params.config.primary_quality_monitor = true;
  params.seed = 6402;
  auto group = MakeGeoGroup("5-region-wan", std::move(params),
                            /*rtt_aware=*/true);
  ASSERT_TRUE(RunClosedLoop(*group, /*clients=*/4, /*per_client=*/4));
  EXPECT_EQ(TotalRetries(*group, 4), 0u);
  EXPECT_EQ(TotalQualityViewChanges(*group), 0u)
      << "quality monitor deposed a healthy cross-region primary";
  EXPECT_EQ(group->replica(1).view(), 0u);
}

// The composed failure the fix removes: with the old LAN constants on the
// same healthy group, the 300 ms retry fires mid-commit, the retransmit
// multicast makes every backup relay (and therefore latency-sample) every
// request, queueing behind the batching pipeline pushes the sampled
// relay-to-execution latencies over the old 250 ms threshold, and the
// monitor deposes a primary that did nothing wrong.
TEST(GeoQualityMonitor, OldLanConstantsDeposeHealthyWanPrimary) {
  ServiceGroup::Params params;
  params.config.f = 2;
  params.config.max_clients = 32;
  params.config.primary_quality_monitor = true;
  params.seed = 6403;
  auto group = MakeGeoGroup("5-region-wan", std::move(params),
                            /*rtt_aware=*/false);
  ASSERT_TRUE(RunClosedLoop(*group, /*clients=*/32, /*per_client=*/3));
  EXPECT_GT(TotalRetries(*group, 32), 0u);
  EXPECT_GE(TotalQualityViewChanges(*group), 1u)
      << "old constants no longer reproduce the spurious deposal — "
         "recalibrate the control";
}

// Deposition must keep working on a WAN: a primary that holds every
// proposal back far beyond the deployment's unavoidable RTT is removed and
// the group finishes the stream under a new primary. (The mechanics differ
// from the LAN crawl attack: a hold this long makes the proposed timestamp
// fail the backups' nondeterminism tolerance, so proposals are rejected
// outright and the relay-armed plain view-change timer fires. Sub-tolerance
// holds — ≲500 ms — are the residual crawl surface on a WAN; they are
// bounded by the same tolerance check, and commits then land inside the
// RTT-derived retry timeout, so backups see no relayed requests to sample.)
TEST(GeoQualityMonitor, GenuinelySlowPrimaryStillDeposedOnWan) {
  ServiceGroup::Params params;
  params.config.f = 2;
  params.config.primary_quality_monitor = true;
  params.seed = 6404;
  auto group = MakeGeoGroup("5-region-wan", std::move(params),
                            /*rtt_aware=*/true);
  group->replica(0).SetProposalDelay(1600 * kMillisecond);
  ASSERT_TRUE(RunClosedLoop(*group, /*clients=*/1, /*per_client=*/12));
  EXPECT_GE(group->replica(1).view(), 1u)
      << "a primary holding every proposal 1.6s was never deposed";
}

// --- The primary's pipeline on a WAN ----------------------------------------

// 64 closed-loop clients saturate a 3-region group. A fixed window of two
// batches of at most 8 per ~200 ms round would cap it near 107 ops/sim-s,
// queue requests behind the window until their tails pass the 492 ms retry
// timeout, and retransmit. Bounded by the high watermark alone, the
// pipeline carries the load at propagation latency.
TEST(GeoPipeline, SaturatedWanPipelineIsBoundedByTheWatermarkNotAWindow) {
  constexpr int kClients = 64;
  constexpr int kPerClient = 20;
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.max_clients = kClients;
  params.seed = 6406;
  auto group = MakeGeoGroup("3-region", std::move(params), /*rtt_aware=*/true);
  std::vector<int64_t> latencies;
  const SimTime start = group->sim().Now();
  ASSERT_TRUE(RunClosedLoop(*group, kClients, kPerClient,
                            /*ordered_gets=*/false, &latencies));
  const SimTime elapsed = group->sim().Now() - start;
  ASSERT_EQ(latencies.size(), static_cast<size_t>(kClients * kPerClient));
  const double ops_per_sim_s =
      static_cast<double>(latencies.size()) * kSecond / elapsed;
  const LatencySummary lat = SummarizeLatencies(std::move(latencies));
  EXPECT_GE(ops_per_sim_s, 200.0);
  EXPECT_EQ(TotalTimeoutRetries(*group, kClients), 0u);
  EXPECT_LE(lat.p99, 2 * lat.p50)
      << "p50 " << lat.p50 << " us, p99 " << lat.p99 << " us";
}

// Crash the 3-region primary while it has more than two batches
// unexecuted — a state a two-batch window never reaches — and while a
// backup holds more than two prepared certificates above its last executed
// batch, so the view change must carry all of them. Every append must then
// complete once, with its result, and the live replicas must agree on the
// stable checkpoint.
TEST(GeoPipeline, ViewChangeCarriesMoreThanTwoPreparedWanBatches) {
  constexpr int kClients = 32;
  constexpr int kPerClient = 12;
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.max_clients = kClients;
  params.config.checkpoint_interval = 16;
  params.config.log_window = 64;
  params.seed = 6407;
  auto group = MakeGeoGroup("3-region", std::move(params), /*rtt_aware=*/true);

  // Client i appends the tokens 'A'+k, k = 0..kPerClient-1, to its own slot.
  uint64_t completed = 0;
  uint64_t wrong_results = 0;
  std::vector<int> issued(kClients, 0);
  std::vector<std::function<void()>> issue(kClients);
  for (int i = 0; i < kClients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= kPerClient) {
        return;
      }
      const Bytes token{static_cast<uint8_t>('A' + issued[i])};
      ++issued[i];
      group->client(i).Invoke(
          KvAdapter::EncodeAppend(static_cast<uint32_t>(i), token),
          /*read_only=*/false, [&, i](Status status, Bytes result) {
            ++completed;
            if (!status.ok() || ToString(result) != "OK") {
              ++wrong_results;
            }
            issue[i]();
          });
    };
  }
  for (int i = 0; i < kClients; ++i) {
    issue[i]();
  }

  Replica& primary = group->replica(0);
  auto unexecuted_at_primary = [&] {
    int count = 0;
    for (const auto& [seq, entry] : primary.log().entries()) {
      count += seq > primary.last_executed() && entry.pre_prepare.has_value();
    }
    return count;
  };
  auto most_prepared_above_executed = [&] {
    int most = 0;
    for (int r = 1; r < group->replica_count(); ++r) {
      const Replica& backup = group->replica(r);
      int count = 0;
      for (SeqNum seq = backup.last_executed() + 1;
           seq <= backup.last_executed() + group->config().log_window; ++seq) {
        count += backup.has_prepared_cert(seq);
      }
      most = std::max(most, count);
    }
    return most;
  };
  // Mid-stream: a third of the appends done and checkpoints taken.
  const uint64_t total = static_cast<uint64_t>(kClients) * kPerClient;
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return completed >= total / 3; },
                                        group->sim().Now() + 30 * kSecond));
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] {
        return unexecuted_at_primary() > 2 &&
               most_prepared_above_executed() > 2;
      },
      group->sim().Now() + 10 * kSecond))
      << "the primary never had more than two batches unexecuted with more "
         "than two prepared at a backup";
  ASSERT_LT(completed, total);
  primary.Crash();

  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return completed == total; },
                                        group->sim().Now() + 120 * kSecond));
  EXPECT_EQ(wrong_results, 0u);
  EXPECT_GE(group->replica(1).view(), 1u);

  // Exactly once: every live replica's slot holds each token once, in order.
  std::string expected;
  for (int k = 0; k < kPerClient; ++k) {
    expected.push_back(static_cast<char>('A' + k));
  }
  for (int r = 1; r < group->replica_count(); ++r) {
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(ToString(group->adapter(r)->GetObj(static_cast<uint32_t>(i))),
                expected)
          << "replica " << r << ", client " << i;
    }
  }

  // The live replicas reach one stable checkpoint past the view change and
  // agree on its root.
  const SeqNum past = group->replica(1).last_executed();
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] {
        const SeqNum stable = group->replica(1).stable_seq();
        for (int r = 1; r < group->replica_count(); ++r) {
          if (stable < past || group->replica(r).stable_seq() != stable) {
            return false;
          }
        }
        return true;
      },
      group->sim().Now() + 120 * kSecond));
  for (int r = 2; r < group->replica_count(); ++r) {
    EXPECT_EQ(group->replica(r).stable_digest(),
              group->replica(1).stable_digest())
        << "replica " << r;
  }
}

// --- Adaptive batching ------------------------------------------------------

// The kill switch's witness: with adaptive_batching explicitly false the
// fault-free wall-clock trace is byte-identical to the seed pin (the same
// {f=1, 1 client, 40 requests, seed 7001} config tests/kernel_witness_test.cc
// pins). If this digest moves, the static batching path was touched.
// History: 228d57578ed1 -> ed3034f33651 when CPU charged while the group is
// built stopped delaying the messages sent before the first event (the
// kernel-witness pin moved with it); ed3034f33651 / 2918 -> c6c2ea0f45e1 /
// 3158 with separate request transmission (clients multicast every request,
// pre-prepares carry digests), again with the kernel-witness pin;
// c6c2ea0f45e1 -> 036d39d1ab72 / 3158 when every replica began returning a
// result no longer than a digest (each Set's "OK") in full.
TEST(AdaptiveBatching, KillSwitchKeepsSeedTraceByteIdentical) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 128;
  params.config.log_window = 256;
  params.config.max_clients = 16;
  params.config.adaptive_batching = false;
  params.seed = 7001;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });
  group.EnableTrace();

  Bytes value(1024, 0xab);
  int issued = 0;
  uint64_t completed = 0;
  std::function<void()> issue = [&] {
    if (issued >= 40) {
      return;
    }
    ++issued;
    uint32_t slot = static_cast<uint32_t>(issued) % kKvSlots;
    // Matches RunWallclock in kernel_witness_test.cc: slot = 0*997 + issued.
    group.client(0).Invoke(KvAdapter::EncodeSet(slot, value),
                           /*read_only=*/false, [&](Status, Bytes) {
                             ++completed;
                             issue();
                           });
  };
  issue();
  ASSERT_TRUE(group.sim().RunUntilTrue([&] { return completed == 40; },
                                       40 * kSecond));
  EXPECT_EQ(group.sim().trace().digest().Hex(), "036d39d1ab72");
  EXPECT_EQ(group.sim().trace().event_count(), 3158u);
}

// Behavior with the switch on: a bursty closed-loop load that backlogs the
// static cap-8 pipeline gets coalesced into fewer, larger batches, and
// every request still completes. (Since PRE-PREPAREs carry digests, 32
// clients no longer backlog the static pipeline: both policies took 18
// batches. 64 do.)
TEST(AdaptiveBatching, CoalescesBurstsIntoFewerBatches) {
  auto run = [](bool adaptive, uint64_t* batches) {
    ServiceGroup::Params params;
    params.config.f = 1;
    params.config.max_clients = 64;
    params.config.adaptive_batching = adaptive;
    params.seed = 6405;
    auto group = std::make_unique<ServiceGroup>(
        std::move(params), [](Simulation* sim, NodeId) {
          return std::make_unique<KvAdapter>(sim, kKvSlots);
        });
    ASSERT_TRUE(RunClosedLoop(*group, /*clients=*/64, /*per_client=*/4));
    *batches = TotalBatches(*group);
  };
  uint64_t static_batches = 0;
  uint64_t adaptive_batches = 0;
  run(/*adaptive=*/false, &static_batches);
  run(/*adaptive=*/true, &adaptive_batches);
  ASSERT_GT(static_batches, 0u);
  EXPECT_LT(adaptive_batches, static_batches)
      << "adaptive batching never widened the cap under a 64-client burst";
}

// --- Delay faults on a topology (src/workload/fault_injector.cc) -----------

// An idle 3-region group (no clients, no null-request heartbeat) on the
// preset's latency matrix without its jitter, so a probe's one-way latency
// is exactly the cost model's latency plus the link's delay.
std::unique_ptr<ServiceGroup> MakeQuiet3RegionGroup(Topology* topo) {
  EXPECT_TRUE(TopologyFromName("3-region", topo));
  topo->intra_jitter = JitterSpec::None();
  topo->inter_jitter = JitterSpec::None();
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.null_request_interval = 0;
  params.seed = 9301;
  return MakeGeoGroup(*topo, std::move(params), /*rtt_aware=*/true);
}

// One-way latency of a probe sent now from `from` to `to`, minus the cost
// model's share: the delay the link adds. The receiver is swapped for a stub
// while the probe is in flight, so the protocol never sees it.
SimTime ProbeDelay(ServiceGroup& group, NodeId from, NodeId to) {
  class Stub : public SimNode {
   public:
    explicit Stub(Simulation* sim) : sim_(sim) {}
    void OnMessage(NodeId, const Bytes&) override { arrived = sim_->Now(); }
    SimTime arrived = -1;

   private:
    Simulation* sim_;
  };
  Simulation& sim = group.sim();
  Stub stub(&sim);
  SimNode* receiver = sim.GetNode(to);
  sim.AddNode(to, &stub);
  const Bytes probe = ToBytes("probe");
  const SimTime sent = sim.Now();
  sim.After(Simulation::kNoOwner, 0,
            [&] { sim.network().Send(from, to, probe); });
  sim.RunUntilTrue([&] { return stub.arrived >= 0; }, sent + kSecond);
  sim.AddNode(to, receiver);
  EXPECT_GE(stub.arrived, 0) << "probe " << from << "->" << to << " lost";
  return stub.arrived - sent - sim.cost().MessageLatency(probe.size());
}

// A slowed inter-region link (the chaos planner adds one to every topology
// seed) adds its delay on top of the topology's in both directions and,
// once healed, leaves the link at the topology's one-way delays again, not
// at LAN speed.
TEST(GeoFaults, LinkDelayHealsBackToTheTopology) {
  Topology topo;
  auto group = MakeQuiet3RegionGroup(&topo);
  ASSERT_NE(topo.RegionOf(0), topo.RegionOf(1));
  constexpr SimTime kExtra = 200 * kMillisecond;
  const SimTime start = group->sim().Now();
  ArmFaultSchedule(*group, {FaultEvent::LinkDelay(0, 0, 1, kExtra, kSecond)});
  group->sim().RunUntil(start + kMillisecond);
  EXPECT_EQ(ProbeDelay(*group, 0, 1), topo.OneWayUs(0, 1) + kExtra);
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0) + kExtra);
  group->sim().RunUntil(start + 2 * kSecond);
  EXPECT_EQ(ProbeDelay(*group, 0, 1), topo.OneWayUs(0, 1));  // 48 ms
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0));  // 52 ms
}

// Two delay faults overlap on one link: when the first heals it takes back
// only its own delay, and the second's still applies until it heals too.
TEST(GeoFaults, OverlappingLinkDelaysCompose) {
  Topology topo;
  auto group = MakeQuiet3RegionGroup(&topo);
  constexpr SimTime kFirstExtra = 10 * kMillisecond;
  constexpr SimTime kSecondExtra = 20 * kMillisecond;
  const SimTime start = group->sim().Now();
  ArmFaultSchedule(
      *group, {FaultEvent::LinkDelay(0, 0, 1, kFirstExtra, kSecond),
               FaultEvent::LinkDelay(500 * kMillisecond, 1, 0, kSecondExtra,
                                     kSecond)});
  group->sim().RunUntil(start + 600 * kMillisecond);
  EXPECT_EQ(ProbeDelay(*group, 0, 1),
            topo.OneWayUs(0, 1) + kFirstExtra + kSecondExtra);
  group->sim().RunUntil(start + 1200 * kMillisecond);  // the first has healed
  EXPECT_EQ(ProbeDelay(*group, 0, 1), topo.OneWayUs(0, 1) + kSecondExtra);
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0) + kSecondExtra);
  group->sim().RunUntil(start + 2 * kSecond);
  EXPECT_EQ(ProbeDelay(*group, 0, 1), topo.OneWayUs(0, 1));
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0));
}

// A selective-suppression delay slows only victim -> peer and, once healed,
// leaves that direction at the topology's delay, which on 3-region differs
// from the reverse one (1 -> 0 is 52 ms, 0 -> 1 is 48 ms).
TEST(GeoFaults, SelectiveSuppressDelayHealsBackToTheTopology) {
  Topology topo;
  auto group = MakeQuiet3RegionGroup(&topo);
  ASSERT_GT(topo.OneWayUs(1, 0), topo.OneWayUs(0, 1));
  constexpr SimTime kExtra = 30 * kMillisecond;
  const SimTime start = group->sim().Now();
  ArmFaultSchedule(*group,
                   {FaultEvent::SelectiveSuppress(0, /*replica=*/1,
                                                  /*peer_mask=*/1u << 0,
                                                  /*probability=*/0.0, kExtra,
                                                  kSecond)});
  group->sim().RunUntil(start + kMillisecond);
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0) + kExtra);
  EXPECT_EQ(ProbeDelay(*group, 0, 1), topo.OneWayUs(0, 1));  // not directed
  group->sim().RunUntil(start + 2 * kSecond);
  EXPECT_EQ(ProbeDelay(*group, 1, 0), topo.OneWayUs(1, 0));
}

}  // namespace
}  // namespace bftbase
