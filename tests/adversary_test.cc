// Active-adversary regressions (src/workload/adversary.{h,cc} plus the
// replica/network levers they drive): every strategy in the catalog is
// exercised against a real audited group, the primary quality monitor is
// proven necessary (the slow-primary attack wins without it and loses with
// it), the view-change timeout cap/reset satellite is pinned, and the
// liveness judge + repro plumbing get direct unit tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/sim/network.h"
#include "src/workload/adversary.h"
#include "src/workload/chaos.h"
#include "tests/audit_helpers.h"

namespace bftbase {
namespace {

AuditedGroup MakeGroup(ServiceGroup::Params params) {
  AuditedGroup group(new ServiceGroup(
      std::move(params), [](Simulation* sim, NodeId) {
        return std::make_unique<KvAdapter>(sim, 64);
      }));
  group->EnableAudit();
  return group;
}

// --- Planner ----------------------------------------------------------------

TEST(AdversaryPlan, DeterministicConfinedToVictimAndWindow) {
  const uint64_t seed = 77;
  const int victim = 2;
  const SimTime start = 200 * kMillisecond;
  const SimTime window = 1500 * kMillisecond;
  auto a = PlanAdversaryEvents(seed, 4, victim, start, window,
                               /*strategy=*/-1, /*count=*/16);
  auto b = PlanAdversaryEvents(seed, 4, victim, start, window,
                               /*strategy=*/-1, /*count=*/16);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(EncodeSchedule(a), EncodeSchedule(b));

  for (const FaultEvent& event : a) {
    EXPECT_TRUE(IsAdversaryKind(event.kind));
    EXPECT_EQ(event.replica, victim);
    EXPECT_GE(event.at, start);
    EXPECT_LT(event.at, start + window);
    EXPECT_GT(event.duration, 0);
    // Masked strategies must never target the victim itself and must leave
    // at least one backup on each side (equivocation needs a real conflict).
    if (event.kind == FaultKind::kEquivocate ||
        event.kind == FaultKind::kSelectiveSuppress) {
      EXPECT_EQ(event.side_mask & (1u << victim), 0u);
      EXPECT_NE(event.side_mask, 0u);
    }
  }

  // Pinning a strategy pins every event's kind without disturbing the rest
  // of the seed's draws (timing stays identical to the mixed plan).
  for (int s = 0; s < kAdversaryStrategyCount; ++s) {
    auto pinned = PlanAdversaryEvents(seed, 4, victim, start, window, s, 8);
    ASSERT_EQ(pinned.size(), 8u);
    for (size_t i = 0; i < pinned.size(); ++i) {
      EXPECT_EQ(pinned[i].kind,
                StrategyKind(static_cast<AdversaryStrategy>(s)));
      EXPECT_EQ(pinned[i].at, a[i].at);
    }
  }
}

TEST(AdversaryPlan, NamesRoundTrip) {
  for (int s = 0; s < kAdversaryStrategyCount; ++s) {
    AdversaryStrategy strategy = static_cast<AdversaryStrategy>(s);
    AdversaryStrategy parsed;
    ASSERT_TRUE(
        AdversaryStrategyFromName(AdversaryStrategyName(strategy), &parsed));
    EXPECT_EQ(parsed, strategy);
    FaultKind kind = StrategyKind(strategy);
    FaultKind parsed_kind;
    ASSERT_TRUE(FaultKindFromName(FaultKindName(kind), &parsed_kind));
    EXPECT_EQ(parsed_kind, kind);
  }
  AdversaryStrategy ignored;
  EXPECT_FALSE(AdversaryStrategyFromName("no-such-strategy", &ignored));
}

// --- Repro files ------------------------------------------------------------

TEST(AdversaryRepro, AdversaryScheduleAndOptionsRoundTrip) {
  ChaosOptions options;
  options.seed = 42;
  options.adversary = true;
  options.adversary_strategy =
      static_cast<int>(AdversaryStrategy::kViewChangeSpam);
  options.judge_liveness = true;
  options.liveness_bound = 45 * kSecond;

  std::vector<FaultEvent> schedule = {
      FaultEvent::Equivocate(100, 1, 0b1100, 5000),
      FaultEvent::SelectiveSuppress(200, 1, 0b0101, 0.75, 0, 6000),
      FaultEvent::SelectiveSuppress(250, 1, 0b0100, 0.0, 70 * kMillisecond,
                                    6000),
      FaultEvent::SlowPrimary(300, 1, 400 * kMillisecond, 7000),
      FaultEvent::ViewChangeSpam(400, 1, 8000),
      FaultEvent::CheckpointLie(500, 1, 9000),
  };
  std::string text = EncodeChaosRepro(options, schedule, ChaosRunResult{});

  ChaosOptions decoded_options;
  std::vector<FaultEvent> decoded;
  ASSERT_TRUE(DecodeChaosRepro(text, &decoded_options, &decoded));
  EXPECT_EQ(EncodeSchedule(decoded), EncodeSchedule(schedule));
  EXPECT_EQ(decoded_options.seed, options.seed);
  EXPECT_TRUE(decoded_options.adversary);
  EXPECT_EQ(decoded_options.adversary_strategy, options.adversary_strategy);
  EXPECT_TRUE(decoded_options.judge_liveness);
  EXPECT_EQ(decoded_options.liveness_bound, options.liveness_bound);
}

TEST(AdversaryRepro, DefaultOptionsOmitAdversaryKeysAndStillParse) {
  ChaosOptions options;
  options.seed = 7;
  std::vector<FaultEvent> schedule = {
      FaultEvent::Partition(100, 0b0011, 5000)};
  std::string text = EncodeChaosRepro(options, schedule, ChaosRunResult{});
  // Pre-adversary repro files had none of these keys; new encodes of
  // default options must stay byte-compatible with old parsers.
  EXPECT_EQ(text.find("adversary"), std::string::npos);
  EXPECT_EQ(text.find("liveness"), std::string::npos);

  ChaosOptions decoded_options;
  std::vector<FaultEvent> decoded;
  ASSERT_TRUE(DecodeChaosRepro(text, &decoded_options, &decoded));
  EXPECT_FALSE(decoded_options.adversary);
  EXPECT_FALSE(decoded_options.judge_liveness);
  EXPECT_EQ(EncodeSchedule(decoded), EncodeSchedule(schedule));
}

// --- Liveness judge ---------------------------------------------------------

TEST(LivenessJudge, VerdictsPerWindowAndPerClient) {
  // One attack window: [1s, 3s].
  std::vector<FaultEvent> schedule = {
      FaultEvent::SlowPrimary(1 * kSecond, 0, 400 * kMillisecond,
                              2 * kSecond)};
  const SimTime bound = 1 * kSecond;

  // Live: a commit lands 500ms after the window, every client progressed.
  LivenessVerdict verdict;
  LivenessInputs inputs;
  inputs.ok_completions = {500 * kMillisecond, 3500 * kMillisecond};
  inputs.per_client_last_ok = {3500 * kMillisecond};
  JudgeLiveness(schedule, /*scenario_start=*/0, inputs, bound, &verdict);
  EXPECT_TRUE(verdict.judged);
  EXPECT_TRUE(verdict.live) << verdict.explanation;
  EXPECT_EQ(verdict.max_window_recovery_us, 500 * kMillisecond);
  EXPECT_EQ(verdict.stalled_clients, 0);

  // Dead: no commit at all after the window.
  verdict = LivenessVerdict{};
  inputs.ok_completions = {500 * kMillisecond};
  inputs.per_client_last_ok = {500 * kMillisecond};
  JudgeLiveness(schedule, 0, inputs, bound, &verdict);
  EXPECT_FALSE(verdict.live);
  EXPECT_NE(verdict.explanation.find("no successful commit"),
            std::string::npos);

  // Too slow: the first post-window commit exceeds the bound.
  verdict = LivenessVerdict{};
  inputs.ok_completions = {5 * kSecond};
  inputs.per_client_last_ok = {5 * kSecond};
  JudgeLiveness(schedule, 0, inputs, bound, &verdict);
  EXPECT_FALSE(verdict.live);
  EXPECT_EQ(verdict.max_window_recovery_us, 2 * kSecond);

  // Stalled client: the group commits but one client never progresses past
  // the last window's end.
  verdict = LivenessVerdict{};
  inputs.ok_completions = {3500 * kMillisecond};
  inputs.per_client_last_ok = {3500 * kMillisecond, 800 * kMillisecond};
  JudgeLiveness(schedule, 0, inputs, bound, &verdict);
  EXPECT_FALSE(verdict.live);
  EXPECT_EQ(verdict.stalled_clients, 1);

  // Unjudged runs stay vacuously live.
  verdict = LivenessVerdict{};
  EXPECT_FALSE(verdict.judged);
  EXPECT_TRUE(verdict.live);
}

// --- Slow primary vs the quality monitor ------------------------------------

// THE monitor regression the adversary engine exists to pin: a primary that
// delays every proposal to just under the view-change timeout. Without the
// quality monitor the plain timer never fires — the group crawls at the
// attacker's chosen pace forever and never deposes it. With the monitor,
// backups measure the median request-to-commit latency, depose the crawling
// primary, and latency recovers. If the monitor is ever disabled or broken,
// the second half of this test fails.
TEST(SlowPrimary, MonitorDeposesCrawlingPrimaryAndRestoresLatency) {
  constexpr SimTime kCrawl = 400 * kMillisecond;
  auto run = [&](bool monitor, uint64_t seed, uint64_t* quality_vc,
                 ViewNum* final_view, SimTime* slowest, SimTime* last) {
    ServiceGroup::Params params;
    params.config.f = 1;
    // Fast retransmissions so backups see pending requests (and therefore
    // latency samples) ~100ms after the client first sends them.
    params.config.client_retry_timeout = 100 * kMillisecond;
    params.config.primary_quality_monitor = monitor;
    params.seed = seed;
    auto group = MakeGroup(std::move(params));
    group->replica(0).SetProposalDelay(kCrawl);

    *quality_vc = 0;
    *slowest = 0;
    for (int i = 0; i < 12; ++i) {
      auto r = group->Invoke(KvAdapter::EncodeSet(i, ToBytes("v")),
                             /*read_only=*/false, 30 * kSecond);
      ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
      *slowest = std::max(*slowest, group->client(0).last_latency());
      *last = group->client(0).last_latency();
    }
    for (int r = 0; r < group->replica_count(); ++r) {
      *quality_vc += group->replica(r).quality_view_changes();
    }
    *final_view = group->replica(1).view();
  };

  // Undefended: technically live, so no view change ever fires — every
  // single operation pays the attacker's delay.
  uint64_t quality_vc = 0;
  ViewNum view = 0;
  SimTime slowest = 0;
  SimTime last = 0;
  run(/*monitor=*/false, 9201, &quality_vc, &view, &slowest, &last);
  EXPECT_EQ(quality_vc, 0u);
  EXPECT_EQ(view, 0u) << "plain timeout deposed a just-under-timeout primary";
  EXPECT_GE(last, kCrawl - 100 * kMillisecond)
      << "undefended group stopped crawling — attack calibration is off";

  // Defended: the monitor deposes the crawler and the tail of the stream
  // runs at honest-primary speed.
  run(/*monitor=*/true, 9202, &quality_vc, &view, &slowest, &last);
  EXPECT_GE(quality_vc, 1u) << "quality monitor never fired";
  EXPECT_GE(view, 1u) << "monitor fired but the view never moved";
  EXPECT_GE(slowest, kCrawl - 100 * kMillisecond);  // it did crawl at first
  EXPECT_LT(last, kCrawl - 100 * kMillisecond)
      << "latency never recovered after the deposal";
}

// --- Equivocation -----------------------------------------------------------

// Conflicting PRE-PREPAREs to disjoint backup subsets: no prepare quorum can
// form in the equivocator's view, so the only safe outcomes are a view
// change away from it and a linearizable history afterwards.
TEST(Equivocation, MaskedConflictForcesViewChangeNotDivergence) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9203;
  auto group = MakeGroup(std::move(params));
  group->auditor()->MarkFaulty(0);
  group->replica(0).SetEquivocateMask(0b0110);  // 1,2 evil wire; 3 honest
  group->replica(0).SetEquivocate(true);

  auto r = group->Invoke(KvAdapter::EncodeSet(1, ToBytes("safe")),
                         /*read_only=*/false, 120 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(group->replica(1).view(), 1u)
      << "operation committed under an equivocating primary's view";

  group->replica(0).SetEquivocate(false);
  group->replica(0).SetEquivocateMask(0);
  auto get = group->Invoke(KvAdapter::EncodeGet(1), /*read_only=*/false,
                           60 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "safe");
}

// --- Selective suppression (directed pair levers, no partition) -------------

// The victim primary drops all of its own traffic toward two chosen backups
// while every other link stays healthy — no partition is declared anywhere.
// The starved backups learn of the pending request from the client's
// broadcast retransmission, time out, and depose the suppressor.
TEST(SelectiveSuppression, DirectedDropsDeposePrimaryWithoutPartition) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9204;
  auto group = MakeGroup(std::move(params));
  group->auditor()->MarkFaulty(0);
  ArmFaultSchedule(*group,
                   {FaultEvent::SelectiveSuppress(
                       /*at=*/0, /*replica=*/0, /*peer_mask=*/0b0110,
                       /*probability=*/1.0, /*extra_delay_us=*/0,
                       /*duration=*/4 * kSecond)});

  auto r = group->Invoke(KvAdapter::EncodeSet(2, ToBytes("through")),
                         /*read_only=*/false, 120 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(group->replica(1).view(), 1u)
      << "suppressed backups never suspected the primary";
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_FALSE(group->sim().network().IsIsolated(node));
  }

  auto get = group->Invoke(KvAdapter::EncodeGet(2), /*read_only=*/false,
                           60 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "through");
}

// The pair-delay lever is directed: delaying primary->backup hops slows the
// whole pipeline (the PRE-PREPARE is on the critical path), while delaying
// the reverse backup->primary hops does not (backups assemble their quorums
// among themselves and answer the client directly).
TEST(SelectiveSuppression, PairDelayIsDirected) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.seed = 9205;
  auto group = MakeGroup(std::move(params));
  constexpr SimTime kExtra = 50 * kMillisecond;

  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(0, ToBytes("w"))).ok());
  const SimTime baseline = group->client(0).last_latency();
  ASSERT_LT(baseline, kExtra);

  for (NodeId peer = 1; peer <= 3; ++peer) {
    group->sim().network().SetPairDelay(0, peer, kExtra);
  }
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(1, ToBytes("w"))).ok());
  EXPECT_GE(group->client(0).last_latency(), kExtra);

  for (NodeId peer = 1; peer <= 3; ++peer) {
    group->sim().network().SetPairDelay(0, peer, 0);
    group->sim().network().SetPairDelay(peer, 0, kExtra);
  }
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(2, ToBytes("w"))).ok());
  EXPECT_LT(group->client(0).last_latency(), kExtra)
      << "reverse-direction delays should not sit on the commit path";
}

// --- View-change spam -------------------------------------------------------

// A compromised replica floods signed stale / far-future / bogus-proof
// VIEW-CHANGE messages the whole time. None of them may move the view or
// degrade the client-visible stream.
TEST(ViewChangeSpam, SpamCannotMoveViewsOrStallClients) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.view_change_horizon = 8;  // tight bound, exercised by spam
  params.seed = 9206;
  auto group = MakeGroup(std::move(params));
  group->auditor()->MarkFaulty(3);
  ArmFaultSchedule(*group, {FaultEvent::ViewChangeSpam(
                               /*at=*/0, /*replica=*/3,
                               /*duration=*/3 * kSecond)});

  for (int i = 0; i < 10; ++i) {
    auto r = group->Invoke(KvAdapter::EncodeSet(i, ToBytes("s")),
                           /*read_only=*/false, 30 * kSecond);
    ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
  }
  for (int replica = 0; replica < 3; ++replica) {
    EXPECT_EQ(group->replica(replica).view(), 0u) << "replica " << replica;
    EXPECT_EQ(group->replica(replica).view_changes_started(), 0u)
        << "replica " << replica;
  }
  EXPECT_EQ(group->client(0).retries(), 0u);
}

// --- Checkpoint / state-transfer lying --------------------------------------

// The liar multicasts fabricated CHECKPOINT votes and serves poisoned
// partition values to fetchers. A lagging replica that catches up through
// state transfer while the liar is one of its sources must detect the digest
// mismatches, refetch from honest sources, and still converge.
TEST(CheckpointLie, PoisonedStateTransferIsDetectedAndSurvived) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 4;
  params.config.log_window = 16;
  params.seed = 9207;
  auto group = MakeGroup(std::move(params));
  group->auditor()->MarkFaulty(1);
  ArmFaultSchedule(*group, {FaultEvent::CheckpointLie(
                               /*at=*/0, /*replica=*/1,
                               /*duration=*/120 * kSecond)});

  // Replica 2 misses an entire checkpoint interval's worth of commits.
  group->sim().network().Isolate(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group->Invoke(KvAdapter::EncodeSet(i, ToBytes("x"))).ok());
  }
  group->sim().network().Heal(2);

  // Catch-up has to go through state transfer; the liar serves poison.
  ASSERT_TRUE(group->sim().RunUntilTrue(
      [&] { return group->replica(2).last_executed() >= 10; },
      group->sim().Now() + 120 * kSecond))
      << "lagging replica never caught up past the poisoned source";
  // The catch-up went through state transfer (not pre-prepare replay), so
  // the digest-verified fetch path ran with the liar in the source rotation.
  // (Whether the rotation actually lands on the liar is geometry-dependent;
  // the deterministic poison-rejection regression lives in
  // state_transfer_test.cc where every source can be poisoned at will.)
  EXPECT_GT(group->service(2).state_transfer().leaves_fetched(), 0u)
      << "lagging replica caught up without state transfer";

  auto get = group->Invoke(KvAdapter::EncodeGet(9), /*read_only=*/false,
                           60 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ToString(*get), "x");
}

// --- View-change timeout cap and reset (satellite regression) ---------------

// With no quorum reachable, view changes cascade and the timeout doubles —
// but only up to config.view_change_timeout_cap times the base. Once the
// network heals and a view installs stably, every replica's timeout must be
// back at the configured base.
TEST(ViewChangeTimeout, CapIsConfigurableAndResetsAfterStableView) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.view_change_timeout = 100 * kMillisecond;
  params.config.view_change_timeout_cap = 2;  // non-default: cap at 200ms
  params.seed = 9208;
  auto group = MakeGroup(std::move(params));
  const SimTime base = group->config().view_change_timeout;

  // Split 2-2: neither side can assemble any quorum, so every view change
  // fails and the timeout doubles until the cap.
  bool partitioned = true;
  group->sim().network().SetInterceptor(
      [&](NodeId from, NodeId to, Bytes&) {
        if (!partitioned || from > 3 || to > 3) {
          return true;
        }
        return (from <= 1) == (to <= 1);
      });

  bool done = false;
  Status status = Unavailable("never completed");
  group->client(0).Invoke(KvAdapter::EncodeSet(1, ToBytes("v")),
                          /*read_only=*/false, [&](Status s, Bytes) {
                            status = std::move(s);
                            done = true;
                          });
  group->sim().RunUntil(group->sim().Now() + 5 * kSecond);
  ASSERT_FALSE(done) << "a 2-2 split somehow committed";
  int cascaded = 0;
  for (int r = 0; r < group->replica_count(); ++r) {
    const SimTime timeout = group->replica(r).current_view_change_timeout();
    EXPECT_LE(timeout, 2 * base) << "replica " << r << " exceeded the cap";
    if (timeout > base) {
      ++cascaded;
    }
  }
  // Uncapped doubling would have reached 16x base within 5 seconds.
  EXPECT_GE(cascaded, 2) << "no replica ever cascaded — test armed wrong";

  partitioned = false;
  ASSERT_TRUE(group->sim().RunUntilTrue([&] { return done; },
                                        group->sim().Now() + 120 * kSecond));
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Let the installed view sit stably for a moment. Every replica that
  // installed the stable view must be back at the configured base timeout.
  // (One replica may have cascaded past the view the quorum installed while
  // the heal was in flight; it stays in its own view change — still capped —
  // until a recovery rejoins it, and the group tolerates it within f. The
  // reset regression binds the replicas that actually stabilized.)
  ASSERT_TRUE(group->Invoke(KvAdapter::EncodeGet(1)).ok());
  group->sim().RunUntil(group->sim().Now() + kSecond);
  int stabilized = 0;
  for (int r = 0; r < group->replica_count(); ++r) {
    EXPECT_LE(group->replica(r).current_view_change_timeout(), 2 * base)
        << "replica " << r;
    if (group->replica(r).in_view_change()) {
      continue;
    }
    ++stabilized;
    EXPECT_EQ(group->replica(r).current_view_change_timeout(), base)
        << "replica " << r << " kept an inflated timeout after stabilizing";
  }
  EXPECT_GE(stabilized, group->config().quorum())
      << "no quorum ever stabilized after the heal";
}

}  // namespace
}  // namespace bftbase
