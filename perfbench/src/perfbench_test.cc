// Tests for the benchmark's helpers and for the determinism of its
// workloads (run at test size).
#include <gtest/gtest.h>

#include "perfbench/src/harness.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"
#include "src/util/log.h"

namespace perfbench {
namespace {

using bftbase::kMillisecond;
using bftbase::kSecond;
using bftbase::Simulation;

// --- Percentile rule ---------------------------------------------------------

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileReportable(1000, 0.99));
  EXPECT_FALSE(PercentileReportable(999, 0.99));
  EXPECT_TRUE(PercentileReportable(10000, 0.999));
  EXPECT_FALSE(PercentileReportable(9999, 0.999));
  EXPECT_FALSE(PercentileReportable(0, 0.5));
}

TEST(PercentileRule, HighestReportableWithSampleCount) {
  std::vector<int64_t> samples;
  for (int64_t i = 1; i <= 1500; ++i) {
    samples.push_back(1501 - i);  // unsorted input
  }
  TailReport tail = HighestReportable(samples);
  EXPECT_EQ(tail.samples, 1500u);
  EXPECT_DOUBLE_EQ(tail.q, 0.99);
  EXPECT_EQ(tail.value, 1485);  // nearest rank ceil(0.99 * 1500)
  EXPECT_EQ(PercentileLabel(tail.q), "p99");

  TailReport small = HighestReportable({5, 1, 3});
  EXPECT_EQ(small.q, 0.0);  // not even the median has 10 samples beyond
  EXPECT_EQ(small.samples, 3u);
  EXPECT_EQ(PercentileLabel(0.5), "p50");
  EXPECT_EQ(PercentileLabel(0.999), "p999");
}

// --- Failure accounting ------------------------------------------------------

TEST(OpLedger, TimeoutCountsAsFailedAndMissesEveryLimit) {
  OpLedger ledger;
  ledger.Record(Outcome::kOk, 5 * kMillisecond);
  ledger.Record(Outcome::kOk, 50 * kMillisecond);
  ledger.Record(Outcome::kTimedOut);
  ledger.Record(Outcome::kRejected);
  ledger.Record(Outcome::kWrongResult);
  EXPECT_EQ(ledger.attempted(), 5u);
  EXPECT_EQ(ledger.ok(), 2u);
  EXPECT_EQ(ledger.failed(), 3u);
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.6);
  // Failures have no latency sample...
  EXPECT_EQ(ledger.latencies().size(), 2u);
  // ...and miss every limit, however generous.
  EXPECT_EQ(ledger.MissedLimit(10 * kMillisecond), 4u);
  EXPECT_EQ(ledger.MissedLimit(1000 * kSecond), 3u);
}

// --- Open-loop generator -----------------------------------------------------

TEST(OpenLoop, ScheduleIsAPureFunctionOfTheSeed) {
  auto a = PoissonSchedule(7, 100.0, 500, 0);
  auto b = PoissonSchedule(7, 100.0, 500, 0);
  auto c = PoissonSchedule(8, 100.0, 500, 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Mean gap near 1/rate (10 ms); 500 draws keep it well within 20%.
  const double mean_gap = static_cast<double>(a.back()) / 500.0;
  EXPECT_NEAR(mean_gap, 10.0 * kMillisecond, 2.0 * kMillisecond);
}

TEST(OpenLoop, RequestDueWhileClientsBusyIsTimedFromItsDueTime) {
  Simulation sim(1);
  // One client, a service that takes 10 ms; requests fall due at 0 and 1 ms.
  std::vector<int> clients_used;
  OpenLoopGenerator generator(
      &sim, {0, 1 * kMillisecond}, 1,
      [&](size_t, int client, OpenLoopGenerator::DoneFn done) {
        clients_used.push_back(client);
        sim.After(Simulation::kNoOwner, 10 * kMillisecond,
                  [done] { done(Outcome::kOk); });
      });
  generator.Start();
  sim.RunUntilIdle();
  ASSERT_TRUE(generator.finished());
  ASSERT_EQ(generator.ledger().latencies().size(), 2u);
  EXPECT_EQ(generator.ledger().latencies()[0], 10 * kMillisecond);
  // Sent at 10 ms when the client freed up, done at 20 ms, due at 1 ms.
  EXPECT_EQ(generator.ledger().latencies()[1], 19 * kMillisecond);
  EXPECT_EQ(generator.queue_waits()[1], 9 * kMillisecond);
  EXPECT_EQ(clients_used, (std::vector<int>{0, 0}));
}

TEST(OpenLoop, ExpiredRequestsCountAsTimedOut) {
  Simulation sim(1);
  OpenLoopGenerator generator(&sim, {0, 5 * kMillisecond, 10 * kMillisecond}, 1,
                        [](size_t, int, OpenLoopGenerator::DoneFn) {
                          // never completes
                        });
  generator.Start();
  sim.RunUntil(7 * kMillisecond);
  generator.ExpireOutstanding();
  EXPECT_TRUE(generator.finished());
  EXPECT_EQ(generator.ledger().timed_out(), 3u);
  EXPECT_EQ(generator.ledger().MissedLimit(kSecond), 3u);
}

// --- Generated inputs --------------------------------------------------------

TEST(Inputs, DifferentSeedsGiveDifferentInputs) {
  auto lan1 = MakeKvLanInputs(1, true);
  auto lan2 = MakeKvLanInputs(2, true);
  EXPECT_NE(lan1[0][0].slot + 1000 * lan1[0][0].value_size +
                lan1[3][5].slot,
            lan2[0][0].slot + 1000 * lan2[0][0].value_size + lan2[3][5].slot);

  auto geo1 = MakeKvGeoInputs(1, true);
  auto geo2 = MakeKvGeoInputs(2, true);
  ASSERT_EQ(geo1.size(), geo2.size());
  bool differ = false;
  for (size_t i = 0; i < geo1.size(); ++i) {
    differ = differ || geo1[i].slot != geo2[i].slot ||
             geo1[i].due_us != geo2[i].due_us;
  }
  EXPECT_TRUE(differ);
  // Sets in the geo schedule write distinct slots.
  std::set<uint32_t> set_slots;
  size_t sets = 0;
  for (const KvOp& op : geo1) {
    if (!op.read) {
      ++sets;
      set_slots.insert(op.slot);
    }
  }
  EXPECT_EQ(set_slots.size(), sets);

  EXPECT_NE(MakeAndrewConfig(1, true).seed, MakeAndrewConfig(2, true).seed);
  EXPECT_NE(ValueFor(1, 3, 64), ValueFor(2, 3, 64));
  EXPECT_EQ(ValueFor(1, 3, 64), ValueFor(1, 3, 64));
}

// --- Workload determinism ----------------------------------------------------

class WorkloadDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadDeterminism, SameSeedSameResults) {
  bftbase::SetLogLevel(bftbase::LogLevel::kError);
  const WorkloadInfo* w = FindWorkload(GetParam());
  ASSERT_NE(w, nullptr);
  RepOptions opts;
  opts.seed = 11;
  opts.small = true;
  opts.event_trace = true;
  Tracer tracer_a;
  opts.tracer = &tracer_a;
  RepResult a = w->run(opts);
  Tracer tracer_b;
  opts.tracer = &tracer_b;
  RepResult b = w->run(opts);
  EXPECT_TRUE(a.ok()) << (a.check_failures.empty() ? ""
                                                    : a.check_failures[0]);
  EXPECT_GT(a.ledger.ok(), 0u);
  EXPECT_EQ(a.ledger.failed(), 0u);
  // Virtual-time results, per-layer counts and the event trace all repeat.
  EXPECT_EQ(a.ledger.latencies(), b.ledger.latencies());
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_TRUE(a.counts == b.counts);
  EXPECT_GT(a.counts.events, 0u);
  EXPECT_GT(a.counts.checkpoints, 0u);
  EXPECT_EQ(a.event_trace, b.event_trace);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(tracer_a.phase_samples(SpanKind::kPhasePreparedToCommitted),
            tracer_b.phase_samples(SpanKind::kPhasePreparedToCommitted));
  EXPECT_GT(tracer_a.count(SpanKind::kAdapterExecute), 0u);

  // Tracing only observes: an untraced run of the seed fingerprints the same.
  opts.tracer = nullptr;
  RepResult plain = w->run(opts);
  EXPECT_EQ(plain.Fingerprint(), a.Fingerprint());

  // A different seed changes the inputs, and so the trace.
  opts.seed = 12;
  RepResult other = w->run(opts);
  EXPECT_TRUE(other.ok());
  EXPECT_NE(other.event_trace, a.event_trace);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminism,
                         ::testing::Values("kv_lan_hot", "andrew_hetero",
                                           "kv_geo_crash"));

}  // namespace
}  // namespace perfbench
