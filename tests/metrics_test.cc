// Unit tests for the MetricsRegistry and the deterministic EventTrace.
#include <gtest/gtest.h>

#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "src/util/hotpath.h"

namespace bftbase {
namespace {

TEST(MetricsRegistry, CountersKeyedByNodeAndTag) {
  MetricsRegistry metrics;
  metrics.Inc("msgs", /*node=*/0, /*tag=*/1);
  metrics.Inc("msgs", /*node=*/0, /*tag=*/1, 2);
  metrics.Inc("msgs", /*node=*/0, /*tag=*/2, 5);
  metrics.Inc("msgs", /*node=*/1, /*tag=*/1, 10);
  metrics.Inc("other", /*node=*/0, /*tag=*/1, 100);

  EXPECT_EQ(metrics.Get("msgs", 0, 1), 3u);
  EXPECT_EQ(metrics.Get("msgs", 0, 2), 5u);
  EXPECT_EQ(metrics.Get("msgs", 1, 1), 10u);
  EXPECT_EQ(metrics.Get("msgs", 9, 9), 0u);
  EXPECT_EQ(metrics.Get("missing"), 0u);

  EXPECT_EQ(metrics.Total("msgs"), 18u);
  EXPECT_EQ(metrics.TotalForNode("msgs", 0), 8u);
  EXPECT_EQ(metrics.TotalForTag("msgs", 1), 13u);
}

TEST(MetricsRegistry, DefaultKeyIsWildcard) {
  MetricsRegistry metrics;
  metrics.Inc("hits");
  metrics.Inc("hits");
  EXPECT_EQ(metrics.Get("hits"), 2u);
  EXPECT_EQ(metrics.Total("hits"), 2u);
}

TEST(MetricsRegistry, HistogramTracksCountSumMinMax) {
  MetricsRegistry metrics;
  metrics.Observe("latency", 30, /*node=*/0);
  metrics.Observe("latency", 10, /*node=*/0);
  metrics.Observe("latency", 50, /*node=*/1);

  auto snap = metrics.Histogram("latency");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 90);
  EXPECT_EQ(snap.min, 10);
  EXPECT_EQ(snap.max, 50);
  EXPECT_DOUBLE_EQ(snap.Mean(), 30.0);

  EXPECT_EQ(metrics.Histogram("missing").count, 0u);
}

TEST(MetricsRegistry, CounterRowsAreDeterministicAndPrefixed) {
  MetricsRegistry metrics;
  metrics.Inc("net.bytes", 1, 2, 7);
  metrics.Inc("net.msgs", 0, 1, 3);
  metrics.Inc("replica.execs", 0, -1, 5);

  auto rows = metrics.CounterRows("net.");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "net.bytes");
  EXPECT_EQ(rows[0].value, 7u);
  EXPECT_EQ(rows[1].name, "net.msgs");

  EXPECT_EQ(metrics.CounterRows().size(), 3u);
}

TEST(MetricsRegistry, ResetPrefixLeavesOtherNamesAlone) {
  MetricsRegistry metrics;
  metrics.Inc("net.msgs", 0, 1, 3);
  metrics.Inc("replica.execs", 0, -1, 5);
  metrics.ResetPrefix("net.");
  EXPECT_EQ(metrics.Total("net.msgs"), 0u);
  EXPECT_EQ(metrics.Total("replica.execs"), 5u);
  metrics.Reset();
  EXPECT_EQ(metrics.Total("replica.execs"), 0u);
}

TEST(MetricsRegistry, SetOverwritesLikeAGauge) {
  MetricsRegistry metrics;
  metrics.Inc("gauge", 0, 1, 5);
  metrics.Set("gauge", 3, 0, 1);  // overwrite, not add
  EXPECT_EQ(metrics.Get("gauge", 0, 1), 3u);
  metrics.Set("gauge", 12, 0, 1);
  EXPECT_EQ(metrics.Get("gauge", 0, 1), 12u);
  // Other cells under the same name are untouched.
  metrics.Inc("gauge", 2, 2, 7);
  metrics.Set("gauge", 1, 0, 1);
  EXPECT_EQ(metrics.Get("gauge", 2, 2), 7u);
  EXPECT_EQ(metrics.Total("gauge"), 8u);
}

TEST(MetricsRegistry, SyncHotPathCountersMirrorsGlobals) {
  hotpath::ResetCounters();
  hotpath::counters().sha256_blocks = 42;
  hotpath::counters().bytes_hashed = 4242;
  hotpath::counters().encode_allocs = 7;
  MetricsRegistry metrics;
  SyncHotPathCounters(metrics);
  EXPECT_EQ(metrics.Get("hot.sha256_blocks"), 42u);
  EXPECT_EQ(metrics.Get("hot.bytes_hashed"), 4242u);
  EXPECT_EQ(metrics.Get("hot.encode_allocs"), 7u);
  // Syncing twice is idempotent (gauge semantics, not accumulation).
  SyncHotPathCounters(metrics);
  EXPECT_EQ(metrics.Get("hot.sha256_blocks"), 42u);
  hotpath::ResetCounters();
}

TEST(HotPathCounters, MergeAndSyncCoverEveryCounter) {
  // MergeCounters and SyncHotPathCounters both walk hotpath::kCounterFields
  // (whose static_assert covers every Counters field): a distinct value per
  // field must be merged into the shard and mirrored under "hot.<name>".
  hotpath::ResetCounters();
  hotpath::Counters delta;
  uint64_t value = 1;
  for (const hotpath::CounterField& field : hotpath::kCounterFields) {
    delta.*field.member = value++;
  }
  hotpath::MergeCounters(delta);
  hotpath::MergeCounters(delta);
  MetricsRegistry metrics;
  SyncHotPathCounters(metrics);
  value = 1;
  for (const hotpath::CounterField& field : hotpath::kCounterFields) {
    EXPECT_EQ(hotpath::counters().*field.member, 2 * value) << field.name;
    EXPECT_EQ(metrics.Get(std::string("hot.") + field.name), 2 * value)
        << field.name;
    ++value;
  }
  EXPECT_EQ(metrics.Get("hot.verify_memo_misses"),
            2 * std::size(hotpath::kCounterFields));
  hotpath::ResetCounters();
}

TEST(EventTrace, DisabledRecordsNothing) {
  EventTrace trace;
  Digest empty = trace.digest();
  trace.Record(TraceEvent::kMsgSend, 100, 0, 1, 64, 1);
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(trace.digest(), empty);
}

TEST(EventTrace, SameEventsSameDigest) {
  EventTrace a;
  EventTrace b;
  a.Enable();
  b.Enable();
  Bytes payload = ToBytes("payload");
  a.Record(TraceEvent::kMsgSend, 100, 0, 1, 64, 1, payload);
  a.Record(TraceEvent::kCommitted, 200, 2, -1, 0, 5);
  b.Record(TraceEvent::kMsgSend, 100, 0, 1, 64, 1, payload);
  b.Record(TraceEvent::kCommitted, 200, 2, -1, 0, 5);
  EXPECT_EQ(a.event_count(), 2u);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(EventTrace, AnyFieldChangesTheDigest) {
  auto digest_of = [](SimTime t, int from, uint64_t x) {
    EventTrace trace;
    trace.Enable();
    trace.Record(TraceEvent::kMsgSend, t, from, 1, x, 1);
    return trace.digest();
  };
  Digest base = digest_of(100, 0, 64);
  EXPECT_NE(base, digest_of(101, 0, 64));  // time
  EXPECT_NE(base, digest_of(100, 2, 64));  // node
  EXPECT_NE(base, digest_of(100, 0, 65));  // value
}

TEST(EventTrace, DigestIsRollingNotFinal) {
  EventTrace trace;
  trace.Enable();
  trace.Record(TraceEvent::kExecuted, 1, 0, -1, 0, 1);
  Digest first = trace.digest();
  // digest() must not finalize the stream: recording more events still works
  // and changes the digest.
  trace.Record(TraceEvent::kExecuted, 2, 0, -1, 0, 2);
  EXPECT_NE(trace.digest(), first);
  EXPECT_EQ(trace.event_count(), 2u);
}

}  // namespace
}  // namespace bftbase
