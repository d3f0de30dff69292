// Unit tests for the util substrate: bytes/hex, compact codec, XDR, RNG,
// Status/Result.
#include <gtest/gtest.h>

#include "src/util/bytes.h"
#include "src/util/codec.h"
#include "src/util/percentile.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/xdr.h"

namespace bftbase {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(HexEncode(data), "0001abff7f");
  EXPECT_EQ(HexDecode("0001abff7f"), data);
  EXPECT_EQ(HexDecode("0001ABFF7F"), data);
}

TEST(Bytes, HexDecodeRejectsMalformed) {
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // non-hex
  EXPECT_TRUE(HexDecode("").empty());      // empty is fine (empty result)
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = ToBytes("same");
  Bytes b = ToBytes("same");
  Bytes c = ToBytes("diff");
  Bytes d = ToBytes("longer!");
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(Codec, RoundTripAllTypes) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-42);
  enc.PutBool(true);
  enc.PutBytes(ToBytes("payload"));
  enc.PutString("text");
  Bytes wire = enc.Take();

  Decoder dec(wire);
  EXPECT_EQ(dec.GetU8(), 0xab);
  EXPECT_EQ(dec.GetU16(), 0x1234);
  EXPECT_EQ(dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetI64(), -42);
  EXPECT_TRUE(dec.GetBool());
  EXPECT_EQ(ToString(dec.GetBytes()), "payload");
  EXPECT_EQ(dec.GetString(), "text");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Codec, TruncatedInputIsStickyFailure) {
  Encoder enc;
  enc.PutU64(7);
  Bytes wire = enc.Take();
  wire.resize(4);  // cut the u64 in half
  Decoder dec(wire);
  EXPECT_EQ(dec.GetU64(), 0u);
  EXPECT_FALSE(dec.ok());
  // Every later read keeps failing without crashing.
  EXPECT_EQ(dec.GetU32(), 0u);
  EXPECT_TRUE(dec.GetBytes().empty());
  EXPECT_FALSE(dec.AtEnd());
}

TEST(Codec, HostileLengthPrefixDoesNotOverread) {
  Encoder enc;
  enc.PutU32(0xffffffffu);  // length prefix claiming 4 GiB
  Bytes wire = enc.Take();
  Decoder dec(wire);
  EXPECT_TRUE(dec.GetBytes().empty());
  EXPECT_FALSE(dec.ok());
}

TEST(Codec, TrailingGarbageDetectedByAtEnd) {
  Encoder enc;
  enc.PutU32(1);
  Bytes wire = enc.Take();
  wire.push_back(0x99);
  Decoder dec(wire);
  dec.GetU32();
  EXPECT_TRUE(dec.ok());
  EXPECT_FALSE(dec.AtEnd());
}

TEST(Codec, BoolHasOneEncoding) {
  // PutBool writes 0 or 1. Any other byte fails the decode: accepted as
  // true, it would give a message 255 encodings of one value, each with its
  // own digest.
  for (int v = 0; v < 256; ++v) {
    Bytes wire = {static_cast<uint8_t>(v)};
    Decoder dec(wire);
    const bool b = dec.GetBool();
    EXPECT_EQ(dec.AtEnd(), v <= 1) << v;
    EXPECT_EQ(b, v == 1) << v;
  }
}

TEST(Xdr, RoundTripAllTypes) {
  XdrWriter w;
  w.PutUint32(77);
  w.PutInt32(-5);
  w.PutUint64(1ull << 40);
  w.PutInt64(-123456789);
  w.PutBool(true);
  w.PutOpaque(ToBytes("abc"));     // needs 1 byte of padding
  w.PutString("hello");            // needs 3 bytes of padding
  w.PutFixedOpaque(ToBytes("xy")); // needs 2 bytes of padding
  Bytes wire = w.Take();
  EXPECT_EQ(wire.size() % 4, 0u);  // XDR data is always 4-byte aligned

  XdrReader r(wire);
  EXPECT_EQ(r.GetUint32(), 77u);
  EXPECT_EQ(r.GetInt32(), -5);
  EXPECT_EQ(r.GetUint64(), 1ull << 40);
  EXPECT_EQ(r.GetInt64(), -123456789);
  EXPECT_TRUE(r.GetBool());
  EXPECT_EQ(ToString(r.GetOpaque()), "abc");
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(ToString(r.GetFixedOpaque(2)), "xy");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Xdr, PaddingIsZeroed) {
  XdrWriter w;
  w.PutString("a");
  Bytes wire = w.Take();
  ASSERT_EQ(wire.size(), 8u);  // 4 length + 1 char + 3 pad
  EXPECT_EQ(wire[5], 0);
  EXPECT_EQ(wire[6], 0);
  EXPECT_EQ(wire[7], 0);
}

TEST(Xdr, NonzeroPaddingRejected) {
  XdrWriter w;
  w.PutString("a");
  Bytes wire = w.Take();
  wire[6] = 1;
  XdrReader r(wire);
  EXPECT_TRUE(r.GetString().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Xdr, HostileLengthRejected) {
  XdrWriter w;
  w.PutUint32(0x7fffffff);
  XdrReader r(w.data());
  EXPECT_TRUE(r.GetOpaque().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Xdr, BoolIsTheEnumZeroOrOne) {
  for (uint32_t v : {0u, 1u, 2u, 0x100u, 0x01000000u, 0xffffffffu}) {
    XdrWriter w;
    w.PutUint32(v);
    XdrReader r(w.data());
    const bool b = r.GetBool();
    EXPECT_EQ(r.AtEnd(), v <= 1) << v;
    EXPECT_EQ(b, v == 1) << v;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, NextDoubleIsUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // rough uniformity check
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status err = NotFound("thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: thing");
}

TEST(Result, ValueAndStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Result, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 3);
}

// --- Nearest-rank percentiles (src/util/percentile.h) -----------------------

TEST(Percentile, EmptyAndSingleSample) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({42}, 0.0), 42);
  EXPECT_EQ(Percentile({42}, 0.5), 42);
  EXPECT_EQ(Percentile({42}, 0.99), 42);
  EXPECT_EQ(Percentile({42}, 1.0), 42);
}

TEST(Percentile, BoundaryQuantilesClampToEnds) {
  std::vector<int64_t> v{10, 20, 30, 40};
  EXPECT_EQ(Percentile(v, 0.0), 10);
  EXPECT_EQ(Percentile(v, -0.5), 10);
  EXPECT_EQ(Percentile(v, 1.0), 40);
  EXPECT_EQ(Percentile(v, 1.5), 40);
}

TEST(Percentile, NearestRankAtExactMultiples) {
  // N = 100, values 1..100: nearest-rank p99 is the 99th sample, NOT the
  // max. 0.99 * 100 lands at 99.00000000000001 in floating point; without
  // the epsilon nudge ceil pushes the rank to 100 (the bug the old inline
  // `N * 99 / 100` in micro_ops shared).
  std::vector<int64_t> v(100);
  for (int i = 0; i < 100; ++i) {
    v[i] = i + 1;
  }
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 0.999), 100);
}

TEST(Percentile, NearestRankRoundsUpBetweenSamples) {
  std::vector<int64_t> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(v, 0.50), 5);   // ceil(5.0)  = rank 5
  EXPECT_EQ(Percentile(v, 0.51), 6);   // ceil(5.1)  = rank 6
  EXPECT_EQ(Percentile(v, 0.90), 9);   // ceil(9.0)  = rank 9
  EXPECT_EQ(Percentile(v, 0.99), 10);  // ceil(9.9)  = rank 10
}

TEST(Percentile, SortsUnsortedInput) {
  EXPECT_EQ(Percentile({30, 10, 50, 20, 40}, 0.5), 30);
  // The pre-sorted variant trusts its input.
  EXPECT_EQ(PercentileOfSorted({10, 20, 30, 40, 50}, 0.5), 30);
}

TEST(Percentile, SummarizeLatenciesReportsTails) {
  std::vector<int64_t> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(i);
  }
  LatencySummary s = SummarizeLatencies(std::move(samples));
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.p999, 999);
  LatencySummary empty = SummarizeLatencies({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.p50, 0);
}

}  // namespace
}  // namespace bftbase
