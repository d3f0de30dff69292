// Unit tests for the crypto substrate: SHA-256 against FIPS/NIST vectors,
// HMAC-SHA256 against RFC 4231 vectors, key table and authenticators. The
// optimized paths (SHA-NI, one-shot digests, midstate HMAC, interleaved
// lanes) are checked against a block-at-a-time reference hasher built on
// sha256_internal::Compress.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"

namespace bftbase {
namespace {

using Sha256Out = std::array<uint8_t, Sha256::kDigestSize>;

// Reference SHA-256: the FIPS 180-4 streaming definition, one byte into the
// block buffer at a time and one scalar sha256_internal::Compress per full
// block. Touches no hot-path counter.
class RefSha256 {
 public:
  void Update(BytesView data) {
    for (uint8_t byte : data) {
      block_[fill_++] = byte;
      if (fill_ == 64) {
        sha256_internal::Compress(state_, block_);
        fill_ = 0;
      }
    }
    bits_ += 8 * static_cast<uint64_t>(data.size());
  }
  // Little-endian u64, as Digest::Builder::Add(uint64_t) feeds it.
  void UpdateU64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Update(BytesView(b, 8));
  }
  Sha256Out Final() {
    const uint64_t bits = bits_;
    const uint8_t one = 0x80;
    const uint8_t zero = 0;
    Update(BytesView(&one, 1));
    while (fill_ != 56) {
      Update(BytesView(&zero, 1));
    }
    uint8_t length[8];
    for (int i = 0; i < 8; ++i) {
      length[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    }
    Update(BytesView(length, 8));
    Sha256Out out;
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 4; ++j) {
        out[4 * i + j] = static_cast<uint8_t>(state_[i] >> (24 - 8 * j));
      }
    }
    return out;
  }

 private:
  uint32_t state_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  uint8_t block_[64] = {};
  size_t fill_ = 0;
  uint64_t bits_ = 0;
};

Sha256Out RefHash(BytesView data) {
  RefSha256 h;
  h.Update(data);
  return h.Final();
}

// Reference HMAC-SHA256 (RFC 2104) over RefSha256.
Sha256Out RefHmac(BytesView key, BytesView message) {
  uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Sha256Out hashed = RefHash(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  RefSha256 inner;
  inner.Update(BytesView(ipad, 64));
  inner.Update(message);
  const Sha256Out inner_digest = inner.Final();
  RefSha256 outer;
  outer.Update(BytesView(opad, 64));
  outer.Update(inner_digest);
  return outer.Final();
}

std::string Hex(const Sha256Out& digest) {
  return HexEncode(BytesView(digest.data(), digest.size()));
}

std::string HashHex(BytesView data) {
  auto digest = Sha256::Hash(data);
  return HexEncode(BytesView(digest.data(), digest.size()));
}

TEST(Sha256, NistVectors) {
  // FIPS 180-4 / NIST CAVS known-answer tests.
  EXPECT_EQ(HashHex(ToBytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashHex(ToBytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HashHex(ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ReferenceHasherMatchesNistVectors) {
  // The oracle itself, against the same known answers as the hasher.
  EXPECT_EQ(Hex(RefHash(ToBytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Hex(RefHash(ToBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Hex(RefHmac(Bytes(131, 0xaa),
                        ToBytes("Test Using Larger Than Block-Size Key - "
                                "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  uint8_t out[Sha256::kDigestSize];
  hasher.Final(out);
  EXPECT_EQ(HexEncode(BytesView(out, sizeof(out))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<uint8_t>(i * 131));
  }
  auto one_shot = Sha256::Hash(data);
  // Feed in awkward chunk sizes that straddle block boundaries.
  Sha256 hasher;
  size_t pos = 0;
  size_t sizes[] = {1, 63, 64, 65, 127, 128, 200, 352};
  for (size_t size : sizes) {
    size_t take = std::min(size, data.size() - pos);
    hasher.Update(BytesView(data.data() + pos, take));
    pos += take;
  }
  hasher.Update(BytesView(data.data() + pos, data.size() - pos));
  uint8_t streamed[Sha256::kDigestSize];
  hasher.Final(streamed);
  EXPECT_EQ(HexEncode(BytesView(streamed, sizeof(streamed))),
            HexEncode(BytesView(one_shot.data(), one_shot.size())));
}

TEST(HmacSha256, Rfc4231Vectors) {
  // RFC 4231 test case 1.
  Bytes key(20, 0x0b);
  auto mac1 = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(BytesView(mac1.data(), mac1.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // RFC 4231 test case 2 ("Jefe").
  auto mac2 = HmacSha256(ToBytes("Jefe"),
                         ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(BytesView(mac2.data(), mac2.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
  Bytes key3(20, 0xaa);
  Bytes data3(50, 0xdd);
  auto mac3 = HmacSha256(key3, data3);
  EXPECT_EQ(HexEncode(BytesView(mac3.data(), mac3.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  Bytes key(131, 0xaa);
  auto mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(BytesView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Digest, EqualityAndOrdering) {
  Digest a = Digest::Of(ToBytes("a"));
  Digest b = Digest::Of(ToBytes("b"));
  Digest a2 = Digest::Of(ToBytes("a"));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a.IsZero());
  EXPECT_TRUE(Digest().IsZero());
}

TEST(Digest, BuilderIsOrderSensitive) {
  Digest ab = Digest::Builder().Add(ToBytes("a")).Add(ToBytes("b")).Build();
  Digest ba = Digest::Builder().Add(ToBytes("b")).Add(ToBytes("a")).Build();
  EXPECT_NE(ab, ba);
}

TEST(Digest, FromBytesRejectsWrongSize) {
  EXPECT_TRUE(Digest::FromBytes(ToBytes("short")).IsZero());
  Digest d = Digest::Of(ToBytes("x"));
  EXPECT_EQ(Digest::FromBytes(d.ToBytes()), d);
}

TEST(KeyTable, SessionKeysAreSymmetric) {
  KeyTable keys(0x1234, 8);
  EXPECT_EQ(HexEncode(keys.SessionKey(2, 5)), HexEncode(keys.SessionKey(5, 2)));
  EXPECT_NE(HexEncode(keys.SessionKey(2, 5)), HexEncode(keys.SessionKey(2, 6)));
}

TEST(KeyTable, RefreshRotatesKeysForNode) {
  KeyTable keys(0x1234, 8);
  Bytes before = keys.SessionKey(1, 3);
  Bytes other_before = keys.SessionKey(2, 4);
  keys.RefreshKeysFor(3);
  EXPECT_NE(HexEncode(before), HexEncode(keys.SessionKey(1, 3)));
  // Keys not involving node 3 are unchanged.
  EXPECT_EQ(HexEncode(other_before), HexEncode(keys.SessionKey(2, 4)));
}

TEST(KeyTable, SigningKeysSurviveRefresh) {
  KeyTable keys(0x77, 4);
  Bytes before = keys.SigningKey(2);
  keys.RefreshKeysFor(2);
  EXPECT_EQ(HexEncode(before), HexEncode(keys.SigningKey(2)));
  EXPECT_NE(HexEncode(keys.SigningKey(2)), HexEncode(keys.SigningKey(3)));
}

TEST(HmacKey, MatchesPlainHmacSha256) {
  // The midstate-cloning fast path must be byte-identical to the reference
  // implementation, for every key-size regime and message length.
  std::vector<Bytes> test_keys = {Bytes(20, 0x0b), ToBytes("Jefe"),
                                  Bytes(64, 0x55), Bytes(131, 0xaa)};
  std::vector<Bytes> messages = {Bytes(), ToBytes("Hi There"), Bytes(64, 0xdd),
                                 Bytes(1000, 0x7e)};
  for (const Bytes& key : test_keys) {
    HmacKey fast(key);
    for (const Bytes& message : messages) {
      auto expected = HmacSha256(key, message);
      auto got = fast.Hmac(message);
      EXPECT_EQ(Hex(got), Hex(expected));
      EXPECT_EQ(Hex(got), Hex(RefHmac(key, message)));
      EXPECT_EQ(fast.MacOf(message), ComputeMac(key, message));
    }
  }
}

TEST(KeyTable, PairMacMatchesComputeMac) {
  KeyTable keys(0x5150, 8);
  Bytes message = ToBytes("pair mac message");
  Mac reference = ComputeMac(keys.SessionKey(2, 5), message);
  EXPECT_EQ(keys.PairMac(2, 5, message), reference);
  EXPECT_EQ(keys.PairMac(5, 2, message), reference);  // symmetric
  // Second call hits the session cache and must agree with the first.
  EXPECT_EQ(keys.PairMac(2, 5, message), reference);
}

TEST(KeyTable, PairMacCacheInvalidatedByKeyRefresh) {
  KeyTable keys(0x5150, 8);
  Bytes message = ToBytes("m");
  Mac before = keys.PairMac(1, 3, message);  // warms the (1,3) cache slot
  keys.RefreshKeysFor(3);
  Mac after = keys.PairMac(1, 3, message);
  EXPECT_NE(before, after);  // stale cached HmacKey must not survive refresh
  EXPECT_EQ(after, ComputeMac(keys.SessionKey(1, 3), message));
  // Pairs not involving node 3 keep their keys.
  EXPECT_EQ(keys.PairMac(2, 4, message),
            ComputeMac(keys.SessionKey(2, 4), message));
}

TEST(KeyTable, SignMatchesHmacOverSigningKey) {
  KeyTable keys(0x77, 4);
  Bytes message = ToBytes("signed payload");
  auto reference = HmacSha256(keys.SigningKey(2), message);
  auto got = keys.Sign(2, message);
  EXPECT_EQ(HexEncode(BytesView(got.data(), got.size())),
            HexEncode(BytesView(reference.data(), reference.size())));
  // Signing keys survive refresh, so cached signing HmacKeys stay valid.
  keys.RefreshKeysFor(2);
  auto after = keys.Sign(2, message);
  EXPECT_EQ(HexEncode(BytesView(after.data(), after.size())),
            HexEncode(BytesView(reference.data(), reference.size())));
}

TEST(Sha256, HotPathCountersTrackWork) {
  hotpath::ResetCounters();
  const hotpath::Counters before = hotpath::counters();
  Bytes data(150, 'q');  // 150 message bytes: 3 compressions with padding
  Sha256::Hash(data);
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_EQ(after.sha256_invocations - before.sha256_invocations, 1u);
  EXPECT_EQ(after.bytes_hashed - before.bytes_hashed, 150u);
  EXPECT_EQ(after.sha256_blocks - before.sha256_blocks, 3u);
}

TEST(Sha256, BufferedBlocksRunOnKernel) {
  // A partition-tree node hashes as many small Digest::Builder Adds, so every
  // block it compresses is assembled in the hasher's buffer, as are the tail
  // and padding blocks of most streamed hashes. Those blocks must reach the
  // kernel too, and hash exactly as the reference.
  const Digest child = Digest::Of(ToBytes("child"));
  std::vector<Bytes> inputs;
  for (size_t len : {56, 64, 100, 300}) {
    Bytes input(len);
    for (size_t i = 0; i < len; ++i) {
      input[i] = static_cast<uint8_t>(i * 29 + len);
    }
    inputs.push_back(std::move(input));
  }
  std::vector<Sha256Out> reference;
  {
    RefSha256 node;
    node.UpdateU64(2);
    node.UpdateU64(37);
    for (int i = 0; i < 16; ++i) {
      node.Update(child.view());
    }
    reference.push_back(node.Final());
    for (const Bytes& input : inputs) {
      reference.push_back(RefHash(input));
    }
  }
  const hotpath::Counters before = hotpath::counters();
  std::vector<Sha256Out> kernel;
  {
    Digest::Builder node;
    node.Add(uint64_t{2}).Add(uint64_t{37});
    for (int i = 0; i < 16; ++i) {
      node.Add(child);
    }
    kernel.push_back(node.Build().array());
    for (const Bytes& input : inputs) {
      kernel.push_back(Sha256::Hash(input));
    }
  }
  const hotpath::Counters& after = hotpath::counters();
  EXPECT_EQ(kernel, reference);
  if (sha256_multi::HasShaNi()) {
    EXPECT_EQ(after.sha256_ni_blocks - before.sha256_ni_blocks,
              after.sha256_blocks - before.sha256_blocks);
  }
}

TEST(Sha256Multi, NistCavpShortMessageVectors) {
  // NIST CAVP SHA256ShortMsg.rsp (byte-oriented) known-answer tests; these
  // lengths all take the one-shot single-compression path.
  struct Kat {
    const char* msg_hex;
    const char* digest_hex;
  };
  const Kat kats[] = {
      {"d3",
       "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"},
      {"11af",
       "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"},
      {"b4190e",
       "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"},
      {"74ba2521",
       "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"},
  };
  for (const Kat& kat : kats) {
    Bytes msg = HexDecode(kat.msg_hex);
    EXPECT_EQ(HashHex(msg), kat.digest_hex) << "msg " << kat.msg_hex;
  }
}

TEST(Sha256Multi, KernelMatchesReferenceAllLengths) {
  // Exhaustive one-shot equivalence across every length 0..256: covers the
  // single-compression fast path (<= 55), the padding boundaries (55/56,
  // 63/64/65, 119/120) and the SHA-NI bulk path.
  Bytes data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (size_t len = 0; len <= 256; ++len) {
    BytesView view(data.data(), len);
    EXPECT_EQ(Hex(Sha256::Hash(view)), Hex(RefHash(view))) << "length " << len;
  }
}

TEST(Sha256Multi, LanesMatchScalarCompression) {
  // 1..8 lanes, distinct states and distinct blocks per lane, for both the
  // dispatching entry point and the forced-portable interleaved path.
  for (size_t n = 1; n <= sha256_multi::kMaxLanes; ++n) {
    uint32_t expected[sha256_multi::kMaxLanes][8];
    uint8_t blocks[sha256_multi::kMaxLanes][64];
    for (size_t l = 0; l < n; ++l) {
      // Distinct per-lane state: the IV advanced over one lane-specific
      // block, computed with the scalar reference.
      Sha256 seed;
      seed.ExportState(expected[l]);
      uint8_t seed_block[64];
      for (int i = 0; i < 64; ++i) {
        seed_block[i] = static_cast<uint8_t>(l * 131 + i);
        blocks[l][i] = static_cast<uint8_t>(l * 17 + i * 3 + n);
      }
      sha256_internal::Compress(expected[l], seed_block);
    }
    uint32_t got_dispatch[sha256_multi::kMaxLanes][8];
    uint32_t got_portable[sha256_multi::kMaxLanes][8];
    uint32_t* dispatch_ptrs[sha256_multi::kMaxLanes];
    uint32_t* portable_ptrs[sha256_multi::kMaxLanes];
    const uint8_t* block_ptrs[sha256_multi::kMaxLanes];
    for (size_t l = 0; l < n; ++l) {
      std::memcpy(got_dispatch[l], expected[l], sizeof(expected[l]));
      std::memcpy(got_portable[l], expected[l], sizeof(expected[l]));
      dispatch_ptrs[l] = got_dispatch[l];
      portable_ptrs[l] = got_portable[l];
      block_ptrs[l] = blocks[l];
      sha256_internal::Compress(expected[l], blocks[l]);  // ground truth
    }
    sha256_multi::CompressLanes(dispatch_ptrs, block_ptrs, n);
    sha256_multi::CompressLanesPortable(portable_ptrs, block_ptrs, n);
    for (size_t l = 0; l < n; ++l) {
      EXPECT_EQ(0, std::memcmp(got_dispatch[l], expected[l], 32))
          << "dispatch lane " << l << " of " << n;
      EXPECT_EQ(0, std::memcmp(got_portable[l], expected[l], 32))
          << "portable lane " << l << " of " << n;
    }
  }
}

TEST(Sha256Multi, FinalizeBlockMidstateMatchesStreaming) {
  Bytes prefix(64);
  for (size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<uint8_t>(i ^ 0xa5);
  }
  Bytes msg(sha256_multi::kOneShotMax);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  for (size_t len = 0; len <= sha256_multi::kOneShotMax; ++len) {
    Sha256 hasher;
    hasher.Update(prefix);
    uint32_t midstate[8];
    hasher.ExportState(midstate);
    Sha256Out got;
    sha256_multi::FinalizeBlockMidstate(midstate, msg.data(), len, got.data());

    RefSha256 ref;
    ref.Update(prefix);
    ref.Update(BytesView(msg.data(), len));
    EXPECT_EQ(Hex(got), Hex(ref.Final())) << "length " << len;
  }
}

TEST(Sha256Multi, DigestManyMatchesPerBufferHash) {
  // Mixed lengths straddling every block/padding boundary, batched in one
  // call (two lane groups) and as every prefix size 1..10.
  const size_t lengths[] = {0, 1, 55, 56, 63, 64, 65, 100, 128, 1000};
  const size_t count = sizeof(lengths) / sizeof(lengths[0]);
  std::vector<Bytes> buffers;
  std::vector<BytesView> views;
  for (size_t i = 0; i < count; ++i) {
    Bytes b(lengths[i]);
    for (size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<uint8_t>(i * 41 + j * 13 + 5);
    }
    buffers.push_back(std::move(b));
  }
  for (const Bytes& b : buffers) {
    views.emplace_back(b.data(), b.size());
  }
  for (size_t n = 1; n <= count; ++n) {
    std::vector<std::array<uint8_t, Sha256::kDigestSize>> outs(n);
    sha256_multi::DigestMany(
        views.data(),
        reinterpret_cast<uint8_t(*)[Sha256::kDigestSize]>(outs.data()), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Hex(outs[i]), Hex(RefHash(views[i])))
          << "buffer " << i << " of " << n;
    }
  }
}

TEST(HmacKey, KernelFastPathMatchesReference) {
  // Lengths on both sides of the single-compression finalize path.
  const Bytes raw_key(20, 0x0b);
  HmacKey key(raw_key);
  Bytes msg(sha256_multi::kOneShotMax + 10);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 3 + 9);
  }
  for (size_t len = 0; len <= msg.size(); ++len) {
    BytesView view(msg.data(), len);
    EXPECT_EQ(Hex(key.Hmac(view)), Hex(RefHmac(raw_key, view)))
        << "length " << len;
  }
}

TEST(KeyTable, PairMacsMatchesReferenceHmac) {
  // Every lane of every batch size (one partial batch through two full
  // ones) against the reference HMAC over the pair's session key.
  Bytes message = Digest::Of(ToBytes("authenticated digest")).ToBytes();
  const int count = static_cast<int>(sha256_multi::kMaxLanes) + 2;
  const int sender = count;
  KeyTable keys(0xfeedface, count + 2);
  std::vector<Mac> reference(count);
  for (int i = 0; i < count; ++i) {
    const Sha256Out full = RefHmac(keys.SessionKey(sender, i), message);
    std::memcpy(reference[i].data(), full.data(), kMacSize);
  }
  for (int n = 1; n <= count; ++n) {
    std::vector<Mac> got(n);
    keys.PairMacs(sender, n, message, got.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], reference[i]) << "n " << n << " i " << i;
    }
  }
}

TEST(Sha256Multi, LogicalWorkCountersMatchStreamingCounts) {
  // The kernel must not change what the generic counters *measure*: the
  // invocation/block/byte totals below are what block-at-a-time streaming
  // hashing counted for this workload (pinned from the scalar path at
  // commit fb72bea); the per-path counters record which unit did the work.
  KeyTable keys(0xabcdef, 8);
  hotpath::ResetCounters();
  Bytes digest_msg = Digest::Of(ToBytes("payload")).ToBytes();
  std::vector<Mac> macs(7);
  keys.PairMacs(7, 7, digest_msg, macs.data());
  keys.PairMac(1, 2, digest_msg);
  Sha256::Hash(Bytes(20, 1));
  Sha256::Hash(Bytes(55, 2));
  Sha256::Hash(Bytes(56, 3));
  Sha256::Hash(Bytes(300, 4));
  HmacKey key(Bytes(16, 5));
  key.Hmac(Bytes(40, 6));
  key.Hmac(Bytes(80, 7));
  // One partition-tree node: every block passes through the buffer.
  const Digest child = Digest::Of(digest_msg);
  Digest::Builder node;
  node.Add(uint64_t{1}).Add(uint64_t{3});
  for (int i = 0; i < 16; ++i) {
    node.Add(child);
  }
  node.Build();
  const hotpath::Counters& c = hotpath::counters();
  EXPECT_EQ(c.sha256_invocations, 43u);
  EXPECT_EQ(c.sha256_blocks, 91u);
  EXPECT_EQ(c.bytes_hashed, 4318u);
  EXPECT_GT(c.sha256_oneshot, 0u);
  EXPECT_GT(c.hmac_lane_batches, 0u);
  EXPECT_GT(c.sha256_ni_blocks + c.sha256_multi_blocks, 0u);
}

TEST(Authenticator, VerifiesOnlyAddressedEntry) {
  KeyTable keys(0x42, 6);
  Bytes message = ToBytes("multicast body");
  Authenticator auth = Authenticator::Compute(keys, /*sender=*/4, /*n=*/4,
                                              message);
  for (int receiver = 0; receiver < 4; ++receiver) {
    EXPECT_TRUE(auth.Verify(keys, 4, receiver, message)) << receiver;
  }
  EXPECT_FALSE(auth.Verify(keys, 4, 5, message));   // out of range
  EXPECT_FALSE(auth.Verify(keys, 3, 1, message));   // wrong sender
  EXPECT_FALSE(auth.Verify(keys, 4, 1, ToBytes("tampered body")));
}

TEST(Authenticator, WireRoundTripAndTamper) {
  KeyTable keys(0x42, 6);
  Bytes message = ToBytes("body");
  Authenticator auth = Authenticator::Compute(keys, 0, 4, message);
  Bytes wire = auth.Encode();
  EXPECT_EQ(wire.size(), 4 * kMacSize);

  Authenticator decoded = Authenticator::Decode(wire);
  EXPECT_TRUE(decoded.Verify(keys, 0, 2, message));

  decoded.CorruptEntry(2);
  EXPECT_FALSE(decoded.Verify(keys, 0, 2, message));
  EXPECT_TRUE(decoded.Verify(keys, 0, 1, message));  // others unaffected
}

TEST(Authenticator, DecodeRejectsBadSizes) {
  Authenticator bad = Authenticator::Decode(ToBytes("not a mac table"));
  KeyTable keys(0x42, 4);
  EXPECT_FALSE(bad.Verify(keys, 0, 0, ToBytes("m")));
}

}  // namespace
}  // namespace bftbase
