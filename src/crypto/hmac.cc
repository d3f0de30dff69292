#include "src/crypto/hmac.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/crypto/sha256_multi.h"
#include "src/util/hotpath.h"

namespace bftbase {

namespace {

constexpr size_t kBlockSize = 64;

// One authenticator lane batch: up to kMaxLanes MACs finalized from exported
// ipad/opad midstates.
struct MacLaneBatch {
  uint32_t inner[sha256_multi::kMaxLanes][8];
  uint32_t outer[sha256_multi::kMaxLanes][8];
  uint8_t message[sha256_multi::kOneShotMax];
  size_t message_len = 0;
  size_t lanes = 0;
  Mac* out = nullptr;
};

void RunMacLaneBatch(const MacLaneBatch& b) {
  constexpr size_t kLanes = sha256_multi::kMaxLanes;
  const uint32_t* inner_ptrs[kLanes];
  const uint32_t* outer_ptrs[kLanes];
  for (size_t l = 0; l < b.lanes; ++l) {
    inner_ptrs[l] = b.inner[l];
    outer_ptrs[l] = b.outer[l];
  }
  // Inner pass: every lane hashes the same message from its own ipad
  // midstate. Outer pass: each lane finishes over its inner digest.
  uint8_t inner_digests[kLanes][Sha256::kDigestSize];
  sha256_multi::FinalizeBlockMidstateLanes(inner_ptrs, b.message,
                                           b.message_len, inner_digests,
                                           b.lanes);
  uint8_t full[kLanes][Sha256::kDigestSize];
  sha256_multi::FinalizeBlockMidstateLanes32(outer_ptrs, inner_digests, full,
                                             b.lanes);
  auto& c = hotpath::counters();
  ++c.hmac_lane_batches;
  // Same logical work n PairMac calls would count: per MAC, two finalizes
  // of two blocks over message + inner-digest bytes.
  c.sha256_invocations += 2 * b.lanes;
  c.sha256_blocks += 2 * b.lanes;
  c.bytes_hashed += b.lanes * (b.message_len + Sha256::kDigestSize);
  for (size_t l = 0; l < b.lanes; ++l) {
    std::memcpy(b.out[l].data(), full[l], kMacSize);
  }
}

// Fills `key_block` with the padded (or pre-hashed) key, per RFC 2104.
void NormalizeKey(BytesView key, uint8_t key_block[kBlockSize]) {
  std::memset(key_block, 0, kBlockSize);
  if (key.size() > kBlockSize) {
    auto hashed = Sha256::Hash(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
}

}  // namespace

std::array<uint8_t, Sha256::kDigestSize> HmacSha256(BytesView key,
                                                    BytesView message) {
  uint8_t key_block[kBlockSize];
  NormalizeKey(key, key_block);

  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(BytesView(ipad, kBlockSize));
  inner.Update(message);
  uint8_t inner_digest[Sha256::kDigestSize];
  inner.Final(inner_digest);

  Sha256 outer;
  outer.Update(BytesView(opad, kBlockSize));
  outer.Update(BytesView(inner_digest, Sha256::kDigestSize));
  std::array<uint8_t, Sha256::kDigestSize> out;
  outer.Final(out.data());
  return out;
}

Mac ComputeMac(BytesView key, BytesView message) {
  auto full = HmacSha256(key, message);
  Mac mac;
  std::memcpy(mac.data(), full.data(), kMacSize);
  return mac;
}

HmacKey::HmacKey(BytesView key) {
  uint8_t key_block[kBlockSize];
  NormalizeKey(key, key_block);
  uint8_t pad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x36;
  }
  inner_.Update(BytesView(pad, kBlockSize));
  for (size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x5c;
  }
  outer_.Update(BytesView(pad, kBlockSize));
}

std::array<uint8_t, Sha256::kDigestSize> HmacKey::Hmac(
    BytesView message) const {
  if (message.size() <= sha256_multi::kOneShotMax) {
    // Both passes are midstate + one padded compression. Counters match the
    // streaming path: two finalizes, two blocks, message + inner-digest
    // bytes (the pad blocks were counted when the midstates were built).
    auto& c = hotpath::counters();
    c.bytes_hashed += message.size() + Sha256::kDigestSize;
    c.sha256_invocations += 2;
    c.sha256_blocks += 2;
    uint32_t inner_state[8];
    uint32_t outer_state[8];
    ExportStates(inner_state, outer_state);
    uint8_t inner_digest[Sha256::kDigestSize];
    sha256_multi::FinalizeBlockMidstate(inner_state, message.data(),
                                        message.size(), inner_digest);
    std::array<uint8_t, Sha256::kDigestSize> out;
    sha256_multi::FinalizeBlockMidstate(outer_state, inner_digest,
                                        Sha256::kDigestSize, out.data());
    return out;
  }
  Sha256 inner = inner_;  // resume from the ipad midstate
  inner.Update(message);
  uint8_t inner_digest[Sha256::kDigestSize];
  inner.Final(inner_digest);

  Sha256 outer = outer_;  // resume from the opad midstate
  outer.Update(BytesView(inner_digest, Sha256::kDigestSize));
  std::array<uint8_t, Sha256::kDigestSize> out;
  outer.Final(out.data());
  return out;
}

void HmacKey::ExportStates(uint32_t inner[8], uint32_t outer[8]) const {
  inner_.ExportState(inner);
  outer_.ExportState(outer);
}

Mac HmacKey::MacOf(BytesView message) const {
  auto full = Hmac(message);
  Mac mac;
  std::memcpy(mac.data(), full.data(), kMacSize);
  return mac;
}

KeyTable::KeyTable(uint64_t master_secret, int node_count)
    : master_secret_(master_secret),
      epochs_(node_count, 0),
      session_cache_(static_cast<size_t>(node_count) * node_count),
      signing_cache_(node_count) {}

Bytes KeyTable::DeriveSessionKey(int lo, int hi, uint64_t epoch) const {
  uint8_t material[24];
  uint64_t fields[3] = {static_cast<uint64_t>(lo), static_cast<uint64_t>(hi),
                        epoch};
  std::memcpy(material, fields, sizeof(fields));
  uint8_t master[8];
  std::memcpy(master, &master_secret_, sizeof(master));
  auto derived = HmacSha256(BytesView(master, sizeof(master)),
                            BytesView(material, sizeof(material)));
  return Bytes(derived.begin(), derived.end());
}

Bytes KeyTable::SessionKey(int a, int b) const {
  int lo = std::min(a, b);
  int hi = std::max(a, b);
  // The pair's key is bound to the max of the two endpoints' epochs so that a
  // single refresh by either endpoint rotates the key.
  uint64_t epoch = std::max(epochs_[lo], epochs_[hi]);
  return DeriveSessionKey(lo, hi, epoch);
}

Bytes KeyTable::SigningKey(int node) const {
  uint8_t material[9];
  uint64_t id = static_cast<uint64_t>(node);
  std::memcpy(material, &id, sizeof(id));
  material[8] = 0x5a;  // domain separation from session keys
  uint8_t master[8];
  std::memcpy(master, &master_secret_, sizeof(master));
  auto derived = HmacSha256(BytesView(master, sizeof(master)),
                            BytesView(material, sizeof(material)));
  return Bytes(derived.begin(), derived.end());
}

Mac KeyTable::PairMac(int a, int b, BytesView message) const {
  return PairKey(a, b).MacOf(message);
}

const HmacKey& KeyTable::PairKey(int a, int b) const {
  int lo = std::min(a, b);
  int hi = std::max(a, b);
  uint64_t epoch = std::max(epochs_[lo], epochs_[hi]);
  std::unique_ptr<SessionEntry>& entry =
      session_cache_[static_cast<size_t>(lo) * epochs_.size() + hi];
  if (entry == nullptr || entry->epoch != epoch) {
    entry = std::make_unique<SessionEntry>(
        SessionEntry{epoch, HmacKey(DeriveSessionKey(lo, hi, epoch))});
  }
  return entry->key;
}

void KeyTable::PairMacs(int sender, int n, BytesView message, Mac* out) const {
  if (message.size() > sha256_multi::kOneShotMax) {
    for (int i = 0; i < n; ++i) {
      out[i] = PairMac(sender, i, message);
    }
    return;
  }
  constexpr size_t kLanes = sha256_multi::kMaxLanes;
  MacLaneBatch b;
  for (int base = 0; base < n; base += static_cast<int>(kLanes)) {
    b.lanes = std::min(kLanes, static_cast<size_t>(n - base));
    for (size_t l = 0; l < b.lanes; ++l) {
      PairKey(sender, base + static_cast<int>(l))
          .ExportStates(b.inner[l], b.outer[l]);
    }
    std::memcpy(b.message, message.data(), message.size());
    b.message_len = message.size();
    b.out = out + base;
    RunMacLaneBatch(b);
  }
}

const HmacKey& KeyTable::SigningHmacKey(int node) const {
  std::unique_ptr<HmacKey>& key = signing_cache_[node];
  if (key == nullptr) {
    key = std::make_unique<HmacKey>(SigningKey(node));
  }
  return *key;
}

std::array<uint8_t, Sha256::kDigestSize> KeyTable::Sign(
    int node, BytesView message) const {
  return SigningHmacKey(node).Hmac(message);
}

void KeyTable::RefreshKeysFor(int node) { ++epochs_[node]; }

Authenticator Authenticator::Compute(const KeyTable& keys, int sender, int n,
                                     BytesView message) {
  Authenticator auth;
  auth.macs_.resize(n);
  keys.PairMacs(sender, n, message, auth.macs_.data());
  return auth;
}

bool Authenticator::Verify(const KeyTable& keys, int sender, int receiver,
                           BytesView message) const {
  if (receiver < 0 || static_cast<size_t>(receiver) >= macs_.size()) {
    return false;
  }
  Mac expected = keys.PairMac(sender, receiver, message);
  return ConstantTimeEqual(BytesView(expected.data(), kMacSize),
                           BytesView(macs_[receiver].data(), kMacSize));
}

Bytes Authenticator::Encode() const {
  Bytes out;
  out.reserve(macs_.size() * kMacSize);
  for (const Mac& mac : macs_) {
    out.insert(out.end(), mac.begin(), mac.end());
  }
  return out;
}

Authenticator Authenticator::Decode(BytesView data) {
  Authenticator auth;
  if (data.size() % kMacSize != 0) {
    return auth;  // empty; verification will fail
  }
  size_t count = data.size() / kMacSize;
  auth.macs_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(auth.macs_[i].data(), data.data() + i * kMacSize, kMacSize);
  }
  return auth;
}

void Authenticator::CorruptEntry(int receiver) {
  if (receiver >= 0 && static_cast<size_t>(receiver) < macs_.size()) {
    macs_[receiver][0] ^= 0xff;
  }
}

}  // namespace bftbase
