// HMAC-SHA256 (RFC 2104) and the PBFT authenticator scheme.
//
// PBFT replaces digital signatures with vectors of MACs: a message multicast
// to n replicas carries one MAC per receiver, each computed with the pairwise
// session key shared by sender and receiver. KeyTable derives those session
// keys deterministically from node ids (standing in for the Diffie-Hellman
// key exchange the real system performs) and supports the epoch-based key
// refresh that bounds the window of vulnerability.
//
// Hot path: HmacKey precomputes the SHA-256 midstates of the ipad/opad blocks
// so each MAC costs only the message blocks plus two finalizations instead of
// four full compressions, and KeyTable memoizes both the derived keys and
// their HmacKeys per epoch. Outputs are byte-identical to the plain
// HmacSha256 path.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/crypto/digest.h"
#include "src/util/bytes.h"

namespace bftbase {

// Full 32-byte HMAC-SHA256.
std::array<uint8_t, Sha256::kDigestSize> HmacSha256(BytesView key,
                                                    BytesView message);

// PBFT truncates MACs to 10 bytes (the probability of forging one is ~2^-80,
// sufficient because a forged MAC only yields a liveness hiccup, not a safety
// violation).
constexpr size_t kMacSize = 10;
using Mac = std::array<uint8_t, kMacSize>;

Mac ComputeMac(BytesView key, BytesView message);

// A reusable HMAC key: the SHA-256 states after absorbing the ipad and opad
// blocks are computed once at construction, then each Hmac() call clones them
// and only hashes the message. Equivalent to HmacSha256(key, message).
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  std::array<uint8_t, Sha256::kDigestSize> Hmac(BytesView message) const;
  Mac MacOf(BytesView message) const;

  // Raw ipad/opad compression states, for the sha256_multi
  // single-compression finalize path (each is the state after absorbing
  // exactly one 64-byte pad block).
  void ExportStates(uint32_t inner[8], uint32_t outer[8]) const;

 private:
  Sha256 inner_;  // midstate after the key xor ipad block
  Sha256 outer_;  // midstate after the key xor opad block
};

// Pairwise session keys between all protocol participants.
//
// Keys are derived as HMAC(master, min_id || max_id || epoch) so that both
// endpoints independently compute the same key. Incrementing the epoch models
// the periodic key refresh of the proactive-recovery protocol.
class KeyTable {
 public:
  KeyTable(uint64_t master_secret, int node_count);

  // Session key between a and b at the current epoch of `a`'s view.
  Bytes SessionKey(int a, int b) const;

  // Epoch-independent per-node signing key (the stand-in for a node's
  // private signature key; see channel.h). Not rotated by RefreshKeysFor so
  // that proofs containing old signed messages stay verifiable.
  Bytes SigningKey(int node) const;

  // MAC of `message` under the pairwise session key of a and b. Equivalent to
  // ComputeMac(SessionKey(a, b), message) but reuses the cached HmacKey.
  Mac PairMac(int a, int b, BytesView message) const;

  // Computes out[i] = PairMac(sender, i, message) for every i in [0, n) — a
  // full PBFT authenticator. When the message fits one compression block,
  // the MACs run as interleaved SHA-256 lanes (all inner passes share the
  // message block; outer passes finish over the per-lane inner digests);
  // otherwise it loops over PairMac. Results and logical-work counters are
  // those of n PairMac calls either way.
  void PairMacs(int sender, int n, BytesView message, Mac* out) const;

  // Signature stand-in: HMAC of `message` under `node`'s signing key.
  // Equivalent to HmacSha256(SigningKey(node), message).
  std::array<uint8_t, Sha256::kDigestSize> Sign(int node,
                                                BytesView message) const;

  // Refreshes all keys involving `node` (called when the node recovers).
  void RefreshKeysFor(int node);

  int node_count() const { return static_cast<int>(epochs_.size()); }

 private:
  Bytes DeriveSessionKey(int lo, int hi, uint64_t epoch) const;
  // The cached HmacKey for the pair at its current epoch (built on a miss).
  const HmacKey& PairKey(int a, int b) const;
  // The cached HmacKey over `node`'s signing key (built on a miss).
  const HmacKey& SigningHmacKey(int node) const;

  uint64_t master_secret_;
  std::vector<uint64_t> epochs_;
  // (lo, hi) -> (built-at epoch + 1, HmacKey); rebuilt on epoch mismatch, so
  // RefreshKeysFor invalidates naturally (the +1 keeps a default-constructed
  // slot from passing for a real epoch-0 entry). Signing keys never rotate.
  mutable std::map<std::pair<int, int>, std::pair<uint64_t, HmacKey>>
      session_cache_;
  mutable std::map<int, HmacKey> signing_cache_;
};

// An authenticator: one MAC per receiving replica. The sender computes all of
// them; receiver i checks entry i only.
class Authenticator {
 public:
  Authenticator() = default;

  // Computes MACs of `message` from `sender` to every replica in [0, n).
  static Authenticator Compute(const KeyTable& keys, int sender, int n,
                               BytesView message);

  // Verifies the MAC addressed to `receiver`.
  bool Verify(const KeyTable& keys, int sender, int receiver,
              BytesView message) const;

  // Wire encoding: concatenated fixed-size MACs.
  Bytes Encode() const;
  static Authenticator Decode(BytesView data);

  size_t size() const { return macs_.size(); }
  bool empty() const { return macs_.empty(); }

  // Test hook: corrupts the MAC addressed to `receiver` (Byzantine senders).
  void CorruptEntry(int receiver);

 private:
  std::vector<Mac> macs_;
};

}  // namespace bftbase

#endif  // SRC_CRYPTO_HMAC_H_
