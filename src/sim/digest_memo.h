// Memo of envelope digests keyed by delivered-buffer identity.
//
// With the zero-copy fabric a multicast delivers one immutable
// shared_ptr<const Bytes> to n receivers; each receiver's Channel::Open used
// to recompute the same envelope digest over the same bytes. The memo lets
// the first receiver's digest be reused by the rest.
//
// Identity, not content: the key is the buffer's address, validated by a
// weak_ptr so an entry can never serve a *different* buffer that was later
// allocated at the same address (the classic stale-pointer cache bug). Only
// the digest is cached — never authentication results — so per-receiver MAC
// checks (and the CorruptOutgoingAuth fault hooks) behave exactly as before.
// Simulated CPU cost is charged by the caller regardless of hit or miss;
// the memo only skips real SHA-256 work.
#ifndef SRC_SIM_DIGEST_MEMO_H_
#define SRC_SIM_DIGEST_MEMO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/crypto/digest.h"
#include "src/util/bytes.h"

namespace bftbase {

class DeliveryDigestMemo {
 public:
  // Returns the digest cached for exactly this buffer, or nullopt. Counts a
  // hotpath memo hit/miss.
  std::optional<Digest> Lookup(const std::shared_ptr<const Bytes>& buf) const;

  // Caches `digest` for `buf`.
  void Store(const std::shared_ptr<const Bytes>& buf, const Digest& digest);

  void Clear();
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::weak_ptr<const Bytes> buf;
    Digest digest;
  };

  // Entries whose buffer died are dropped lazily (on colliding lookups and
  // by the periodic sweep in Store); the map is bounded so a long run cannot
  // accumulate tombstones.
  static constexpr size_t kSweepThreshold = 4096;

  mutable std::unordered_map<const void*, Entry> entries_;
};

// Authentication verdicts computed ahead of time by worker-pool prologue
// jobs, keyed like DeliveryDigestMemo by delivered-buffer identity.
//
// Unlike the digest memo this DOES cache authentication results — which is
// safe only because each verdict is bound to (a) the exact live buffer via a
// validated weak_ptr, (b) one receiver id (or kAnyReceiver for transferable
// signatures, where every receiver checks the same bytes), and (c) the
// pairwise key-epoch marker the MAC was checked under. The consumer
// (Channel::Open) compares the marker against the key table's current one
// and falls back to a synchronous check on any mismatch, so key refreshes
// during proactive recovery can never be satisfied by a stale verdict.
// Verdicts are published only at the simulation's deterministic join point,
// before the receiving handler runs.
struct DeliveryVerdict {
  static constexpr int kAnyReceiver = -1;
  int receiver = kAnyReceiver;
  uint64_t key_marker = 0;  // epoch marker the verdict was computed under
  bool valid = false;
};

class DeliveryVerifyMemo {
 public:
  // Returns the verdict stored for exactly this buffer and `receiver` (or a
  // kAnyReceiver entry), or nullopt. Counts a hotpath verify-memo hit/miss.
  std::optional<DeliveryVerdict> Lookup(const std::shared_ptr<const Bytes>& buf,
                                        int receiver) const;

  // Caches per-receiver verdicts for `buf`. No-op when `verdicts` is empty.
  void Store(const std::shared_ptr<const Bytes>& buf,
             std::vector<DeliveryVerdict> verdicts);

  void Clear();
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::weak_ptr<const Bytes> buf;
    std::vector<DeliveryVerdict> verdicts;
  };

  static constexpr size_t kSweepThreshold = 4096;

  mutable std::unordered_map<const void*, Entry> entries_;
};

}  // namespace bftbase

#endif  // SRC_SIM_DIGEST_MEMO_H_
