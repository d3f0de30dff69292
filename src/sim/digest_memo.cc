#include "src/sim/digest_memo.h"

#include "src/util/hotpath.h"

namespace bftbase {

std::optional<Digest> DeliveryDigestMemo::Lookup(
    const std::shared_ptr<const Bytes>& buf) const {
  if (buf == nullptr) {
    ++hotpath::counters().digest_memo_misses;
    return std::nullopt;
  }
  auto it = entries_.find(buf.get());
  if (it != entries_.end()) {
    // The entry only counts if it refers to this exact live buffer. A dead
    // weak_ptr means some earlier buffer at the same address: stale, evict.
    std::shared_ptr<const Bytes> cached = it->second.buf.lock();
    if (cached.get() == buf.get()) {
      ++hotpath::counters().digest_memo_hits;
      return it->second.digest;
    }
    entries_.erase(it);
  }
  ++hotpath::counters().digest_memo_misses;
  return std::nullopt;
}

void DeliveryDigestMemo::Store(const std::shared_ptr<const Bytes>& buf,
                               const Digest& digest) {
  if (buf == nullptr) {
    return;
  }
  if (entries_.size() >= kSweepThreshold) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = it->second.buf.expired() ? entries_.erase(it) : std::next(it);
    }
    if (entries_.size() >= kSweepThreshold) {
      entries_.clear();  // pathological: everything still live; start over
    }
  }
  entries_[buf.get()] = Entry{buf, digest};
}

void DeliveryDigestMemo::Clear() { entries_.clear(); }

std::optional<DeliveryVerdict> DeliveryVerifyMemo::Lookup(
    const std::shared_ptr<const Bytes>& buf, int receiver) const {
  if (buf == nullptr) {
    ++hotpath::counters().verify_memo_misses;
    return std::nullopt;
  }
  auto it = entries_.find(buf.get());
  if (it != entries_.end()) {
    std::shared_ptr<const Bytes> cached = it->second.buf.lock();
    if (cached.get() == buf.get()) {
      for (const DeliveryVerdict& v : it->second.verdicts) {
        if (v.receiver == receiver ||
            v.receiver == DeliveryVerdict::kAnyReceiver) {
          ++hotpath::counters().verify_memo_hits;
          return v;
        }
      }
      ++hotpath::counters().verify_memo_misses;
      return std::nullopt;
    }
    entries_.erase(it);
  }
  ++hotpath::counters().verify_memo_misses;
  return std::nullopt;
}

void DeliveryVerifyMemo::Store(const std::shared_ptr<const Bytes>& buf,
                               std::vector<DeliveryVerdict> verdicts) {
  if (buf == nullptr || verdicts.empty()) {
    return;
  }
  if (entries_.size() >= kSweepThreshold) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = it->second.buf.expired() ? entries_.erase(it) : std::next(it);
    }
    if (entries_.size() >= kSweepThreshold) {
      entries_.clear();  // pathological: everything still live; start over
    }
  }
  entries_[buf.get()] = Entry{buf, std::move(verdicts)};
}

void DeliveryVerifyMemo::Clear() { entries_.clear(); }

}  // namespace bftbase
