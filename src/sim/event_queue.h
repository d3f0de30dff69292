// Pooled move-only event storage and an O(1)-ish scheduler for the event
// kernel (see simulation.h).
//
// Three pieces, composed by Simulation:
//
//  - InlineFn: a move-only callable with small-buffer-optimized storage.
//    Timer callbacks in this codebase capture a `this` pointer and a couple
//    of ints; they fit inline, so scheduling a timer allocates nothing.
//    Larger captures fall back to the heap (still move-only, never copied).
//
//  - EventPool: slab storage for in-flight events, recycled through an
//    intrusive free list. The two dominant event kinds are inlined as tagged
//    fields instead of capturing lambdas: a message delivery is just
//    {to, from, tag, shared_ptr<const Payload>}, and a timer is an InlineFn.
//    Slot reuse is counted in hot.event_pool_reuses. Each slot carries a
//    generation counter; a TimerId packs (slot, generation), so cancelling
//    an already-fired or never-queued timer is an O(1) no-op instead of an
//    entry in an unbounded side map.
//
//  - EventHeap: a 4-ary min-heap ordered by (time, seq) whose entries are
//    24-byte PODs pointing into the pool. Push/pop/requeue sift plain
//    integers; the event payload (callback, shared buffer) never moves once
//    it lands in its pool slot. (time, seq) with unique seq is a strict
//    total order, so pop order is fully determined: FIFO among same-time
//    events.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/payload.h"
#include "src/util/hotpath.h"

namespace bftbase {

// --- InlineFn ---------------------------------------------------------------

class InlineFn {
 public:
  // Large enough for a `this` pointer plus a handful of words; the biggest
  // timer lambdas in the tree (client retries, chaos timeouts) fit.
  static constexpr size_t kInlineBytes = 56;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Destroy(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }
  void Reset() {
    Destroy();
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); }
    static void Relocate(void* dst, void* src) noexcept {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* buf) noexcept {
      std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
    }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* buf) { return *reinterpret_cast<Fn**>(buf); }
    static void Invoke(void* buf) { (*Get(buf))(); }
    static void Relocate(void* dst, void* src) noexcept {
      *reinterpret_cast<Fn**>(dst) = Get(src);
    }
    static void Destroy(void* buf) noexcept { delete Get(buf); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  void Destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

// --- EventPool --------------------------------------------------------------

// One in-flight event. The scheduling key (time, seq) lives in the heap
// entry, not here, so requeueing an event behind a busy node's CPU is a new
// 24-byte heap entry pointing at the same slot — the event itself is never
// copied or moved.
struct PooledEvent {
  enum class Kind : uint8_t { kFree = 0, kCallback, kDelivery };

  Kind kind = Kind::kFree;
  bool cancelled = false;
  // Bumped every time the slot is acquired; TimerIds pack (slot, generation)
  // so stale cancels are detected in O(1) with no bookkeeping growth.
  uint32_t generation = 0;
  int owner = -1;  // NodeId; CPU serialization applies unless kNoOwner
  // kDelivery: the message, inlined instead of a capturing lambda.
  int from = -1;
  int tag = -1;
  std::shared_ptr<const Payload> payload;
  // kCallback: the timer body.
  InlineFn fn;
  // Free-list link, valid only while kind == kFree.
  uint32_t next_free = 0;
};

class EventPool {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  // Returns a fresh slot with kind still kFree and cancelled cleared; the
  // caller fills it in. Bumps the slot's generation.
  uint32_t Acquire() {
    uint32_t idx;
    if (free_head_ != kNone) {
      idx = free_head_;
      free_head_ = slots_[idx].next_free;
      ++hotpath::counters().event_pool_reuses;
    } else {
      idx = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      ++hotpath::counters().event_pool_allocs;
    }
    PooledEvent& slot = slots_[idx];
    slot.cancelled = false;
    ++slot.generation;
    if (slot.generation == 0) {
      slot.generation = 1;  // keep packed TimerIds nonzero after wrap
    }
    ++live_;
    return idx;
  }

  void Release(uint32_t idx) {
    PooledEvent& slot = slots_[idx];
    slot.kind = PooledEvent::Kind::kFree;
    slot.payload.reset();
    slot.fn.Reset();
    slot.next_free = free_head_;
    free_head_ = idx;
    --live_;
  }

  PooledEvent& at(uint32_t idx) { return slots_[idx]; }
  const PooledEvent& at(uint32_t idx) const { return slots_[idx]; }

  // Total slots ever created (the pool never shrinks) and slots in flight.
  // `slots() - live()` is the free-list depth; boundedness of `slots()` under
  // cancel/fire churn is what the Cancel-leak regression test asserts.
  size_t slots() const { return slots_.size(); }
  size_t live() const { return live_; }

 private:
  std::vector<PooledEvent> slots_;
  uint32_t free_head_ = kNone;
  size_t live_ = 0;
};

// --- EventHeap --------------------------------------------------------------

struct HeapEntry {
  SimTime time;
  uint64_t seq;
  uint32_t pool_index;
};

class EventHeap {
 public:
  void Push(HeapEntry e) {
    entries_.push_back(e);
    SiftUp(entries_.size() - 1);
  }

  const HeapEntry& Top() const { return entries_.front(); }

  HeapEntry PopTop() {
    HeapEntry top = entries_.front();
    entries_.front() = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) {
      SiftDown(0);
    }
    return top;
  }

  bool Empty() const { return entries_.empty(); }
  size_t Size() const { return entries_.size(); }

 private:
  static constexpr size_t kArity = 4;

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  void SiftUp(size_t i) {
    HeapEntry e = entries_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!Before(e, entries_[parent])) {
        break;
      }
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void SiftDown(size_t i) {
    HeapEntry e = entries_[i];
    const size_t n = entries_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      size_t last_child = first_child + kArity;
      if (last_child > n) {
        last_child = n;
      }
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (Before(entries_[c], entries_[best])) {
          best = c;
        }
      }
      if (!Before(entries_[best], e)) {
        break;
      }
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  std::vector<HeapEntry> entries_;
};

}  // namespace bftbase

#endif  // SRC_SIM_EVENT_QUEUE_H_
