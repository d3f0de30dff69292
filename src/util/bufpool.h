// Buffer pool for the encode/send hot path.
//
// Every protocol message is built in an Encoder, sealed, handed to the
// network, delivered n times against one shared immutable buffer, and then
// destroyed — a perfect recycling loop. The pool keeps the storage of retired
// message buffers so the next Encoder starts with warm capacity instead of a
// fresh allocation. MakePooledShared() is the other half of the loop: it wraps
// a finished buffer in a shared_ptr whose deleter returns the storage here
// when the last delivery releases it.
//
// The pool is a process-global freelist, bounded so adversarial benches with
// huge payloads cannot make it hoard memory. It is mutex-protected: the
// simulation uses it from one thread, but being process-global it must
// survive any caller that acquires or releases from another thread — a
// lock, never a corrupted freelist.
#ifndef SRC_UTIL_BUFPOOL_H_
#define SRC_UTIL_BUFPOOL_H_

#include <memory>

#include "src/util/bytes.h"

namespace bftbase {

class BufferPool {
 public:
  // At most this many retired buffers are kept...
  static constexpr size_t kMaxPooled = 64;
  // ...and none whose capacity exceeds this (1 MiB).
  static constexpr size_t kMaxPooledCapacity = size_t{1} << 20;

  // Returns an empty buffer, reusing pooled capacity when available.
  // Counts a hotpath encode_alloc on miss / encode_reuse on hit.
  static Bytes Acquire();

  // Returns `buf`'s storage to the pool (drops it if the pool is full or the
  // buffer is too small/large to be worth keeping).
  static void Release(Bytes buf);

  // Number of buffers currently pooled (test/telemetry hook).
  static size_t Size();

  // Drops every pooled buffer. Determinism witnesses call this so each run
  // starts from a cold pool and alloc/reuse counters replay exactly.
  static void Clear();
};

// Wraps a finished buffer in an immutable shared payload whose deleter
// recycles the storage through BufferPool.
std::shared_ptr<const Bytes> MakePooledShared(Bytes buf);

// Same, but copies from a view into pooled storage (used by Multicast when it
// must materialize a shared buffer from a caller-owned payload).
std::shared_ptr<const Bytes> MakePooledSharedCopy(BytesView data);

}  // namespace bftbase

#endif  // SRC_UTIL_BUFPOOL_H_
