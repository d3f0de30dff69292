#include "src/util/bufpool.h"

#include <mutex>
#include <utility>
#include <vector>

#include "src/util/hotpath.h"

namespace bftbase {

namespace {
std::mutex& FreelistMutex() {
  static std::mutex mu;
  return mu;
}
std::vector<Bytes>& Freelist() {
  static std::vector<Bytes> list;
  return list;
}
}  // namespace

Bytes BufferPool::Acquire() {
  Bytes buf;
  {
    std::lock_guard<std::mutex> lock(FreelistMutex());
    auto& list = Freelist();
    if (list.empty()) {
      ++hotpath::counters().encode_allocs;
      return Bytes();
    }
    buf = std::move(list.back());
    list.pop_back();
  }
  buf.clear();  // keeps capacity
  ++hotpath::counters().encode_reuses;
  return buf;
}

void BufferPool::Release(Bytes buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledCapacity) {
    return;  // let the vector free itself
  }
  std::lock_guard<std::mutex> lock(FreelistMutex());
  auto& list = Freelist();
  if (list.size() >= kMaxPooled) {
    return;
  }
  list.push_back(std::move(buf));
}

size_t BufferPool::Size() {
  std::lock_guard<std::mutex> lock(FreelistMutex());
  return Freelist().size();
}

void BufferPool::Clear() {
  std::vector<Bytes> drained;
  {
    std::lock_guard<std::mutex> lock(FreelistMutex());
    drained.swap(Freelist());
  }
  // Buffers are freed outside the lock.
}

}  // namespace bftbase
