// Leftover of the retired encode-buffer pool (DESIGN.md §8). Its one reader
// is perfbench, which calls BufferPool::Clear() before each repetition; this
// stub goes when the benchmark drops that call. Nothing in the library pools
// buffers.
#ifndef SRC_UTIL_BUFPOOL_H_
#define SRC_UTIL_BUFPOOL_H_

namespace bftbase {

class BufferPool {
 public:
  static void Clear() {}
};

}  // namespace bftbase

#endif  // SRC_UTIL_BUFPOOL_H_
