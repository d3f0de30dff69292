// Leftover of the retired worker pool (DESIGN.md §13). Its one reader is
// perfbench, which prints WorkerPool::Global().threads() as its pool_threads
// metadata; this stub goes when the benchmark drops that field. Nothing in
// the library starts a thread.
#ifndef SRC_UTIL_WORKERPOOL_H_
#define SRC_UTIL_WORKERPOOL_H_

namespace bftbase {

class WorkerPool {
 public:
  static WorkerPool& Global() {
    static WorkerPool pool;
    return pool;
  }
  int threads() const { return 0; }
};

}  // namespace bftbase

#endif  // SRC_UTIL_WORKERPOOL_H_
