// Live heap bytes of the running binary, for memory-footprint tests and
// benches. heap_counter.cc replaces the global operator new and delete; link
// it into a binary (at most one source per binary may replace them) and
// LiveBytes() reads what operator new has handed out and not yet had back,
// in malloc's usable size of each block. Allocations made directly with
// malloc, or by over-aligned new, are not counted.
#ifndef TESTS_HEAP_COUNTER_H_
#define TESTS_HEAP_COUNTER_H_

#include <cstddef>

namespace bftbase::heap_counter {

size_t LiveBytes();

}  // namespace bftbase::heap_counter

#endif  // TESTS_HEAP_COUNTER_H_
