#include "tests/heap_counter.h"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace {
size_t g_live_bytes = 0;

void* Allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes += malloc_usable_size(p);
  }
  return p;
}

void Free(void* p) {
  if (p != nullptr) {
    g_live_bytes -= malloc_usable_size(p);
    std::free(p);
  }
}
}  // namespace

namespace bftbase::heap_counter {

size_t LiveBytes() { return g_live_bytes; }

}  // namespace bftbase::heap_counter

// GCC cannot see that the replaced operator new allocates with malloc, so it
// warns about the frees.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = Allocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }
#pragma GCC diagnostic pop
