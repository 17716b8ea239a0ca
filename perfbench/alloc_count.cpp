// Counting replacement of the global allocation functions: every operator
// new in the process bumps a counter owned by the calling thread, so a rank
// reads exactly its own allocations around a call into the runtime.
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace perfbench {
namespace {
thread_local long long t_allocs = 0;
}  // namespace

long long thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  ++perfbench::t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++perfbench::t_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
