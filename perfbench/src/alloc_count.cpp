#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

namespace perfbench {
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

bool alloc_selftest() {
  // Pointers escape through the vector and the asm barrier, so the
  // compiler cannot pair up and elide the new/delete calls.
  constexpr int kSingles = 1000;
  std::vector<int*> held(kSingles);  // 1
  const std::uint64_t before = allocations();
  for (int i = 0; i < kSingles; ++i) held[i] = new int(i);  // kSingles
  std::string text(200, 'x');                                // 1
  std::vector<double> values;
  values.reserve(64);                                        // 1
  const std::function<std::size_t()> fn =
      [held, text] { return held.size() + text.size(); };    // 1 + 2 copies
  asm volatile("" : : "g"(held.data()), "g"(&fn) : "memory");
  const std::uint64_t seen = allocations() - before;
  for (int* p : held) delete p;
  return seen == kSingles + 5;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned(size, align)) return p;
  throw std::bad_alloc();
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
