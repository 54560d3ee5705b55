#include "itb/sim/alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The sanitizer runtimes intercept malloc and provide their own operator
// new/delete with allocation metadata (redzones, leak tracking); replacing
// them would fight the runtime. Detect every spelling GCC and Clang use.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ITB_ALLOC_HOOK_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ITB_ALLOC_HOOK_DISABLED 1
#endif
#endif

namespace itb::sim {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_mark{0};
std::atomic<bool> g_marked{false};

}  // namespace

bool alloc_counting_available() {
#ifdef ITB_ALLOC_HOOK_DISABLED
  return false;
#else
  return true;
#endif
}

std::uint64_t total_allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

void mark_steady_state() {
  g_mark.store(total_allocations(), std::memory_order_relaxed);
  g_marked.store(true, std::memory_order_relaxed);
}

bool steady_state_marked() {
  return g_marked.load(std::memory_order_relaxed);
}

std::uint64_t allocations_since_mark() {
  if (!steady_state_marked()) return 0;
  return total_allocations() - g_mark.load(std::memory_order_relaxed);
}

}  // namespace itb::sim

#ifndef ITB_ALLOC_HOOK_DISABLED

namespace {

void* counted_alloc(std::size_t size) noexcept {
  itb::sim::g_allocs.fetch_add(1, std::memory_order_relaxed);
  // malloc(0) may return nullptr; operator new must not.
  return std::malloc(size ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  itb::sim::g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

[[noreturn]] void throw_bad_alloc() { throw std::bad_alloc(); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw_bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw_bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw_bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw_bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
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
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // ITB_ALLOC_HOOK_DISABLED
