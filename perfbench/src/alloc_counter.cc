// Heap allocation counting for the traced binary only: replaces the global
// operator new so every allocation in the process — engine and benchmark —
// passes one flag test, and while counting is on, one relaxed add on a
// per-thread slot (slots are cache-line padded, so worker threads do not
// contend on one counter).
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace perfbench {

namespace {

constexpr int kSlots = 64;
struct alignas(64) Slot {
  std::atomic<int64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<bool> g_counting{false};
std::atomic<int> g_next_slot{0};
thread_local int t_uncounted = 0;  // nesting depth of UncountedScope

void CountOne() {
  if (!g_counting.load(std::memory_order_relaxed) || t_uncounted > 0) return;
  thread_local int slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  CountOne();
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountOne();
  std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  for (;;) {
    if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                             : rounded)) {
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

UncountedScope::UncountedScope() { t_uncounted++; }
UncountedScope::~UncountedScope() { t_uncounted--; }

int64_t AllocCount() {
  int64_t total = 0;
  for (const Slot& s : g_slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
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
