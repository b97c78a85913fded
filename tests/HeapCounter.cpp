//===- tests/HeapCounter.cpp - Global allocation counter -----------------===//

#include "HeapCounter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> GHeapAllocs{0};

void *countedAlloc(std::size_t Sz) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

long heapAllocs() { return GHeapAllocs.load(std::memory_order_relaxed); }

void *operator new(std::size_t Sz) { return countedAlloc(Sz); }
void *operator new[](std::size_t Sz) { return countedAlloc(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
