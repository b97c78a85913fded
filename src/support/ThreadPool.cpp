//===- support/ThreadPool.cpp - Deterministic work-sharing pool ----------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace au;

namespace {

/// Set while a thread is executing chunks of some job; nested parallelFor
/// calls from such a thread run inline instead of re-entering the pool.
thread_local bool InParallelRegion = false;

int defaultThreadCount() {
  const char *Env = std::getenv("AU_NN_THREADS");
  if (Env && *Env) {
    if (std::optional<int> N = ThreadPool::parseThreadCount(Env))
      return *N;
    std::fprintf(stderr,
                 "AU_NN_THREADS=%s is not an integer in [1, %d]; "
                 "using the default\n",
                 Env, ThreadPool::MaxThreads);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? static_cast<int>(HW) : 1;
}

std::mutex GlobalM;
std::unique_ptr<ThreadPool> Global;

} // namespace

std::optional<int> ThreadPool::parseThreadCount(std::string_view Value) {
  int N = 0;
  const char *End = Value.data() + Value.size();
  auto [Ptr, Ec] = std::from_chars(Value.data(), End, N);
  if (Ec != std::errc() || Ptr != End || N < 1 || N > MaxThreads)
    return std::nullopt;
  return N;
}

ThreadPool::ThreadPool(int NumThreads) : Threads(std::max(1, NumThreads)) {
  // The calling thread participates in every loop it issues, but workers are
  // what bound concurrency while the caller waits, so spawn Threads workers
  // when parallel execution is requested at all.
  if (Threads > 1) {
    Workers.reserve(Threads);
    for (int I = 0; I < Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> G(QueueM);
    Stop = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::help(Job &J) {
  bool Saved = InParallelRegion;
  InParallelRegion = true;
  for (;;) {
    size_t C = J.Next.fetch_add(1, std::memory_order_relaxed);
    if (C >= J.NumChunks)
      break;
    size_t B = J.Begin + C * J.Grain;
    size_t E = std::min(J.End, B + J.Grain);
    J.Body(B, E);
    if (J.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == J.NumChunks) {
      std::lock_guard<std::mutex> G(J.M);
      J.Cv.notify_all();
    }
  }
  InParallelRegion = Saved;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> J;
    {
      std::unique_lock<std::mutex> Lk(QueueM);
      QueueCv.wait(Lk, [this] { return Stop || !Queue.empty(); });
      if (Stop)
        return;
      J = Queue.front();
      if (J->Next.load(std::memory_order_relaxed) >= J->NumChunks) {
        // Exhausted job another thread is finishing; retire it.
        Queue.pop_front();
        continue;
      }
    }
    help(*J);
  }
}

ThreadPool::TaskHandle ThreadPool::async(std::function<void()> Fn) {
  TaskHandle H;
  if (Workers.empty()) {
    Fn(); // No workers: run inline; wait() becomes a no-op.
    return H;
  }
  auto J = std::make_shared<Job>();
  J->Body = [F = std::move(Fn)](size_t, size_t) { F(); };
  J->Begin = 0;
  J->End = 1;
  J->Grain = 1;
  J->NumChunks = 1;
  {
    std::lock_guard<std::mutex> G(QueueM);
    Queue.push_back(J);
  }
  QueueCv.notify_one();
  H.J = std::move(J);
  H.Pool = this;
  return H;
}

void ThreadPool::TaskHandle::wait() {
  if (!J)
    return;
  {
    std::unique_lock<std::mutex> Lk(J->M);
    J->Cv.wait(Lk, [&] {
      return J->Done.load(std::memory_order_acquire) == J->NumChunks;
    });
  }
  {
    // Retire the job so workers never observe a stale head entry.
    std::lock_guard<std::mutex> G(Pool->QueueM);
    auto It = std::find(Pool->Queue.begin(), Pool->Queue.end(), J);
    if (It != Pool->Queue.end())
      Pool->Queue.erase(It);
  }
  J.reset();
}

void ThreadPool::parallelFor(size_t Begin, size_t End, size_t Grain,
                             LoopBodyRef Body) {
  if (Begin >= End)
    return;
  assert(Grain > 0 && "parallelFor grain must be positive");
  size_t N = End - Begin;
  // Fewer than two full chunks of work runs inline (see the header).
  if (Workers.empty() || InParallelRegion || runsInline(N, Grain)) {
    Body(Begin, End);
    return;
  }
  auto J = std::make_shared<Job>();
  // LoopBodyRef is two pointers and trivially copyable, so this capture fits
  // std::function's small-object buffer — no heap allocation here.
  J->Body = [Body](size_t B, size_t E) { Body(B, E); };
  J->Begin = Begin;
  J->End = End;
  J->Grain = Grain;
  J->NumChunks = (N + Grain - 1) / Grain;
  {
    std::lock_guard<std::mutex> G(QueueM);
    Queue.push_back(J);
  }
  QueueCv.notify_all();
  help(*J);
  {
    std::unique_lock<std::mutex> Lk(J->M);
    J->Cv.wait(Lk, [&] {
      return J->Done.load(std::memory_order_acquire) == J->NumChunks;
    });
  }
  {
    // Retire the job so workers never observe a stale head entry.
    std::lock_guard<std::mutex> G(QueueM);
    auto It = std::find(Queue.begin(), Queue.end(), J);
    if (It != Queue.end())
      Queue.erase(It);
  }
}

ThreadPool &ThreadPool::global() {
  std::lock_guard<std::mutex> G(GlobalM);
  if (!Global)
    Global = std::make_unique<ThreadPool>(defaultThreadCount());
  return *Global;
}

void ThreadPool::setGlobalThreads(int NumThreads) {
  std::lock_guard<std::mutex> G(GlobalM);
  Global = std::make_unique<ThreadPool>(NumThreads);
}

void au::parallelShardedSum(size_t Items, size_t ShardGrain,
                            size_t WorkPerItem, size_t AccSize,
                            ShardBodyRef Body, float *Out) {
  if (Items == 0 || AccSize == 0)
    return;
  assert(ShardGrain > 0 && "shard grain must be positive");
  // Shard structure is a pure function of the workload, never of the thread
  // count, so the reduction tree (and its rounding) is reproducible.
  constexpr size_t MaxShards = 16;
  size_t NumShards = std::min(MaxShards, (Items + ShardGrain - 1) / ShardGrain);
  size_t Span = (Items + NumShards - 1) / NumShards;
  // Reused across calls on this thread; assign() zeroes within the retained
  // capacity, so steady-state training does not allocate here.
  static thread_local std::vector<float> ShardBufs;
  std::vector<float> &Bufs = ShardBufs;
  Bufs.assign(NumShards * AccSize, 0.0f);
  ThreadPool::global().parallelFor(
      0, NumShards, ThreadPool::grainFor(Span * WorkPerItem),
      [&](size_t B, size_t E) {
    for (size_t S = B; S != E; ++S) {
      size_t Lo = S * Span;
      size_t Hi = std::min(Items, Lo + Span);
      if (Lo < Hi)
        Body(Lo, Hi, &Bufs[S * AccSize]);
    }
  });
  // Pairwise tree reduction in fixed order: shard i absorbs shard i + Step.
  for (size_t Step = 1; Step < NumShards; Step *= 2)
    for (size_t I = 0; I + Step < NumShards; I += 2 * Step) {
      float *Dst = &Bufs[I * AccSize];
      const float *Src = &Bufs[(I + Step) * AccSize];
      for (size_t K = 0; K != AccSize; ++K)
        Dst[K] += Src[K];
    }
  for (size_t K = 0; K != AccSize; ++K)
    Out[K] += Bufs[K];
}
