//===- support/ThreadPool.h - Deterministic work-sharing pool --*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent thread pool exposing a parallelFor primitive, used by
/// the NN compute engine (row-parallel GEMM, batch-parallel conv/pool,
/// elementwise kernels) and the Engine's cross-session gather/scatter.
///
/// One dispatch rule decides whether a region goes to the pool: a caller
/// that knows what one item costs passes grainFor(WorkPerItem) as the
/// grain, so each full chunk carries at least MinChunkWork units of work
/// (one unit ~ one multiply-add or one float moved; the last chunk of a
/// range may carry less). A range of less than two full chunks of work runs
/// inline on the calling thread: a queue/wake/join cycle costs
/// microseconds, so below one chunk of work the handoff costs more than
/// the concurrency buys, and splitting such a range would hand a worker
/// only a partial chunk while the caller waits for that worker to wake.
///
/// Two properties make results reproducible at any thread count:
///
///  * parallelFor splits the iteration space into chunks whose boundaries
///    depend only on the range and the grain size — never on the number of
///    threads — and every chunk writes disjoint data, so the schedule cannot
///    change any result.
///  * parallelShardedSum gives each fixed shard of the iteration space its
///    own zero-initialized accumulation buffer, then combines the buffers
///    with a pairwise tree reduction in a fixed order, so floating-point
///    rounding is identical for 1, 2, or 64 threads.
///
/// The global pool's worker count comes from the AU_NN_THREADS environment
/// variable, an integer in [1, MaxThreads]; any other value prints one
/// stderr line and takes the default, the hardware concurrency. Nested
/// parallel regions execute inline on the calling thread: conv layers issue
/// sgemm from inside their batch-parallel region, and the SL prefetch task
/// (async) issues parallelFor from a worker, so re-entering the pool would
/// deadlock it or oversubscribe it.
///
//===----------------------------------------------------------------------===//

#ifndef AU_SUPPORT_THREADPOOL_H
#define AU_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace au {

/// Non-owning reference to a `void(size_t, size_t)` loop body. parallelFor
/// joins before returning, so the referenced callable always outlives its
/// use; taking this instead of std::function keeps the steady-state hot path
/// free of type-erasure heap allocations. Two pointers, trivially copyable —
/// it fits std::function's small-object buffer when a Job must store it.
class LoopBodyRef {
public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, LoopBodyRef>>>
  LoopBodyRef(F &&Fn) // NOLINT: implicit by design, mirrors function_ref.
      : Obj(const_cast<void *>(static_cast<const void *>(&Fn))),
        Call([](void *O, size_t B, size_t E) {
          (*static_cast<std::remove_reference_t<F> *>(O))(B, E);
        }) {}

  void operator()(size_t B, size_t E) const { Call(Obj, B, E); }

private:
  void *Obj;
  void (*Call)(void *, size_t, size_t);
};

/// Non-owning reference to a `void(size_t, size_t, float *)` shard body for
/// parallelShardedSum; same rationale as LoopBodyRef.
class ShardBodyRef {
public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ShardBodyRef>>>
  ShardBodyRef(F &&Fn) // NOLINT: implicit by design.
      : Obj(const_cast<void *>(static_cast<const void *>(&Fn))),
        Call([](void *O, size_t B, size_t E, float *Acc) {
          (*static_cast<std::remove_reference_t<F> *>(O))(B, E, Acc);
        }) {}

  void operator()(size_t B, size_t E, float *Acc) const {
    Call(Obj, B, E, Acc);
  }

private:
  void *Obj;
  void (*Call)(void *, size_t, size_t, float *);
};

/// A fixed-size pool of worker threads executing chunked parallel loops.
class ThreadPool {
public:
  /// Creates a pool of \p NumThreads worker threads. The thread that issues
  /// a parallelFor also runs chunks while it waits, so a dispatched region
  /// runs on up to NumThreads + 1 threads. With NumThreads <= 1 no workers
  /// are spawned and every parallelFor runs inline on the calling thread.
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return Threads; }

  /// Whether async() can actually overlap work with the caller (a pool of
  /// one thread runs submitted tasks inline).
  bool hasWorkers() const { return !Workers.empty(); }

  struct Job;

  /// Handle for a task submitted with async().
  class TaskHandle {
    friend class ThreadPool;

  public:
    /// Blocks until the task finishes (no-op for a task that ran inline).
    void wait();
    bool valid() const { return J != nullptr; }

  private:
    std::shared_ptr<Job> J;
    ThreadPool *Pool = nullptr;
  };

  /// Submits \p Fn to run once on a worker thread and returns immediately.
  /// With no workers the task runs inline before returning, so callers that
  /// need genuine overlap (producer/consumer pipelines) should check
  /// hasWorkers() and fall back to a serial schedule. Tasks may issue
  /// parallelFor; it runs inline on the worker (nested-region rule), so a
  /// producer can never deadlock the pool.
  TaskHandle async(std::function<void()> Fn);

  /// Work units per parallelFor chunk (see the file comment). Chosen from
  /// a perfbench sweep (CHANGES.md): large enough that tiny regions — a
  /// fleet's K x D gather, a deployment-size GEMM — run inline, small
  /// enough that conv training batches still spread over the pool.
  static constexpr size_t MinChunkWork = 131072;

  /// The grain for a range whose items each cost \p WorkPerItem units:
  /// max(1, ceil(MinChunkWork / WorkPerItem)). Non-increasing in
  /// \p WorkPerItem; a range of less than twice this many items runs
  /// inline.
  static constexpr size_t grainFor(size_t WorkPerItem) {
    size_t W = WorkPerItem > 0 ? WorkPerItem : 1;
    return W >= MinChunkWork ? 1 : (MinChunkWork + W - 1) / W;
  }

  /// Whether a range of \p Items iterations at grain \p Grain runs inline on
  /// the caller: it holds fewer than two full chunks.
  static constexpr bool runsInline(size_t Items, size_t Grain) {
    return Items / Grain < 2;
  }

  /// Runs \p Body over [Begin, End), partitioned into chunks of at most
  /// \p Grain iterations. Body receives half-open sub-ranges. Chunk
  /// boundaries are a pure function of the range and grain, so any
  /// computation whose chunks write disjoint data is deterministic at every
  /// thread count. Nested calls (from inside a Body), and ranges of fewer
  /// than two full chunks, run every chunk inline on the caller. Joins
  /// before returning, so passing a reference to a stack callable is safe.
  void parallelFor(size_t Begin, size_t End, size_t Grain, LoopBodyRef Body);

  /// The process-wide pool, created on first use with AU_NN_THREADS workers
  /// (default: hardware concurrency).
  static ThreadPool &global();

  /// Largest AU_NN_THREADS value accepted.
  static constexpr int MaxThreads = 256;

  /// Parses an AU_NN_THREADS value: a decimal integer in [1, MaxThreads],
  /// nothing else. Returns nullopt for anything else (the caller warns once
  /// and takes the default).
  static std::optional<int> parseThreadCount(std::string_view Value);

  /// Replaces the global pool with one of \p NumThreads workers. Must not
  /// race with parallel work; intended for tests and benchmarks.
  static void setGlobalThreads(int NumThreads);

  struct Job {
    std::function<void(size_t, size_t)> Body;
    size_t Begin = 0;
    size_t Grain = 1;
    size_t NumChunks = 0;
    size_t End = 0;
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
    std::mutex M;
    std::condition_variable Cv;
  };

private:
  void workerLoop();
  static void help(Job &J);

  int Threads;
  std::vector<std::thread> Workers;
  std::mutex QueueM;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<Job>> Queue;
  bool Stop = false;
};

/// Data-parallel accumulation over [0, Items) with reproducible rounding:
/// the range is split into at most 16 shards (a pure function of \p Items
/// and \p ShardGrain), \p Body accumulates each shard into its own
/// zero-initialized buffer of \p AccSize floats, and the buffers are folded
/// pairwise in a fixed tree order, then added into \p Out. Shards go to the
/// pool by the dispatch rule, each item costing \p WorkPerItem units; that
/// groups shards into chunks but never moves a shard boundary. The shard
/// buffers are thread_local to the issuing thread (reused across calls), so
/// this must not be called recursively from inside its own Body.
void parallelShardedSum(size_t Items, size_t ShardGrain, size_t WorkPerItem,
                        size_t AccSize, ShardBodyRef Body, float *Out);

} // namespace au

#endif // AU_SUPPORT_THREADPOOL_H
