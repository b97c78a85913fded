//===- perfbench/src/Trace.h - Outside-in layer spans --------------------===//
//
// The traced run records one span around every call the benchmark makes
// into a layer of the runtime, plus one span per loop iteration. Spans stay
// in a preallocated in-memory buffer and are written out when the run ends.
// A layer's self time is its span's duration minus the time its child spans
// on the same thread cover; the self times of one iteration's span tree
// then add up to the iteration's duration, which is what lets the per-layer
// numbers be checked against the phase wall time.
//
// Spans recorded inside a parallel region (on pool threads, or on the
// driving thread while it runs a chunk) are marked concurrent: they report
// their own per-call time, but they neither subtract from their parent nor
// count toward the wall-time sum, since they overlap the parent's interval.
//
// Recording costs one branch when tracing is off (a null Tracer pointer).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Stats.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The runtime calls the benchmark times, one per span name. The metric a
/// layer's numbers land in is its name plus a unit suffix (see main.cpp).
enum Layer : uint16_t {
  LIter,            ///< bench.loop: one annotated iteration, round or tick.
  LSelectFeatures,  ///< analysis.select_features: selectRlFeatures.
  LFeatures,        ///< apps.features: GameEnv::features.
  LEnvStep,         ///< apps.env_step: GameEnv::step.
  LRender,          ///< apps.render: GameEnv::renderFrame.
  LParallelExtract, ///< support.parallel_extract: the lane render+extract.
  LParallelStep,    ///< support.parallel_step: the lane write_back+step.
  LExtract,         ///< core.extract: Session::extract.
  LSerialize,       ///< core.serialize: Session::serialize.
  LWriteBack,       ///< core.write_back: Session::writeBack.
  LNnLearn,         ///< core.nn_learn: Session::nn in TR.
  LNnDeploy,        ///< core.nn_deploy: Session::nn in TS.
  LCheckpoint,      ///< core.checkpoint: Session::checkpoint.
  LRestore,         ///< core.restore: Session::restore.
  LNnRecord,        ///< core.nn_record: SL nn in TR plus label write_back.
  LNnRlSessions,    ///< engine.nn_rl_sessions: Engine::nnRlSessions.
  LNnBatchSessions, ///< engine.nn_batch_sessions: Engine::nnBatchSessions.
  LRefreshCall,     ///< engine.refresh_call: first batched call after a
                    ///< publish.
  LTrainSupervised, ///< engine.train_supervised: trainSupervised + publish.
  LConfigLoad,      ///< engine.config_load: au_config in TS (model load).
  NumLayers
};

const char *layerName(Layer L);

/// Which part of a run a span belongs to.
enum PhaseKind : uint8_t { PSetup, PLearn, PDeploy, NumPhases };

const char *phaseName(PhaseKind P);

struct Span {
  int64_t Start = 0;
  int64_t End = 0;
  int32_t Parent = -1;
  uint32_t Iter = 0; ///< 0 outside iterations (set-up).
  uint16_t Name = 0;
  uint8_t Phase = 0;
  uint8_t Concurrent = 0;
};

/// Span recorder. open()/close() and beginIteration()/endIteration() are
/// for the driving thread; openConcurrent()/closeConcurrent() may be called
/// from any thread inside a parallel region the driving thread waits on.
class Tracer {
public:
  explicit Tracer(size_t Capacity);

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  void setPhase(PhaseKind P) { CurPhase = P; }

  int32_t open(Layer L);
  void close(int32_t Idx);

  /// Opens the span of the next loop iteration; spans opened until
  /// endIteration() carry its id. \p Start lets the caller share the clock
  /// read it already took for the untraced latency sample.
  void beginIteration(int64_t Start);
  void endIteration(int64_t End);

  int32_t current() const { return Stack.empty() ? -1 : Stack.back(); }
  int32_t openConcurrent(Layer L, int32_t Parent);
  void closeConcurrent(int32_t Idx);

  /// Spans recorded so far (including any dropped past capacity).
  size_t size() const { return Next.load(std::memory_order_relaxed); }
  size_t capacity() const { return Buf.size(); }
  bool overflowed() const { return size() > Buf.size(); }

  /// The recorded spans, in open order. Only call once recording stopped.
  std::vector<Span> spans() const;

  /// Writes the spans as tab-separated text (one header line, then one
  /// line per span, times relative to the first span). \p Comment goes on
  /// a leading '#' line. Returns false on I/O failure.
  bool write(const std::string &Path, const std::string &Comment) const;

private:
  int32_t alloc();

  std::vector<Span> Buf;
  std::atomic<size_t> Next{0};
  std::vector<int32_t> Stack;
  uint32_t CurIter = 0;
  uint32_t NextIter = 0;
  PhaseKind CurPhase = PSetup;
};

/// RAII span on the driving thread; a no-op when \p T is null.
class SpanScope {
public:
  SpanScope(Tracer *T, Layer L) : T(T), Idx(T ? T->open(L) : -1) {}
  ~SpanScope() {
    if (T)
      T->close(Idx);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  int32_t Idx;
};

/// RAII span inside a parallel region; a no-op when \p T is null.
class ConcurrentScope {
public:
  ConcurrentScope(Tracer *T, Layer L, int32_t Parent)
      : T(T), Idx(T ? T->openConcurrent(L, Parent) : -1) {}
  ~ConcurrentScope() {
    if (T)
      T->closeConcurrent(Idx);
  }
  ConcurrentScope(const ConcurrentScope &) = delete;
  ConcurrentScope &operator=(const ConcurrentScope &) = delete;

private:
  Tracer *T;
  int32_t Idx;
};

/// Per-layer totals of one phase.
struct LayerTotals {
  uint64_t Calls = 0;
  double SelfNs = 0.0;
};

/// Self times derived from a span list.
struct TraceAnalysis {
  std::array<std::array<LayerTotals, NumLayers>, NumPhases> ByPhase{};
  /// Sum of the self times of every non-concurrent span, per phase.
  std::array<double, NumPhases> SelfSumNs{};

  /// Calls and self time of \p L summed over \p Phases.
  LayerTotals total(Layer L, std::initializer_list<PhaseKind> Phases) const;
};

TraceAnalysis analyzeSpans(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
