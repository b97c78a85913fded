//===- perfbench/src/Trace.cpp - Outside-in layer spans ------------------===//

#include "Trace.h"

#include <cstdio>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "bench.loop",           "analysis.select_features",
      "apps.features",        "apps.env_step",
      "apps.render",          "support.parallel_extract",
      "support.parallel_step", "core.extract",
      "core.serialize",       "core.write_back",
      "core.nn_learn",        "core.nn_deploy",
      "core.checkpoint",      "core.restore",
      "core.nn_record",       "engine.nn_rl_sessions",
      "engine.nn_batch_sessions", "engine.refresh_call",
      "engine.train_supervised", "engine.config_load"};
  return L < NumLayers ? Names[L] : "?";
}

const char *perfbench::phaseName(PhaseKind P) {
  static const char *const Names[NumPhases] = {"setup", "learn", "deploy"};
  return P < NumPhases ? Names[P] : "?";
}

Tracer::Tracer(size_t Capacity) : Buf(Capacity) { Stack.reserve(16); }

int32_t Tracer::alloc() {
  size_t I = Next.fetch_add(1, std::memory_order_relaxed);
  return I < Buf.size() ? static_cast<int32_t>(I) : -1;
}

int32_t Tracer::open(Layer L) {
  int32_t Parent = current();
  int32_t Idx = alloc();
  if (Idx >= 0) {
    Span &S = Buf[static_cast<size_t>(Idx)];
    S.Parent = Parent;
    S.Iter = CurIter;
    S.Name = L;
    S.Phase = CurPhase;
    S.Concurrent = 0;
    S.Start = nowNs();
  }
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::close(int32_t Idx) {
  int64_t End = nowNs();
  if (Idx >= 0)
    Buf[static_cast<size_t>(Idx)].End = End;
  Stack.pop_back();
}

void Tracer::beginIteration(int64_t Start) {
  CurIter = ++NextIter;
  int32_t Idx = alloc();
  if (Idx >= 0) {
    Span &S = Buf[static_cast<size_t>(Idx)];
    S.Parent = current();
    S.Iter = CurIter;
    S.Name = LIter;
    S.Phase = CurPhase;
    S.Concurrent = 0;
    S.Start = Start;
  }
  Stack.push_back(Idx);
}

void Tracer::endIteration(int64_t End) {
  int32_t Idx = Stack.back();
  if (Idx >= 0)
    Buf[static_cast<size_t>(Idx)].End = End;
  Stack.pop_back();
  CurIter = 0;
}

int32_t Tracer::openConcurrent(Layer L, int32_t Parent) {
  int32_t Idx = alloc();
  if (Idx >= 0) {
    Span &S = Buf[static_cast<size_t>(Idx)];
    S.Parent = Parent;
    S.Iter = CurIter;
    S.Name = L;
    S.Phase = CurPhase;
    S.Concurrent = 1;
    S.Start = nowNs();
  }
  return Idx;
}

void Tracer::closeConcurrent(int32_t Idx) {
  int64_t End = nowNs();
  if (Idx >= 0)
    Buf[static_cast<size_t>(Idx)].End = End;
}

std::vector<Span> Tracer::spans() const {
  size_t N = size() < Buf.size() ? size() : Buf.size();
  return std::vector<Span>(Buf.begin(), Buf.begin() + static_cast<long>(N));
}

bool Tracer::write(const std::string &Path, const std::string &Comment) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<Span> Ss = spans();
  int64_t T0 = Ss.empty() ? 0 : Ss.front().Start;
  std::fprintf(F, "# %s\n", Comment.c_str());
  std::fprintf(F, "iter\tphase\tname\tstart_ns\tend_ns\tparent\tconcurrent\n");
  for (const Span &S : Ss)
    std::fprintf(F, "%u\t%s\t%s\t%lld\t%lld\t%d\t%u\n", S.Iter,
                 phaseName(static_cast<PhaseKind>(S.Phase)),
                 layerName(static_cast<Layer>(S.Name)),
                 static_cast<long long>(S.Start - T0),
                 static_cast<long long>(S.End - T0), S.Parent,
                 static_cast<unsigned>(S.Concurrent));
  return std::fclose(F) == 0;
}

LayerTotals
TraceAnalysis::total(Layer L, std::initializer_list<PhaseKind> Phases) const {
  LayerTotals T;
  for (PhaseKind P : Phases) {
    T.Calls += ByPhase[P][L].Calls;
    T.SelfNs += ByPhase[P][L].SelfNs;
  }
  return T;
}

TraceAnalysis perfbench::analyzeSpans(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].End - Spans[I].Start);
  // Same-thread children are nested and disjoint, so subtracting their
  // durations removes exactly the part of the parent they cover.
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Concurrent || S.Parent < 0)
      continue;
    Self[static_cast<size_t>(S.Parent)] -= static_cast<double>(S.End - S.Start);
  }
  TraceAnalysis A;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    LayerTotals &T = A.ByPhase[S.Phase][S.Name];
    ++T.Calls;
    T.SelfNs += Self[I];
    if (!S.Concurrent)
      A.SelfSumNs[S.Phase] += Self[I];
  }
  return A;
}
