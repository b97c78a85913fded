//===- perfbench/tests/StatsTest.cpp - Benchmark statistics tests --------===//
//
// The percentile rule, per-sample aggregation, span self times with
// nested and concurrent spans, and failure accounting.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace perfbench;

TEST(PercentileRule, ReportableNeedsTenSamplesBeyond) {
  EXPECT_FALSE(ninesReportable(99, 1));
  EXPECT_TRUE(ninesReportable(100, 1)); // p90: 10 beyond.
  EXPECT_FALSE(ninesReportable(999, 2));
  EXPECT_TRUE(ninesReportable(1000, 2)); // p99: 10 beyond.
  EXPECT_FALSE(ninesReportable(9999, 3));
  EXPECT_TRUE(ninesReportable(10000, 3));
}

TEST(PercentileRule, RankLeavesExactlyTheSamplesBeyond) {
  EXPECT_EQ(ninesRank(1000, 2), 990u);
  EXPECT_EQ(ninesRank(1234, 2), 1222u);
  EXPECT_EQ(ninesRank(100, 1), 90u);
}

TEST(PercentileRule, HighestReportablePercentile) {
  EXPECT_EQ(highestReportableNines(50), 0);
  EXPECT_EQ(highestReportableNines(100), 1);
  EXPECT_EQ(highestReportableNines(999), 1);
  EXPECT_EQ(highestReportableNines(1000), 2);
  EXPECT_EQ(highestReportableNines(123456), 4);
  EXPECT_EQ(ninesLabel(1), "p90");
  EXPECT_EQ(ninesLabel(2), "p99");
  EXPECT_EQ(ninesLabel(4), "p99.99");
}

TEST(PercentileRule, RefusesP99BelowThousandSamples) {
  std::vector<double> S(999, 1.0);
  EXPECT_THROW(summarizeLatency(S), std::runtime_error);
}

TEST(PercentileRule, SummaryPicksNearestRanks) {
  // Samples 1..20000 in reverse order; the summary sorts them.
  std::vector<double> S;
  for (int I = 20000; I >= 1; --I)
    S.push_back(I);
  LatencySummary L = summarizeLatency(S);
  EXPECT_EQ(L.Count, 20000u);
  EXPECT_EQ(L.P50, 10000.0);
  EXPECT_EQ(L.P99, 19800.0);     // 200 samples beyond.
  EXPECT_EQ(L.TailNines, 3);     // p99.9 leaves 20; p99.99 would leave 2.
  EXPECT_EQ(L.Tail, 19980.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(FastPercentile, InterpolatesTheFifthAndNinetyFifthPercentile) {
  EXPECT_EQ(fastPercentile({}, false), 0.0);
  EXPECT_EQ(fastPercentile({7.0}, true), 7.0);
  // 21 values 0..20: the 5th and 95th percentiles fall on order statistics
  // 1 and 19.
  std::vector<double> Xs;
  for (int I = 20; I >= 0; --I)
    Xs.push_back(I);
  EXPECT_EQ(fastPercentile(Xs, false), 1.0);
  EXPECT_EQ(fastPercentile(Xs, true), 19.0);
  // 11 values: positions 0.5 and 9.5 lie halfway between neighbours.
  std::vector<double> Ys = {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
  EXPECT_DOUBLE_EQ(fastPercentile(Ys, false), 1.0);
  EXPECT_DOUBLE_EQ(fastPercentile(Ys, true), 19.0);
}

TEST(FastPercentile, ReadsTheFastModeWhateverItsShare) {
  // Per-sample latencies from a bimodal host (1 us fast, 2 us slow): the
  // median jumps between the modes as the slow share crosses one half; the
  // fast percentile stays on the fast mode while a twentieth of the samples
  // saw it.
  for (int Slow : {0, 20, 30, 50, 75}) {
    std::vector<double> Us(80, 1.0);
    for (int I = 0; I < Slow; ++I)
      Us[static_cast<size_t>(I)] = 2.0;
    EXPECT_EQ(fastPercentile(Us, false), 1.0) << Slow;
  }
  // A slower program moves every sample, and the percentile with them.
  std::vector<double> Slower(80, 1.25);
  for (int I = 0; I < 30; ++I)
    Slower[static_cast<size_t>(I)] = 2.5;
  EXPECT_EQ(fastPercentile(Slower, false), 1.25);
}

TEST(InterquartileMean, DropsAQuarterAtEachEnd) {
  EXPECT_EQ(interquartileMean({}), 0.0);
  EXPECT_EQ(interquartileMean({5.0, 1.0, 3.0}), 3.0); // Nothing dropped.
  // 8 values: the 2 lowest and 2 highest go, whatever their size.
  EXPECT_EQ(interquartileMean({1e9, 2, 3, 4, 5, -1e9, 1e9, -1e9}), 3.5);
}

TEST(PhaseSeries, AddsSamplesAndRefusesShortOnes) {
  Phase P;
  PhaseSeries G;
  for (int I = 1; I <= 2000; ++I)
    P.addStep(I * 1000); // 1..2000 us.
  P.Ops = 4000;
  P.WallNs = 2'000'000'000;
  G.addSample(P, 0, 0);
  ASSERT_EQ(G.Rate.size(), 1u);
  EXPECT_EQ(G.Rate[0], 2000.0);
  EXPECT_EQ(G.P50Us[0], 1000.0);
  EXPECT_EQ(G.P99Us[0], 1980.0);
  EXPECT_EQ(G.TailNines, 2);
  EXPECT_EQ(G.MinSteps, 2000u);

  // A window: only the steps from Step0 on, and only its ops and wall time.
  for (int I = 0; I < 1000; ++I)
    P.addStep(5000);
  P.Ops += 1000;
  P.WallNs += 1'000'000'000;
  G.addSample(P, 4000, 2'000'000'000, 2000);
  ASSERT_EQ(G.Rate.size(), 2u);
  EXPECT_EQ(G.Rate[1], 1000.0);
  EXPECT_EQ(G.P50Us[1], 5.0);
  EXPECT_EQ(G.MinSteps, 1000u);

  P.StepNs.clear();
  for (int I = 0; I < 999; ++I)
    P.addStep(1000);
  EXPECT_THROW(G.addSample(P, 0, 0), std::runtime_error);
}

namespace {
Span makeSpan(Layer L, int64_t Start, int64_t End, int32_t Parent,
              PhaseKind P = PLearn, bool Concurrent = false) {
  Span S;
  S.Name = L;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Phase = P;
  S.Concurrent = Concurrent;
  return S;
}
} // namespace

TEST(SpanSelfTime, NestedSpansSubtractTheirChildren) {
  // iter [0,100] > nn [10,60] > extract [20,30]; write_back [70,80].
  std::vector<Span> Ss = {
      makeSpan(LIter, 0, 100, -1), makeSpan(LNnLearn, 10, 60, 0),
      makeSpan(LExtract, 20, 30, 1), makeSpan(LWriteBack, 70, 80, 0)};
  TraceAnalysis A = analyzeSpans(Ss);
  EXPECT_EQ(A.ByPhase[PLearn][LIter].SelfNs, 40.0);
  EXPECT_EQ(A.ByPhase[PLearn][LNnLearn].SelfNs, 40.0);
  EXPECT_EQ(A.ByPhase[PLearn][LExtract].SelfNs, 10.0);
  EXPECT_EQ(A.ByPhase[PLearn][LWriteBack].SelfNs, 10.0);
  // The self times of one tree add up to the root's duration.
  EXPECT_EQ(A.SelfSumNs[PLearn], 100.0);
}

TEST(SpanSelfTime, ConcurrentSpansNeitherSubtractNorSum) {
  // A parallel region [10,50] whose two lanes overlap each other.
  std::vector<Span> Ss = {makeSpan(LIter, 0, 60, -1, PDeploy),
                          makeSpan(LParallelStep, 10, 50, 0, PDeploy),
                          makeSpan(LRender, 12, 40, 1, PDeploy, true),
                          makeSpan(LRender, 15, 45, 1, PDeploy, true)};
  TraceAnalysis A = analyzeSpans(Ss);
  EXPECT_EQ(A.ByPhase[PDeploy][LParallelStep].SelfNs, 40.0);
  EXPECT_EQ(A.ByPhase[PDeploy][LRender].Calls, 2u);
  EXPECT_EQ(A.ByPhase[PDeploy][LRender].SelfNs, 58.0);
  EXPECT_EQ(A.SelfSumNs[PDeploy], 60.0);
  EXPECT_EQ(A.SelfSumNs[PLearn], 0.0);
}

TEST(SpanSelfTime, TracerRecordsNestingAndIterations) {
  Tracer T(16);
  T.setPhase(PLearn);
  T.beginIteration(nowNs());
  {
    SpanScope Outer(&T, LNnLearn);
    SpanScope Inner(&T, LExtract);
  }
  T.endIteration(nowNs());
  std::vector<Span> Ss = T.spans();
  ASSERT_EQ(Ss.size(), 3u);
  EXPECT_EQ(Ss[0].Name, LIter);
  EXPECT_EQ(Ss[1].Parent, 0);
  EXPECT_EQ(Ss[2].Parent, 1);
  EXPECT_EQ(Ss[2].Iter, 1u);
  for (const Span &S : Ss)
    EXPECT_LE(S.Start, S.End);
  TraceAnalysis A = analyzeSpans(Ss);
  EXPECT_DOUBLE_EQ(A.SelfSumNs[PLearn],
                   static_cast<double>(Ss[0].End - Ss[0].Start));
}

TEST(SpanSelfTime, OverflowDropsSpansAndIsReported) {
  Tracer T(2);
  T.setPhase(PLearn);
  T.beginIteration(nowNs());
  {
    SpanScope A(&T, LNnLearn);
    SpanScope B(&T, LExtract); // Dropped: the buffer holds two spans.
  }
  T.endIteration(nowNs());
  EXPECT_TRUE(T.overflowed());
  EXPECT_EQ(T.spans().size(), 2u);
}

TEST(FailureAccounting, CountsAttemptsFailuresAndMessages) {
  Checks C;
  C.check(true, "ok");
  C.check(false, "bad action");
  for (int I = 0; I < 5; ++I)
    C.check(true, "ok");
  EXPECT_EQ(C.attempted(), 7u);
  EXPECT_EQ(C.failed(), 1u);
  ASSERT_EQ(C.messages().size(), 1u);
  EXPECT_EQ(C.messages()[0], "bad action");

  for (int I = 0; I < 20; ++I)
    C.check(false, "more");
  EXPECT_EQ(C.failed(), 21u);
  EXPECT_EQ(C.messages().size(), Checks::MaxMessages);

  Checks Other;
  Other.check(false, "other");
  Other.check(true, "ok");
  Other.check(true, "ok");
  C.merge(Other);
  EXPECT_EQ(C.attempted(), 30u);
  EXPECT_EQ(C.failed(), 22u);
  EXPECT_EQ(C.messages().size(), Checks::MaxMessages);
}
