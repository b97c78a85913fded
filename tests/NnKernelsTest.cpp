//===- tests/NnKernelsTest.cpp - Batched compute engine tests ------------===//
//
// Differential tests pinning the GEMM/im2col batched engines (blocked and
// simd) to the scalar per-sample layer kernels, which serve as the oracle,
// plus determinism-under-threading and ThreadPool unit tests.
//
//===----------------------------------------------------------------------===//

#include "HeapCounter.h"
#include "nn/Gemm.h"
#include "nn/GemmSimdKernels.h"
#include "nn/Layers.h"
#include "nn/Loss.h"
#include "nn/Network.h"
#include "nn/Optimizer.h"
#include "nn/Supervised.h"
#include "nn/Workspace.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>

#include <sys/mman.h>
#include <unistd.h>

using namespace au;
using namespace au::nn;

namespace {

/// Asserts |A - B| <= 1e-4 * max(1, |B|) elementwise.
void expectClose(const std::vector<float> &A, const std::vector<float> &B,
                 const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I) {
    double Tol = 1e-4 * std::max(1.0, std::abs(static_cast<double>(B[I])));
    ASSERT_NEAR(A[I], B[I], Tol) << What << " at index " << I;
  }
}

Tensor randomTensor(std::vector<int> Shape, Rng &Rand) {
  Tensor T(std::move(Shape));
  for (float &V : T.values())
    V = static_cast<float>(Rand.uniform(-1.5, 1.5));
  return T;
}

/// Collects a layer's parameter gradients as one flat vector.
std::vector<float> gradSnapshot(Layer &L) {
  std::vector<float> Out;
  for (ParamView P : L.params())
    Out.insert(Out.end(), P.Grads, P.Grads + P.Count);
  return Out;
}

/// Restores the GEMM backend and a default pool after each test.
class NnKernelsTest : public ::testing::Test {
protected:
  void TearDown() override {
    setBackend(defaultBackend());
    ThreadPool::setGlobalThreads(1);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, ParallelForCoversRangeExactlyOnce) {
  for (int Threads : {1, 2, 8}) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<int>> Hits(1000);
    for (auto &H : Hits)
      H = 0;
    Pool.parallelFor(0, Hits.size(), 7, [&](size_t B, size_t E) {
      for (size_t I = B; I != E; ++I)
        ++Hits[I];
    });
    for (size_t I = 0; I != Hits.size(); ++I)
      ASSERT_EQ(Hits[I], 1) << "threads=" << Threads << " index=" << I;
  }
}

TEST_F(NnKernelsTest, GrainForIsPositiveAndNonIncreasing) {
  const size_t C = ThreadPool::MinChunkWork;
  size_t Prev = ThreadPool::grainFor(0);
  for (size_t W : {size_t{1}, size_t{2}, size_t{3}, size_t{100}, C / 2 - 1,
                   C / 2, C - 1, C, C + 1, 3 * C, size_t{1} << 40}) {
    size_t G = ThreadPool::grainFor(W);
    EXPECT_GE(G, 1u) << "work per item " << W;
    EXPECT_LE(G, Prev) << "work per item " << W;
    Prev = G;
  }
}

TEST_F(NnKernelsTest, RangeUnderOneChunkOfWorkRunsInline) {
  // 64 items of 16 work units: far below MinChunkWork in total.
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> Chunks{0}, Elsewhere{0};
  Pool.parallelFor(0, 64, ThreadPool::grainFor(16), [&](size_t, size_t) {
    ++Chunks;
    if (std::this_thread::get_id() != Caller)
      ++Elsewhere;
  });
  EXPECT_GE(Chunks.load(), 1);
  EXPECT_EQ(Elsewhere.load(), 0);
}

TEST_F(NnKernelsTest, RangeUnderTwoChunksOfWorkRunsInline) {
  // 7 items of a quarter chunk each: one full chunk of 4 and a partial one
  // of 3. Every item sleeps, so a dispatched second chunk would reach a
  // worker while the caller runs the first.
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> Chunks{0}, Elsewhere{0};
  Pool.parallelFor(0, 7, ThreadPool::grainFor(ThreadPool::MinChunkWork / 4),
                   [&](size_t B, size_t E) {
    for (size_t I = B; I != E; ++I)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++Chunks;
    if (std::this_thread::get_id() != Caller)
      ++Elsewhere;
  });
  EXPECT_GE(Chunks.load(), 1);
  EXPECT_EQ(Elsewhere.load(), 0);
}

TEST_F(NnKernelsTest, RangeOfManyChunksReachesAWorker) {
  // 256 items of one chunk's work each; every item sleeps, so the calling
  // thread cannot drain the range before the workers wake.
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> Elsewhere{0};
  Pool.parallelFor(0, 256, ThreadPool::grainFor(ThreadPool::MinChunkWork),
                   [&](size_t B, size_t E) {
    for (size_t I = B; I != E; ++I)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (std::this_thread::get_id() != Caller)
      ++Elsewhere;
  });
  EXPECT_GE(Elsewhere.load(), 1);
}

TEST_F(NnKernelsTest, AsyncTaskRunsAndWaitCompletes) {
  for (int Threads : {1, 4}) {
    ThreadPool Pool(Threads);
    std::atomic<int> Ran{0};
    ThreadPool::TaskHandle H = Pool.async([&] { Ran.fetch_add(1); });
    H.wait();
    EXPECT_EQ(Ran.load(), 1) << "threads=" << Threads;
    // With no workers (Threads == 1) the task runs inline and the handle
    // is already invalid; either way wait() is idempotent.
    H.wait();
    EXPECT_FALSE(H.valid());
  }
}

TEST_F(NnKernelsTest, AsyncTaskMayIssueParallelFor) {
  // The SL prefetch producer normalizes batches with parallelFor from
  // inside an async task; the nested region must run inline rather than
  // deadlock the pool.
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(256);
  for (auto &H : Hits)
    H = 0;
  ThreadPool::TaskHandle T = Pool.async([&] {
    Pool.parallelFor(0, Hits.size(), 16, [&](size_t B, size_t E) {
      for (size_t I = B; I != E; ++I)
        ++Hits[I];
    });
  });
  T.wait();
  for (size_t I = 0; I != Hits.size(); ++I)
    ASSERT_EQ(Hits[I], 1) << "index=" << I;
}

TEST_F(NnKernelsTest, ShardedSumMatchesSerialAtAnyThreadCount) {
  std::vector<float> Items(1237);
  Rng Rand(7);
  for (float &V : Items)
    V = static_cast<float>(Rand.uniform(-1, 1));
  std::vector<float> Results;
  for (int Threads : {1, 2, 8}) {
    ThreadPool::setGlobalThreads(Threads);
    float Out = 1.0f; // parallelShardedSum accumulates on top.
    // One chunk's work per item: every shard is its own pool task.
    parallelShardedSum(Items.size(), 10, ThreadPool::MinChunkWork, 1,
                       [&](size_t B, size_t E, float *Acc) {
      for (size_t I = B; I != E; ++I)
        Acc[0] += Items[I];
    }, &Out);
    Results.push_back(Out);
  }
  // Bitwise identical across thread counts (fixed shard tree).
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Results[0], Results[2]);
  double Serial = 1.0 + std::accumulate(Items.begin(), Items.end(), 0.0);
  EXPECT_NEAR(Results[0], Serial, 1e-3);
}

//===----------------------------------------------------------------------===//
// SGEMM
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, SgemmMatchesReferenceAllTransposeCombos) {
  const int M = 5, N = 7, K = 11;
  Rng Rand(42);
  ThreadPool::setGlobalThreads(4);
  for (bool TA : {false, true})
    for (bool TB : {false, true}) {
      // Stored shapes: A is MxK (or KxM when transposed), B is KxN / NxK.
      Tensor A = randomTensor(TA ? std::vector<int>{K, M}
                                 : std::vector<int>{M, K}, Rand);
      Tensor B = randomTensor(TB ? std::vector<int>{N, K}
                                 : std::vector<int>{K, N}, Rand);
      Tensor C = randomTensor({M, N}, Rand);
      Tensor Ref = C;
      const float Alpha = 0.75f, Beta = 0.5f;
      for (int I = 0; I < M; ++I)
        for (int J = 0; J < N; ++J) {
          double Acc = 0.0;
          for (int Kk = 0; Kk < K; ++Kk) {
            float AV = TA ? A[Kk * M + I] : A[I * K + Kk];
            float BV = TB ? B[J * K + Kk] : B[Kk * N + J];
            Acc += static_cast<double>(AV) * BV;
          }
          Ref[I * N + J] = static_cast<float>(Alpha * Acc + Beta *
                                              Ref[I * N + J]);
        }
      sgemm(TA, TB, M, N, K, Alpha, A.data(), TA ? M : K, B.data(),
            TB ? K : N, Beta, C.data(), N);
      expectClose(C.values(), Ref.values(), "sgemm");
    }
}

namespace {

/// One GEMM case for the direct-path tests: extents, transposes, scalars and
/// row strides (each at least the stored row length).
struct GemmCase {
  int M, N, K;
  bool TA, TB;
  float Alpha, Beta;
  int Lda, Ldb, Ldc;

  int aRows() const { return TA ? K : M; }
  int bRows() const { return TB ? N : K; }
  /// Floats from an operand's first element through its last.
  size_t aSpan() const {
    return static_cast<size_t>(aRows() - 1) * Lda + (TA ? M : K);
  }
  size_t bSpan() const {
    return static_cast<size_t>(bRows() - 1) * Ldb + (TB ? K : N);
  }
  size_t cSpan() const { return static_cast<size_t>(M - 1) * Ldc + N; }
};

GemmCase randomGemmCase(Rng &Rand) {
  GemmCase G;
  G.M = 1 + static_cast<int>(Rand.uniformInt(40));
  G.N = 1 + static_cast<int>(Rand.uniformInt(40));
  G.K = 1 + static_cast<int>(Rand.uniformInt(320));
  G.TA = Rand.chance(0.5);
  G.TB = Rand.chance(0.5);
  const float Alphas[] = {1.0f, 0.75f, -1.5f};
  const float Betas[] = {0.0f, 1.0f, -0.5f};
  G.Alpha = Alphas[Rand.uniformInt(3)];
  G.Beta = Betas[Rand.uniformInt(3)];
  G.Lda = (G.TA ? G.M : G.K) + static_cast<int>(Rand.uniformInt(4));
  G.Ldb = (G.TB ? G.K : G.N) + static_cast<int>(Rand.uniformInt(4));
  G.Ldc = G.N + static_cast<int>(Rand.uniformInt(4));
  return G;
}

/// C as the packed kernel computes it: both operands packed into panels,
/// then microKernelRange over every row panel.
void packedReference(const GemmCase &G, const float *A, const float *B,
                     float *C) {
  std::vector<float> AP(simd::aPanelsSize(G.M, G.K));
  std::vector<float> BP(simd::bPanelsSize(G.K, G.N));
  simd::packAPanels(A, G.Lda, G.TA, G.M, G.K, AP.data());
  simd::packBPanels(B, G.Ldb, G.TB, G.K, G.N, BP.data());
  simd::microKernelRange(0, simd::numAPanels(G.M), G.M, G.N, G.K, G.Alpha,
                         AP.data(), BP.data(), G.Beta, nullptr, C, G.Ldc);
}

/// Fills C: NaN when Beta == 0 (the kernel must not read it), else random.
void fillC(const GemmCase &G, float *C, size_t Len, Rng &Rand) {
  for (size_t I = 0; I != Len; ++I)
    C[I] = G.Beta == 0.0f ? std::numeric_limits<float>::quiet_NaN()
                          : static_cast<float>(Rand.uniform(-2, 2));
}

/// \p N floats whose last element sits just before a PROT_NONE page, so a
/// load past the end faults. Catches what ASan cannot see inside AVX
/// intrinsics.
class GuardedFloats {
public:
  explicit GuardedFloats(size_t N) {
    size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_t DataPages = (N * sizeof(float) + Page - 1) / Page;
    Len = (DataPages + 1) * Page;
    void *P = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      return;
    Base = static_cast<char *>(P);
    if (mprotect(Base + DataPages * Page, Page, PROT_NONE) != 0)
      return;
    Ptr = reinterpret_cast<float *>(Base + DataPages * Page) - N;
  }
  ~GuardedFloats() {
    if (Base)
      munmap(Base, Len);
  }
  GuardedFloats(const GuardedFloats &) = delete;
  GuardedFloats &operator=(const GuardedFloats &) = delete;

  float *data() const { return Ptr; }

private:
  char *Base = nullptr;
  size_t Len = 0;
  float *Ptr = nullptr;
};

} // namespace

TEST_F(NnKernelsTest, SmallGemmDirectPathMatchesPackedKernelBitwise) {
  if (!simdSupported())
    GTEST_SKIP() << "no AVX2/FMA: the simd engine is not available";
  setBackend(Backend::Simd);
  Rng Rand(2024);
  int Direct = 0, Packed = 0;
  for (int Case = 0; Case < 1500; ++Case) {
    GemmCase G = randomGemmCase(Rand);
    (directGemm(G.M, G.N, G.K) ? Direct : Packed) += 1;
    std::vector<float> A(G.aSpan()), B(G.bSpan());
    for (float &V : A)
      V = static_cast<float>(Rand.uniform(-1, 1));
    for (float &V : B)
      V = static_cast<float>(Rand.uniform(-1, 1));
    std::vector<float> Ref(G.cSpan());
    fillC(G, Ref.data(), Ref.size(), Rand);
    std::vector<float> Got = Ref, GotPackedB = Ref;

    packedReference(G, A.data(), B.data(), Ref.data());
    sgemm(G.TA, G.TB, G.M, G.N, G.K, G.Alpha, A.data(), G.Lda, B.data(),
          G.Ldb, G.Beta, Got.data(), G.Ldc);
    PackedOperand PB;
    ensurePackedB(PB, 1, G.TB, G.K, G.N, B.data(), G.Ldb);
    sgemmPackedB(G.TA, PB, G.M, G.N, G.K, G.Alpha, A.data(), G.Lda, G.Beta,
                 GotPackedB.data(), G.Ldc);

    size_t Bytes = Ref.size() * sizeof(float);
    ASSERT_EQ(std::memcmp(Got.data(), Ref.data(), Bytes), 0)
        << "sgemm M=" << G.M << " N=" << G.N << " K=" << G.K
        << " TA=" << G.TA << " TB=" << G.TB << " Beta=" << G.Beta;
    ASSERT_EQ(std::memcmp(GotPackedB.data(), Ref.data(), Bytes), 0)
        << "sgemmPackedB M=" << G.M << " N=" << G.N << " K=" << G.K
        << " TA=" << G.TA << " TB=" << G.TB << " Beta=" << G.Beta;
  }
  // The shapes straddle the size rule: both paths were exercised.
  EXPECT_GT(Direct, 200);
  EXPECT_GT(Packed, 200);
}

TEST_F(NnKernelsTest, SmallGemmDirectPathReadsNothingPastItsOperands) {
  if (!simdSupported())
    GTEST_SKIP() << "no AVX2/FMA: the simd engine is not available";
  setBackend(Backend::Simd);
  Rng Rand(7);
  // The DQN's shapes (batch 32 and a 1-row act over 5-32-32-2) plus odd
  // extents with trailing columns in both lane groups.
  const int Shapes[][3] = {{32, 32, 5},  {32, 2, 32}, {1, 2, 32}, {1, 32, 5},
                           {32, 5, 32},  {7, 13, 9},  {3, 9, 17}, {6, 17, 3},
                           {13, 23, 11}, {1, 1, 1},   {5, 7, 64}};
  for (const auto &S : Shapes)
    for (bool TA : {false, true})
      for (float Beta : {0.0f, 1.0f}) {
        const int M = S[0], N = S[1], K = S[2];
        GemmCase G{M, N, K, TA, /*TB=*/false, 0.5f, Beta, TA ? M : K, N, N};
        ASSERT_TRUE(directGemm(G.M, G.N, G.K));
        GuardedFloats A(G.aSpan()), B(G.bSpan()), C(G.cSpan());
        ASSERT_TRUE(A.data() && B.data() && C.data()) << "mmap failed";
        for (size_t I = 0; I != G.aSpan(); ++I)
          A.data()[I] = static_cast<float>(Rand.uniform(-1, 1));
        for (size_t I = 0; I != G.bSpan(); ++I)
          B.data()[I] = static_cast<float>(Rand.uniform(-1, 1));
        std::vector<float> Ref(G.cSpan());
        fillC(G, Ref.data(), Ref.size(), Rand);
        std::vector<float> CInit = Ref;
        packedReference(G, A.data(), B.data(), Ref.data());
        size_t Bytes = Ref.size() * sizeof(float);

        std::memcpy(C.data(), CInit.data(), Bytes);
        sgemm(G.TA, G.TB, G.M, G.N, G.K, G.Alpha, A.data(), G.Lda, B.data(),
              G.Ldb, G.Beta, C.data(), G.Ldc);
        ASSERT_EQ(std::memcmp(C.data(), Ref.data(), Bytes), 0)
            << "sgemm M=" << G.M << " N=" << G.N << " K=" << G.K;

        PackedOperand PB;
        ensurePackedB(PB, 1, G.TB, G.K, G.N, B.data(), G.Ldb);
        std::memcpy(C.data(), CInit.data(), Bytes);
        sgemmPackedB(G.TA, PB, G.M, G.N, G.K, G.Alpha, A.data(), G.Lda,
                     G.Beta, C.data(), G.Ldc);
        ASSERT_EQ(std::memcmp(C.data(), Ref.data(), Bytes), 0)
            << "sgemmPackedB M=" << G.M << " N=" << G.N << " K=" << G.K;
      }
}

//===----------------------------------------------------------------------===//
// Dense: batched GEMM path vs scalar reference
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, DenseBatchMatchesNaive) {
  ThreadPool::setGlobalThreads(4);
  for (int BatchSize : {1, 17}) {
    Rng R1(3), R2(3);
    Dense Fast(7, 5, R1), Ref(7, 5, R2);
    Rng Rand(99);
    Tensor In = randomTensor({BatchSize, 7}, Rand);
    Tensor GradOut = randomTensor({BatchSize, 5}, Rand);

    Tensor FastOut = Fast.forwardBatch(In);
    Tensor FastGradIn = Fast.backwardBatch(GradOut);

    Tensor RefOut({BatchSize, 5}), RefGradIn({BatchSize, 7});
    for (int B = 0; B < BatchSize; ++B) {
      Tensor X({7});
      std::copy(In.sampleData(B), In.sampleData(B) + 7, X.data());
      Tensor Y = Ref.forward(X);
      std::copy(Y.data(), Y.data() + 5, RefOut.sampleData(B));
      Tensor G({5});
      std::copy(GradOut.sampleData(B), GradOut.sampleData(B) + 5, G.data());
      Tensor GI = Ref.backward(G);
      std::copy(GI.data(), GI.data() + 7, RefGradIn.sampleData(B));
    }

    expectClose(FastOut.values(), RefOut.values(), "dense forward");
    expectClose(FastGradIn.values(), RefGradIn.values(), "dense grad-in");
    expectClose(gradSnapshot(Fast), gradSnapshot(Ref), "dense param grads");
  }
}

//===----------------------------------------------------------------------===//
// Conv2D: im2col/GEMM path vs scalar reference, odd shapes
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, ConvBatchMatchesNaiveOddShapesAndStride) {
  ThreadPool::setGlobalThreads(4);
  struct Case {
    int InC, OutC, K, S, H, W;
  } Cases[] = {
      {3, 5, 3, 1, 11, 9}, // non-square
      {2, 4, 3, 2, 13, 7}, // stride > 1, non-square
      {1, 8, 5, 2, 12, 17},
  };
  for (const Case &C : Cases)
    for (int BatchSize : {1, 17}) {
      Rng R1(5), R2(5);
      Conv2D Fast(C.InC, C.OutC, C.K, C.S, R1);
      Conv2D Ref(C.InC, C.OutC, C.K, C.S, R2);
      Rng Rand(123);
      Tensor In = randomTensor({BatchSize, C.InC, C.H, C.W}, Rand);
      int OH = convOutDim(C.H, C.K, C.S), OW = convOutDim(C.W, C.K, C.S);
      Tensor GradOut = randomTensor({BatchSize, C.OutC, OH, OW}, Rand);

      Tensor FastOut = Fast.forwardBatch(In);
      Tensor FastGradIn = Fast.backwardBatch(GradOut);

      Tensor RefOut(FastOut.shape()), RefGradIn(In.shape());
      size_t InSz = In.sampleSize(), OutSz = FastOut.sampleSize();
      for (int B = 0; B < BatchSize; ++B) {
        Tensor X({C.InC, C.H, C.W});
        std::copy(In.sampleData(B), In.sampleData(B) + InSz, X.data());
        Tensor Y = Ref.forward(X);
        std::copy(Y.data(), Y.data() + OutSz, RefOut.sampleData(B));
        Tensor G({C.OutC, OH, OW});
        std::copy(GradOut.sampleData(B), GradOut.sampleData(B) + OutSz,
                  G.data());
        Tensor GI = Ref.backward(G);
        std::copy(GI.data(), GI.data() + InSz, RefGradIn.sampleData(B));
      }

      expectClose(FastOut.values(), RefOut.values(), "conv forward");
      expectClose(FastGradIn.values(), RefGradIn.values(), "conv grad-in");
      expectClose(gradSnapshot(Fast), gradSnapshot(Ref),
                  "conv param grads");
    }
}

//===----------------------------------------------------------------------===//
// Full network equivalence (CNN stack: reshape/conv/relu/pool/flatten/dense)
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, CnnForwardBatchMatchesScalarForward) {
  ThreadPool::setGlobalThreads(4);
  Rng R1(11), R2(11);
  Network Fast = buildDeepMindCnn(1, 16, {24}, 3, R1);
  Network Ref = buildDeepMindCnn(1, 16, {24}, 3, R2);
  Rng Rand(7);
  const int BatchSize = 5, InSize = 16 * 16;
  Tensor In = randomTensor({BatchSize, InSize}, Rand);
  Tensor FastOut = Fast.forwardBatch(In);
  for (int B = 0; B < BatchSize; ++B) {
    Tensor X({InSize});
    std::copy(In.sampleData(B), In.sampleData(B) + InSize, X.data());
    Tensor Y = Ref.forward(X);
    std::vector<float> FastRow(FastOut.sampleData(B),
                               FastOut.sampleData(B) + Y.size());
    expectClose(FastRow, Y.values(), "cnn forward");
  }
}

//===----------------------------------------------------------------------===//
// Backend equivalence through the trainer
//===----------------------------------------------------------------------===//

namespace {

/// The trainer test's dataset: 50 samples of a 4 -> 2 regression.
std::vector<Sample> trainerDataset() {
  Rng DataRand(5);
  std::vector<Sample> Data;
  for (int I = 0; I < 50; ++I) {
    float A = static_cast<float>(DataRand.uniform(-1, 1));
    float C = static_cast<float>(DataRand.uniform(-1, 1));
    Data.push_back({{A, C, A * C, A - C}, {A + C, A * C}});
  }
  return Data;
}

/// (V - Mean) / Std per element, as SupervisedTrainer normalizes.
Tensor normalized(const std::vector<float> &V, const std::vector<float> &Mean,
                  const std::vector<float> &Std) {
  Tensor T(std::vector<int>{static_cast<int>(V.size())});
  for (size_t I = 0; I != V.size(); ++I)
    T[I] = (V[I] - Mean[I]) / Std[I];
  return T;
}

} // namespace

TEST_F(NnKernelsTest, TrainerBackendsConverge) {
  // Train the same model+data with the batched trainer under each engine
  // and with a per-sample reference; losses and predictions must agree to
  // within accumulated float-reassociation noise.
  const int Epochs = 8, BatchSize = 16;
  const std::vector<float> Probe = {0.3f, -0.2f, 0.1f, 0.5f};
  auto Run = [&](Backend B) {
    setBackend(B);
    Rng NetRand(21);
    SupervisedTrainer Trainer(buildDnn(4, {16, 8}, 2, NetRand), 1e-2);
    for (Sample &S : trainerDataset())
      Trainer.addSample(std::move(S.X), std::move(S.Y));
    Rng TrainRand(9);
    double Loss = Trainer.train(Epochs, BatchSize, TrainRand);
    return std::make_pair(Loss, Trainer.predict(Probe));
  };

  // The reference: SupervisedTrainer::train's shuffle and batch boundaries,
  // one scalar Network::forward/backward per sample, scalar Adam.
  setBackend(Backend::Blocked);
  std::vector<Sample> Data = trainerDataset();
  std::vector<float> XM, XS, YM, YS;
  {
    Rng StatsRand(1); // Only the dataset statistics of this trainer are used.
    SupervisedTrainer Stats(buildDnn(4, {2}, 2, StatsRand));
    for (const Sample &S : Data)
      Stats.addSample(S.X, S.Y);
    Stats.getNormalization(XM, XS, YM, YS);
  }
  Rng NetRand(21);
  Network Net = buildDnn(4, {16, 8}, 2, NetRand);
  Adam Opt(Net, 1e-2);
  std::vector<size_t> Order(Data.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  Rng TrainRand(9);
  double RefLoss = 0.0;
  for (int Ep = 0; Ep < Epochs; ++Ep) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[TrainRand.uniformInt(I)]);
    RefLoss = 0.0;
    for (size_t Start = 0; Start < Order.size(); Start += BatchSize) {
      size_t End = std::min(Order.size(), Start + BatchSize);
      for (size_t Pos = Start; Pos != End; ++Pos) {
        const Sample &S = Data[Order[Pos]];
        Tensor Grad;
        RefLoss += mseLoss(Net.forward(normalized(S.X, XM, XS)),
                           normalized(S.Y, YM, YS), Grad);
        Net.backward(Grad);
      }
      Opt.step(1.0 / static_cast<double>(End - Start));
    }
    RefLoss /= static_cast<double>(Data.size());
  }
  Tensor RefOut = Net.forward(normalized(Probe, XM, XS));
  std::vector<float> RefPred(RefOut.size());
  for (size_t I = 0; I != RefPred.size(); ++I)
    RefPred[I] = RefOut[I] * YS[I] + YM[I];

  auto [BlockedLoss, BlockedPred] = Run(Backend::Blocked);
  EXPECT_NEAR(BlockedLoss, RefLoss, 1e-3);
  expectClose(BlockedPred, RefPred, "trainer predictions");
  if (simdSupported()) {
    auto [SimdLoss, SimdPred] = Run(Backend::Simd);
    EXPECT_NEAR(SimdLoss, RefLoss, 1e-3);
    expectClose(SimdPred, RefPred, "trainer predictions (simd)");
  }

  // And a multi-row predictRowsInto agrees with one predict per row.
  setBackend(Backend::Blocked);
  Rng ServeNetRand(21);
  SupervisedTrainer Trainer(buildDnn(4, {16, 8}, 2, ServeNetRand), 1e-2);
  for (Sample &S : trainerDataset())
    Trainer.addSample(std::move(S.X), std::move(S.Y));
  Rng ServeRand(9);
  Trainer.train(5, 16, ServeRand);
  const float Rows[] = {0.3f, -0.2f, 0.1f, 0.5f, -0.9f, 0.4f, -0.36f, -1.3f};
  std::vector<float> Both;
  Trainer.predictRowsInto(Rows, 2, Both);
  ASSERT_EQ(Both.size(), 4u);
  expectClose({Both[0], Both[1]}, Trainer.predict({Rows, Rows + 4}),
              "predictRowsInto row 0");
  expectClose({Both[2], Both[3]}, Trainer.predict({Rows + 4, Rows + 8}),
              "predictRowsInto row 1");
}

//===----------------------------------------------------------------------===//
// Determinism: training loss is bitwise identical at any thread count
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, TrainingIsDeterministicAcrossThreadCounts) {
  auto Run = [] {
    Rng NetRand(77);
    // CNN model so conv kernels, sharded reductions and GEMMs all engage.
    SupervisedTrainer Trainer(buildDeepMindCnn(1, 12, {16}, 2, NetRand),
                              1e-3);
    Rng DataRand(3);
    for (int I = 0; I < 24; ++I) {
      std::vector<float> X(12 * 12);
      for (float &V : X)
        V = static_cast<float>(DataRand.uniform(0, 1));
      std::vector<float> Y = {X[0] + X[50],
                              static_cast<float>(DataRand.uniform(-1, 1))};
      Trainer.addSample(std::move(X), std::move(Y));
    }
    Rng TrainRand(13);
    return Trainer.train(3, 8, TrainRand);
  };
  std::vector<double> Losses;
  for (int Threads : {1, 2, 8}) {
    ThreadPool::setGlobalThreads(Threads);
    Losses.push_back(Run());
  }
  // Bitwise equality — the engine's schedules cannot change any rounding.
  EXPECT_EQ(Losses[0], Losses[1]);
  EXPECT_EQ(Losses[0], Losses[2]);
}

//===----------------------------------------------------------------------===//
// MaxPool sentinel regression
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, MaxPoolHandlesArbitrarilyNegativeInputs) {
  MaxPool2D Pool;
  Tensor In({1, 2, 2});
  // All inputs below the old -1e30 sentinel; the max is at index 3.
  In[0] = -4e30f;
  In[1] = -3e30f;
  In[2] = -5e30f;
  In[3] = -2e30f;
  Tensor Out = Pool.forward(In);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FLOAT_EQ(Out[0], -2e30f);
  Tensor G({1, 1, 1});
  G[0] = 1.0f;
  Tensor GI = Pool.backward(G);
  EXPECT_FLOAT_EQ(GI[3], 1.0f);
  EXPECT_FLOAT_EQ(GI[0], 0.0f);

  // Batched path agrees.
  Tensor InB = In.reshaped({1, 1, 2, 2});
  Tensor OutB = Pool.forwardBatch(InB);
  EXPECT_FLOAT_EQ(OutB[0], -2e30f);
}

//===----------------------------------------------------------------------===//
// AU_NN_BACKEND parsing
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, BackendParserAcceptsOnlyEngineNames) {
  EXPECT_EQ(parseBackend("simd"), Backend::Simd);
  EXPECT_EQ(parseBackend("blocked"), Backend::Blocked);
  // Anything else, the retired "naive" and "gemm" included, is rejected;
  // the env reader then warns and takes the default.
  for (const char *Bad : {"naive", "gemm", "", "Simd", "simd ", "blocked2"})
    EXPECT_EQ(parseBackend(Bad), std::nullopt) << '"' << Bad << '"';
}

//===----------------------------------------------------------------------===//
// AU_NN_THREADS parsing (the parser alone: no pool is built from a value)
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, ThreadCountParserAcceptsOnlyIntegersInRange) {
  EXPECT_EQ(ThreadPool::parseThreadCount("1"), 1);
  EXPECT_EQ(ThreadPool::parseThreadCount("4"), 4);
  EXPECT_EQ(ThreadPool::parseThreadCount("256"), ThreadPool::MaxThreads);
  // Trailing junk, non-numbers, zero, negatives, signs, whitespace, values
  // above the ceiling and values past int range are all rejected; the env
  // reader then warns and takes the default.
  for (const char *Bad : {"4x", "abc", "", "0", "-2", "+4", " 4", "4 ", "257",
                          "100000", "99999999999999999999", "1.5"})
    EXPECT_EQ(ThreadPool::parseThreadCount(Bad), std::nullopt)
        << '"' << Bad << '"';
}

//===----------------------------------------------------------------------===//
// Cross-backend layer equivalence (blocked and simd vs the scalar oracle)
//===----------------------------------------------------------------------===//

namespace {

/// The engines to check: blocked, and simd only where the CPU can run it.
std::vector<Backend> comparableBackends() {
  std::vector<Backend> Bs = {Backend::Blocked};
  if (simdSupported())
    Bs.push_back(Backend::Simd);
  return Bs;
}

} // namespace

TEST_F(NnKernelsTest, LayersEquivalentAcrossBackends) {
  ThreadPool::setGlobalThreads(2);
  Rng Rand(321);
  Tensor DenseIn = randomTensor({9, 7}, Rand);
  Tensor DenseGrad = randomTensor({9, 5}, Rand);
  Tensor ConvIn = randomTensor({9, 3, 10, 8}, Rand);
  Tensor ConvGrad = randomTensor({9, 4, 8, 6}, Rand);

  struct Result {
    std::vector<float> DenseOut, DenseGradIn, DenseGrads;
    std::vector<float> ConvOut, ConvGradIn, ConvGrads;
  };
  auto Run = [&](Backend B) {
    setBackend(B);
    Rng R1(17), R2(17);
    Dense D(7, 5, R1);
    Conv2D C(3, 4, 3, 1, R2);
    Result Out;
    Out.DenseOut = D.forwardBatch(DenseIn).values();
    Out.DenseGradIn = D.backwardBatch(DenseGrad).values();
    Out.DenseGrads = gradSnapshot(D);
    Out.ConvOut = C.forwardBatch(ConvIn).values();
    Out.ConvGradIn = C.backwardBatch(ConvGrad).values();
    Out.ConvGrads = gradSnapshot(C);
    return Out;
  };

  // The reference: the scalar forward/backward over each batch row, with
  // the parameter gradients accumulated across rows.
  auto PerSample = [](Layer &L, const Tensor &In, const Tensor &GradOut,
                      std::vector<float> &Out, std::vector<float> &GradIn) {
    std::vector<int> InShape = In.sampleShape();
    std::vector<int> OutShape = GradOut.sampleShape();
    for (int B = 0; B < In.dim(0); ++B) {
      Tensor X(InShape);
      std::copy(In.sampleData(B), In.sampleData(B) + X.size(), X.data());
      Tensor Y = L.forward(X);
      Out.insert(Out.end(), Y.data(), Y.data() + Y.size());
      Tensor G(OutShape);
      std::copy(GradOut.sampleData(B), GradOut.sampleData(B) + G.size(),
                G.data());
      Tensor GI = L.backward(G);
      GradIn.insert(GradIn.end(), GI.data(), GI.data() + GI.size());
    }
  };
  Result Ref;
  {
    Rng R1(17), R2(17);
    Dense D(7, 5, R1);
    Conv2D C(3, 4, 3, 1, R2);
    PerSample(D, DenseIn, DenseGrad, Ref.DenseOut, Ref.DenseGradIn);
    Ref.DenseGrads = gradSnapshot(D);
    PerSample(C, ConvIn, ConvGrad, Ref.ConvOut, Ref.ConvGradIn);
    Ref.ConvGrads = gradSnapshot(C);
  }

  for (Backend B : comparableBackends()) {
    Result Got = Run(B);
    expectClose(Got.DenseOut, Ref.DenseOut, "dense forward x-backend");
    expectClose(Got.DenseGradIn, Ref.DenseGradIn, "dense grad-in x-backend");
    expectClose(Got.DenseGrads, Ref.DenseGrads, "dense grads x-backend");
    expectClose(Got.ConvOut, Ref.ConvOut, "conv forward x-backend");
    expectClose(Got.ConvGradIn, Ref.ConvGradIn, "conv grad-in x-backend");
    expectClose(Got.ConvGrads, Ref.ConvGrads, "conv grads x-backend");
  }
}

//===----------------------------------------------------------------------===//
// Packed-weight cache invalidation
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, PackedWeightsInvalidateAfterOptimizerStep) {
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R(29);
    Network Net = buildDnn(6, {8}, 3, R);
    Adam Opt(Net, 0.05);
    Rng Rand(5);
    Tensor In = randomTensor({4, 6}, Rand);
    Tensor Grad = randomTensor({4, 3}, Rand);

    Net.forwardBatch(In); // Warms the packed-weight caches.
    Net.backwardBatch(Grad);
    Opt.step(4.0);

    // Post-step batched prediction must reflect the new weights: compare
    // against the per-sample scalar path, which reads them directly.
    Tensor Out = Net.forwardBatch(In);
    for (int S = 0; S < 4; ++S) {
      Tensor X({6});
      std::copy(In.sampleData(S), In.sampleData(S) + 6, X.data());
      Tensor Y = Net.forward(X);
      for (int J = 0; J < 3; ++J)
        ASSERT_NEAR(Out.sampleData(S)[J], Y[J], 1e-4)
            << "stale packed weights after optimizer step, backend "
            << backendName(B);
    }
  }
}

TEST_F(NnKernelsTest, PackedWeightsInvalidateAfterParamLoad) {
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R(31);
    Network Net = buildDnn(5, {6}, 2, R);
    Adam Opt(Net, 0.1);
    Rng Rand(7);
    Tensor In = randomTensor({3, 5}, Rand);
    Tensor Grad = randomTensor({3, 2}, Rand);

    Tensor Before = Net.forwardBatch(In); // Packs the initial weights.
    std::vector<float> Expect = Before.values();

    std::string Path =
        ::testing::TempDir() + "nn_kernels_packed_reload.bin";
    ASSERT_TRUE(Net.saveParams(Path));

    // Perturb the parameters, then load the saved ones back — the restore
    // path readParams/loadParams rides through must invalidate the caches.
    Net.backwardBatch(Grad);
    Opt.step(3.0);
    ASSERT_TRUE(Net.loadParams(Path));

    Tensor After = Net.forwardBatch(In);
    expectClose(After.values(), Expect,
                "prediction after param reload (stale packed weights?)");
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Adam: no subnormal state, unchanged steps in the normal range
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, AdamMomentsNeverGoSubnormal) {
  for (Backend B : comparableBackends()) {
    setBackend(B);
    // From 1e-3 the first moment decays into the subnormal range after ~800
    // zero-gradient steps; from 1e-20 the second moment starts there.
    for (double Tiny : {1e-3, 1e-12, 1e-20, 1e-30}) {
      Rng R(13);
      Network Net = buildDnn(6, {8}, 3, R);
      Adam Opt(Net, 1e-3);
      std::vector<ParamView> Params = Net.params();
      for (const ParamView &P : Params)
        for (size_t I = 0; I != P.Count; ++I)
          P.Grads[I] = static_cast<float>((I % 2 ? -Tiny : Tiny) *
                                          static_cast<double>(1 + I % 5));
      for (int Step = 0; Step < 3000; ++Step) {
        Opt.step(1.0); // Clears the gradients: every later step sees zero.
        for (size_t T = 0; T != Params.size(); ++T) {
          const std::vector<float> &M = Opt.firstMoments(T);
          const std::vector<float> &V = Opt.secondMoments(T);
          for (size_t I = 0; I != Params[T].Count; ++I) {
            ASSERT_NE(std::fpclassify(M[I]), FP_SUBNORMAL)
                << backendName(B) << " grad " << Tiny << " step " << Step;
            ASSERT_NE(std::fpclassify(V[I]), FP_SUBNORMAL)
                << backendName(B) << " grad " << Tiny << " step " << Step;
            ASSERT_TRUE(std::isfinite(Params[T].Values[I]));
          }
        }
      }
    }
  }
}

TEST_F(NnKernelsTest, AdamStepInNormalRangeMatchesReferenceFormula) {
  const double Lr = 1e-3, B1 = 0.9, B2 = 0.999, Eps = 1e-8, Scale = 0.25;
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R(19);
    // Every tensor size is a multiple of 8, so the simd engine runs only its
    // vector body, whose rounding the reference below spells out; the scalar
    // tail's rounding depends on the compiler's FMA contraction.
    Network Net = buildDnn(8, {16}, 8, R);
    Adam Opt(Net, Lr, B1, B2, Eps);
    std::vector<ParamView> Params = Net.params();
    std::vector<std::vector<float>> W, M, V;
    for (const ParamView &P : Params) {
      W.emplace_back(P.Values, P.Values + P.Count);
      M.emplace_back(P.Count, 0.0f);
      V.emplace_back(P.Count, 0.0f);
    }
    Rng GradRand(23);
    for (int Step = 1; Step <= 20; ++Step) {
      double Bias1 = 1.0 - std::pow(B1, Step);
      double Bias2 = 1.0 - std::pow(B2, Step);
      for (size_t T = 0; T != Params.size(); ++T)
        for (size_t I = 0; I != Params[T].Count; ++I) {
          float G = static_cast<float>(GradRand.uniform(-1, 1));
          Params[T].Grads[I] = G;
          float &Wr = W[T][I], &Mr = M[T][I], &Vr = V[T][I];
          if (B == Backend::Simd) {
            // adamUpdateAvx's vector body, lane by lane.
            float Gv = G * static_cast<float>(Scale);
            float B1f = static_cast<float>(B1), B2f = static_cast<float>(B2);
            Mr = std::fma(B1f, Mr, (1.0f - B1f) * Gv);
            Vr = std::fma(B2f, Vr, (1.0f - B2f) * (Gv * Gv));
            float MHat = Mr * static_cast<float>(1.0 / Bias1);
            float VHat = Vr * static_cast<float>(1.0 / Bias2);
            float Denom = std::sqrt(VHat) + static_cast<float>(Eps);
            Wr = Wr - static_cast<float>(Lr) * MHat / Denom;
          } else {
            // The double-precision update the blocked engine has always run.
            double Gd = G * Scale;
            Mr = static_cast<float>(B1 * Mr + (1.0 - B1) * Gd);
            Vr = static_cast<float>(B2 * Vr + (1.0 - B2) * Gd * Gd);
            double MHat = Mr / Bias1, VHat = Vr / Bias2;
            Wr -= static_cast<float>(Lr * MHat / (std::sqrt(VHat) + Eps));
          }
          ASSERT_GE(std::fabs(Mr), FLT_MIN) << "reference left the range";
          ASSERT_GE(std::fabs(Vr), FLT_MIN) << "reference left the range";
        }
      Opt.step(Scale);
      for (size_t T = 0; T != Params.size(); ++T) {
        size_t Bytes = Params[T].Count * sizeof(float);
        ASSERT_EQ(std::memcmp(Params[T].Values, W[T].data(), Bytes), 0)
            << backendName(B) << " weights, tensor " << T << " step " << Step;
        ASSERT_EQ(std::memcmp(Opt.firstMoments(T).data(), M[T].data(), Bytes),
                  0)
            << backendName(B) << " first moment, step " << Step;
        ASSERT_EQ(
            std::memcmp(Opt.secondMoments(T).data(), V[T].data(), Bytes), 0)
            << backendName(B) << " second moment, step " << Step;
        for (size_t I = 0; I != Params[T].Count; ++I)
          ASSERT_EQ(Params[T].Grads[I], 0.0f) << "gradient not cleared";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Zero-allocation steady state (workspace arena + retained layer caches)
//===----------------------------------------------------------------------===//

TEST_F(NnKernelsTest, SteadyStateForwardBatchDoesNotAllocate) {
  ThreadPool::setGlobalThreads(1); // Allocation counting needs one thread.
  for (Backend B : comparableBackends()) {
    setBackend(B);
    Rng R(41);
    Network Dnn = buildDnn(12, {16, 16}, 4, R);
    Network Cnn = buildDeepMindCnn(1, 12, {16}, 3, R);
    Rng Rand(9);
    Tensor DnnIn = randomTensor({8, 12}, Rand);
    Tensor CnnIn = randomTensor({8, 1, 12, 12}, Rand);

    // Building the networks above must have ticked the counter — guards
    // against the replacement operators not being linked in, which would
    // make the zero-alloc assertion below pass vacuously.
    ASSERT_GT(heapAllocs(), 0);

    // Warm-up: buffers converge on the workload's high-water mark.
    for (int I = 0; I < 3; ++I) {
      Tensor A = Dnn.forwardBatch(DnnIn);
      Workspace::release(A);
      Tensor C = Cnn.forwardBatch(CnnIn);
      Workspace::release(C);
    }

    long Before = heapAllocs();
    for (int I = 0; I < 8; ++I) {
      Tensor A = Dnn.forwardBatch(DnnIn);
      Workspace::release(A);
      Tensor C = Cnn.forwardBatch(CnnIn);
      Workspace::release(C);
    }
    long After = heapAllocs();
    EXPECT_EQ(After, Before)
        << "steady-state forwardBatch allocated under backend "
        << backendName(B);
  }
}
