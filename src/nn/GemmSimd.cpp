//===- nn/GemmSimd.cpp - AVX2/FMA kernel bodies ---------------------------===//
//
// This translation unit is compiled with -mavx2 -mfma (see src/nn/CMakeLists)
// while the rest of the library stays at the baseline architecture. The
// dispatcher in Gemm.cpp only calls in here after simdSupported() confirmed
// the CPU at runtime, so no AVX2 instruction can reach an unsupported core.
//
// The SGEMM micro-kernel computes a 6x16 register tile: 12 ymm accumulators
// (6 rows x two 8-lane vectors) fed by one broadcast per A element and two
// FMAs, the classic BLIS-style inner loop. Each C element is produced by a
// single k-ascending FMA chain, so results do not depend on how row panels
// are scheduled across threads. One tile template reads either packed
// panels or, on the direct path, the caller's matrices through their
// strides; the chain is the same, so both paths agree bitwise.
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "nn/GemmSimdKernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <array>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <immintrin.h>
#include <utility>

using namespace au;
using namespace au::nn;
using namespace au::nn::simd;

namespace {

/// Mask with the first \p N of 8 lanes enabled: every lane when N >= 8,
/// none when N <= 0.
inline __m256i tailMask(int N) {
  alignas(32) static const int Bits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};
  N = N < 0 ? 0 : N > 8 ? 8 : N;
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bits + 8 - N));
}

/// Writes one 8-lane group of C: C = Alpha * Acc + Beta * C over the first
/// \p Count lanes. Beta == 0 must not read C (it may be uninitialized).
inline void storeGroup(float *Dst, __m256 Acc, int Count, __m256 AlphaV,
                       float Beta, __m256 BetaV) {
  if (Count >= 8) {
    __m256 R = Beta == 0.0f
                   ? _mm256_mul_ps(AlphaV, Acc)
                   : _mm256_fmadd_ps(BetaV, _mm256_loadu_ps(Dst),
                                     _mm256_mul_ps(AlphaV, Acc));
    _mm256_storeu_ps(Dst, R);
    return;
  }
  if (Count <= 0)
    return;
  __m256i Msk = tailMask(Count);
  __m256 R = Beta == 0.0f
                 ? _mm256_mul_ps(AlphaV, Acc)
                 : _mm256_fmadd_ps(BetaV, _mm256_maskload_ps(Dst, Msk),
                                   _mm256_mul_ps(AlphaV, Acc));
  _mm256_maskstore_ps(Dst, Msk, R);
}

/// Loads one 8-lane group of a B row: a full vector from a zero-padded
/// packed panel, or a masked load from the caller's matrix, which touches no
/// column past the last live one.
template <bool DirectB>
inline __m256 loadGroup(const float *P, __m256i Mask) {
  if constexpr (DirectB)
    return _mm256_maskload_ps(P, Mask);
  else
    return _mm256_loadu_ps(P);
}

/// Folds one broadcast A element into a row's accumulators.
template <int Groups>
inline void fmaRow(__m256 A, __m256 B0, __m256 B1, __m256 &Lo, __m256 &Hi) {
  Lo = _mm256_fmadd_ps(A, B0, Lo);
  if constexpr (Groups == 2)
    Hi = _mm256_fmadd_ps(A, B1, Hi);
}

/// Writes one row of a tile (see storeGroup).
template <int Groups>
inline void storeRow(float *CRow, __m256 Lo, __m256 Hi, int Cols,
                     __m256 AlphaV, float Beta, __m256 BetaV) {
  storeGroup(CRow, Lo, Cols, AlphaV, Beta, BetaV);
  if constexpr (Groups == 2)
    storeGroup(CRow + 8, Hi, Cols - 8, AlphaV, Beta, BetaV);
}

/// One R x (8 * Groups) register tile: rows [RowBase, RowBase + R) of C
/// against columns [J0, J0 + 8 * Groups) of one 16-column B panel. Groups is
/// 1 for a trailing panel with at most 8 live columns, so the zero-padded
/// upper group is neither loaded nor accumulated.
///
/// The operand layout is a compile-time choice:
///  * packed (DirectA/DirectB false): \p A is the row panel, op(A)(RowBase +
///    r, k) at A[k * MR + r], and \p B is the B panel, op(B)(k, J0 + c) at
///    B[k * NR + c], zero-padded, so every load is a full vector;
///  * direct: \p A points at op(A)(RowBase, 0) in the caller's matrix, with
///    op(A)(RowBase + r, k) at A[r * ARowStride + k * AKStride] for either
///    transpose, and \p B at op(B)(0, J0) in the caller's non-transposed
///    matrix, op(B)(k, J0 + c) at B[k * Ldb + c], read with masked loads.
/// Each C element is the same k-ascending FMA chain from the same seed
/// through the same store in every layout, so the layouts agree bitwise.
///
/// R is a compile-time constant and every accumulator is an individually
/// named __m256 guarded by if constexpr — an Acc[R] array here makes GCC
/// spill the whole tile to the stack on every k iteration, roughly halving
/// throughput. A non-null \p BiasRow seeds each row's accumulators with
/// BiasRow[row] (requires Alpha == 1, Beta == 0), fusing the conv bias fill
/// into the GEMM.
template <int R, int Groups, bool DirectA, bool DirectB>
void panelTile(const float *A, size_t ARowStride, size_t AKStride,
               const float *B, size_t Ldb, int RowBase, int J0, int Cols,
               int K, float Alpha, float Beta, const float *BiasRow, float *C,
               int Ldc) {
  static_assert(R >= 1 && R <= MR, "row count exceeds the register tile");
  static_assert(Groups == 1 || Groups == 2, "a B panel is two lane groups");
  const __m256 AlphaV = _mm256_set1_ps(Alpha), BetaV = _mm256_set1_ps(Beta);
  const size_t RS = DirectA ? ARowStride : 1;
  const size_t KS = DirectA ? AKStride : MR;
  const size_t BS = DirectB ? Ldb : NR;
  const __m256i Mask0 = tailMask(Cols), Mask1 = tailMask(Cols - 8);
  __m256 Z = _mm256_setzero_ps();
  __m256 Acc00 = Z, Acc01 = Z, Acc10 = Z, Acc11 = Z, Acc20 = Z, Acc21 = Z,
         Acc30 = Z, Acc31 = Z, Acc40 = Z, Acc41 = Z, Acc50 = Z, Acc51 = Z;
  if (BiasRow) {
    Acc00 = Acc01 = _mm256_set1_ps(BiasRow[RowBase]);
    if constexpr (R > 1)
      Acc10 = Acc11 = _mm256_set1_ps(BiasRow[RowBase + 1]);
    if constexpr (R > 2)
      Acc20 = Acc21 = _mm256_set1_ps(BiasRow[RowBase + 2]);
    if constexpr (R > 3)
      Acc30 = Acc31 = _mm256_set1_ps(BiasRow[RowBase + 3]);
    if constexpr (R > 4)
      Acc40 = Acc41 = _mm256_set1_ps(BiasRow[RowBase + 4]);
    if constexpr (R > 5)
      Acc50 = Acc51 = _mm256_set1_ps(BiasRow[RowBase + 5]);
  }
  const float *AK = A;
  const float *BK = B;
  for (int Kk = 0; Kk < K; ++Kk, AK += KS, BK += BS) {
    __m256 B0 = loadGroup<DirectB>(BK, Mask0);
    __m256 B1 = Z;
    if constexpr (Groups == 2)
      B1 = loadGroup<DirectB>(BK + 8, Mask1);
    fmaRow<Groups>(_mm256_broadcast_ss(AK), B0, B1, Acc00, Acc01);
    if constexpr (R > 1)
      fmaRow<Groups>(_mm256_broadcast_ss(AK + RS), B0, B1, Acc10, Acc11);
    if constexpr (R > 2)
      fmaRow<Groups>(_mm256_broadcast_ss(AK + 2 * RS), B0, B1, Acc20, Acc21);
    if constexpr (R > 3)
      fmaRow<Groups>(_mm256_broadcast_ss(AK + 3 * RS), B0, B1, Acc30, Acc31);
    if constexpr (R > 4)
      fmaRow<Groups>(_mm256_broadcast_ss(AK + 4 * RS), B0, B1, Acc40, Acc41);
    if constexpr (R > 5)
      fmaRow<Groups>(_mm256_broadcast_ss(AK + 5 * RS), B0, B1, Acc50, Acc51);
  }
  float *CRow = C + static_cast<size_t>(RowBase) * Ldc + J0;
  storeRow<Groups>(CRow, Acc00, Acc01, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 1)
    storeRow<Groups>(CRow += Ldc, Acc10, Acc11, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 2)
    storeRow<Groups>(CRow += Ldc, Acc20, Acc21, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 3)
    storeRow<Groups>(CRow += Ldc, Acc30, Acc31, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 4)
    storeRow<Groups>(CRow += Ldc, Acc40, Acc41, Cols, AlphaV, Beta, BetaV);
  if constexpr (R > 5)
    storeRow<Groups>(CRow += Ldc, Acc50, Acc51, Cols, AlphaV, Beta, BetaV);
}

/// The tile instances of one operand layout, indexed by [Groups - 1][R - 1].
template <bool DirectA, bool DirectB> struct TileTable {
  using Fn = decltype(&panelTile<1, 1, DirectA, DirectB>);
  template <int Groups, int... Rs>
  static constexpr std::array<Fn, MR> row(std::integer_sequence<int, Rs...>) {
    return {&panelTile<Rs + 1, Groups, DirectA, DirectB>...};
  }
  static constexpr std::array<Fn, MR> Half =
      row<1>(std::make_integer_sequence<int, MR>());
  static constexpr std::array<Fn, MR> Full =
      row<2>(std::make_integer_sequence<int, MR>());
};

/// Computes the row panels [PanelBegin, PanelEnd) of C against every B
/// panel in one operand layout (see panelTile for what \p A, \p B and the
/// strides mean per layout).
template <bool DirectA, bool DirectB>
void tileRange(int PanelBegin, int PanelEnd, int M, int N, int K,
               float Alpha, const float *A, size_t ARowStride,
               size_t AKStride, const float *B, size_t Ldb, float Beta,
               const float *BiasRow, float *C, int Ldc) {
  assert((!BiasRow || (Alpha == 1.0f && Beta == 0.0f)) &&
         "bias fusion requires a plain C = A*B + bias store");
  using Tiles = TileTable<DirectA, DirectB>;
  const int NPanels = numBPanels(N);
  // B panels on the outside: one K x 16 panel stays L1-resident while every
  // A panel of this thread's range streams past it. The full B panel set can
  // exceed L1 (e.g. 50KB for the CNN stage-2 conv), so the P-outer order
  // would re-stream it once per row panel. Tile order does not change
  // results: each C element is still one k-ascending FMA chain.
  for (int Q = 0; Q < NPanels; ++Q) {
    const int J0 = Q * NR;
    const float *BPan = DirectB ? B + J0 : B + static_cast<size_t>(Q) * K * NR;
    const int Cols = N - J0; // >= 1; may exceed NR on interior panels.
    const auto &Row = Cols <= 8 ? Tiles::Half : Tiles::Full;
    for (int P = PanelBegin; P < PanelEnd; ++P) {
      const int Row0 = P * MR;
      const float *APan = DirectA ? A + Row0 * ARowStride
                                  : A + static_cast<size_t>(P) * K * MR;
      const int Live = M - Row0 < MR ? M - Row0 : MR;
      Row[Live - 1](APan, ARowStride, AKStride, BPan, Ldb, Row0, J0, Cols, K,
                    Alpha, Beta, BiasRow, C, Ldc);
    }
  }
}
} // namespace

void simd::packAPanels(const float *A, int Lda, bool Trans, int M, int K,
                       float *Dst) {
  const int NPanels = numAPanels(M);
  for (int P = 0; P < NPanels; ++P) {
    int Row0 = P * MR;
    int Live = M - Row0 < MR ? M - Row0 : MR;
    float *Pan = Dst + static_cast<size_t>(P) * K * MR;
    if (Live < MR)
      std::memset(Pan, 0, static_cast<size_t>(K) * MR * sizeof(float));
    if (Trans) {
      // op(A)(i, k) = A[k * Lda + i]: stream rows of the stored matrix.
      for (int Kk = 0; Kk < K; ++Kk) {
        const float *Src = A + static_cast<size_t>(Kk) * Lda + Row0;
        float *Out = Pan + static_cast<size_t>(Kk) * MR;
        for (int I = 0; I < Live; ++I)
          Out[I] = Src[I];
      }
    } else {
      for (int I = 0; I < Live; ++I) {
        const float *Src = A + static_cast<size_t>(Row0 + I) * Lda;
        float *Out = Pan + I;
        for (int Kk = 0; Kk < K; ++Kk)
          Out[static_cast<size_t>(Kk) * MR] = Src[Kk];
      }
    }
  }
}

void simd::packBPanels(const float *B, int Ldb, bool Trans, int K, int N,
                       float *Dst) {
  const int NPanels = numBPanels(N);
  for (int Q = 0; Q < NPanels; ++Q) {
    int Col0 = Q * NR;
    int Live = N - Col0 < NR ? N - Col0 : NR;
    float *Pan = Dst + static_cast<size_t>(Q) * K * NR;
    if (Live < NR)
      std::memset(Pan, 0, static_cast<size_t>(K) * NR * sizeof(float));
    if (Trans) {
      // op(B)(k, j) = B[j * Ldb + k]: gather one stored row per column.
      for (int J = 0; J < Live; ++J) {
        const float *Src = B + static_cast<size_t>(Col0 + J) * Ldb;
        float *Out = Pan + J;
        for (int Kk = 0; Kk < K; ++Kk)
          Out[static_cast<size_t>(Kk) * NR] = Src[Kk];
      }
    } else {
      for (int Kk = 0; Kk < K; ++Kk) {
        const float *Src = B + static_cast<size_t>(Kk) * Ldb + Col0;
        float *Out = Pan + static_cast<size_t>(Kk) * NR;
        for (int J = 0; J < Live; ++J)
          Out[J] = Src[J];
      }
    }
  }
}

void simd::microKernelRange(int PanelBegin, int PanelEnd, int M, int N, int K,
                            float Alpha, const float *APanels,
                            const float *BPanels, float Beta,
                            const float *BiasRow, float *C, int Ldc) {
  tileRange<false, false>(PanelBegin, PanelEnd, M, N, K, Alpha, APanels, 0, 0,
                          BPanels, 0, Beta, BiasRow, C, Ldc);
}

void simd::directKernel(int M, int N, int K, float Alpha, const float *A,
                        int Lda, bool TransA, const float *B, int Ldb,
                        bool BPacked, float Beta, float *C, int Ldc) {
  // op(A)(i, k) is A[i * Lda + k], or A[k * Lda + i] when transposed.
  const size_t RowStride = TransA ? 1 : static_cast<size_t>(Lda);
  const size_t KStride = TransA ? static_cast<size_t>(Lda) : 1;
  const int Panels = numAPanels(M);
  if (BPacked)
    tileRange<true, false>(0, Panels, M, N, K, Alpha, A, RowStride, KStride,
                           B, 0, Beta, nullptr, C, Ldc);
  else
    tileRange<true, true>(0, Panels, M, N, K, Alpha, A, RowStride, KStride,
                          B, static_cast<size_t>(Ldb), Beta, nullptr, C, Ldc);
}

namespace {

/// Copies \p N floats with overlapping unaligned vectors instead of memcpy:
/// the im2col row runs are ~OW floats, short enough that libc's dispatch
/// costs more than the copy. Overlapping the tail store rewrites bytes with
/// the same values, which is safe.
inline void copyRun(float *Dst, const float *Src, int N) {
  if (N >= 8) {
    int I = 0;
    for (; I + 8 <= N; I += 8)
      _mm256_storeu_ps(Dst + I, _mm256_loadu_ps(Src + I));
    if (I != N)
      _mm256_storeu_ps(Dst + N - 8, _mm256_loadu_ps(Src + N - 8));
    return;
  }
  if (N >= 4) {
    _mm_storeu_ps(Dst, _mm_loadu_ps(Src));
    if (N != 4)
      _mm_storeu_ps(Dst + N - 4, _mm_loadu_ps(Src + N - 4));
    return;
  }
  for (int I = 0; I < N; ++I)
    Dst[I] = Src[I];
}

} // namespace

void simd::im2colAvx(const float *In, int C, int H, int W, int K, int S,
                     float *Col) {
  int OH = convOutDim(H, K, S), OW = convOutDim(W, K, S);
  assert(OH > 0 && OW > 0 && "convolution input smaller than kernel");
  size_t OutRow = static_cast<size_t>(OH) * OW;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Ky = 0; Ky < K; ++Ky)
      for (int Kx = 0; Kx < K; ++Kx) {
        float *Dst =
            Col + (((static_cast<size_t>(Ch) * K + Ky) * K + Kx) * OutRow);
        const float *Plane =
            In + (static_cast<size_t>(Ch) * H + Ky) * W + Kx;
        for (int Oy = 0; Oy < OH; ++Oy) {
          const float *Src = Plane + static_cast<size_t>(Oy) * S * W;
          if (S == 1) {
            copyRun(Dst, Src, OW);
            Dst += OW;
          } else {
            for (int Ox = 0; Ox < OW; ++Ox)
              *Dst++ = Src[static_cast<size_t>(Ox) * S];
          }
        }
      }
}

//===----------------------------------------------------------------------===//
// Elementwise kernels
//===----------------------------------------------------------------------===//

void simd::reluForwardAvx(float *Y, size_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Y + I, _mm256_max_ps(_mm256_loadu_ps(Y + I), Zero));
  for (; I < N; ++I)
    Y[I] = Y[I] > 0.0f ? Y[I] : 0.0f;
}

void simd::reluBackwardAvx(float *G, const float *X, size_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Mask = _mm256_cmp_ps(_mm256_loadu_ps(X + I), Zero, _CMP_GT_OQ);
    _mm256_storeu_ps(G + I, _mm256_and_ps(_mm256_loadu_ps(G + I), Mask));
  }
  for (; I < N; ++I)
    if (X[I] <= 0.0f)
      G[I] = 0.0f;
}

void simd::biasAddRowsAvx(float *Y, const float *Bias, int Rows, int Cols) {
  for (int R = 0; R < Rows; ++R)
    std::memcpy(Y + static_cast<size_t>(R) * Cols, Bias,
                static_cast<size_t>(Cols) * sizeof(float));
}

double simd::mseBatchAvx(const float *P, const float *T, float *G, int Rows,
                         int Cols) {
  const float InvN = 1.0f / static_cast<float>(Cols);
  const __m256 Scale = _mm256_set1_ps(2.0f * InvN);
  double Loss = 0.0;
  for (int R = 0; R < Rows; ++R) {
    size_t Base = static_cast<size_t>(R) * Cols;
    __m256 Acc = _mm256_setzero_ps();
    int I = 0;
    for (; I + 8 <= Cols; I += 8) {
      __m256 D = _mm256_sub_ps(_mm256_loadu_ps(P + Base + I),
                               _mm256_loadu_ps(T + Base + I));
      _mm256_storeu_ps(G + Base + I, _mm256_mul_ps(Scale, D));
      Acc = _mm256_fmadd_ps(D, D, Acc);
    }
    // Fixed-order lane fold, then the scalar tail — deterministic.
    alignas(32) float Lanes[8];
    _mm256_store_ps(Lanes, Acc);
    float RowSum = ((Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3])) +
                   ((Lanes[4] + Lanes[5]) + (Lanes[6] + Lanes[7]));
    for (; I < Cols; ++I) {
      float D = P[Base + I] - T[Base + I];
      G[Base + I] = 2.0f * InvN * D;
      RowSum += D * D;
    }
    Loss += static_cast<double>(RowSum) * InvN;
  }
  return Loss;
}

void simd::adamUpdateAvx(float *W, float *G, float *M, float *V, size_t N,
                         float Lr, float B1, float B2, float Eps,
                         float InvBias1, float InvBias2, float Scale) {
  const __m256 B1V = _mm256_set1_ps(B1), C1V = _mm256_set1_ps(1.0f - B1);
  const __m256 B2V = _mm256_set1_ps(B2), C2V = _mm256_set1_ps(1.0f - B2);
  const __m256 LrV = _mm256_set1_ps(Lr), EpsV = _mm256_set1_ps(Eps);
  const __m256 IB1 = _mm256_set1_ps(InvBias1), IB2 = _mm256_set1_ps(InvBias2);
  const __m256 ScaleV = _mm256_set1_ps(Scale);
  const __m256 Zero = _mm256_setzero_ps();
  const __m256 AbsMask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 MinNormal = _mm256_set1_ps(FLT_MIN);
  // Zeroes the lanes with |X| < FLT_MIN (NaN lanes compare false and stay).
  auto Flush = [&](__m256 X) {
    __m256 Tiny =
        _mm256_cmp_ps(_mm256_and_ps(X, AbsMask), MinNormal, _CMP_LT_OQ);
    return _mm256_andnot_ps(Tiny, X);
  };
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Gv = _mm256_mul_ps(_mm256_loadu_ps(G + I), ScaleV);
    __m256 Mv = Flush(_mm256_fmadd_ps(B1V, _mm256_loadu_ps(M + I),
                                      _mm256_mul_ps(C1V, Gv)));
    __m256 Vv = Flush(_mm256_fmadd_ps(
        B2V, _mm256_loadu_ps(V + I), _mm256_mul_ps(C2V, _mm256_mul_ps(Gv, Gv))));
    _mm256_storeu_ps(M + I, Mv);
    _mm256_storeu_ps(V + I, Vv);
    __m256 MHat = _mm256_mul_ps(Mv, IB1);
    __m256 VHat = _mm256_mul_ps(Vv, IB2);
    __m256 Denom = _mm256_add_ps(_mm256_sqrt_ps(VHat), EpsV);
    __m256 StepV = _mm256_div_ps(_mm256_mul_ps(LrV, MHat), Denom);
    _mm256_storeu_ps(W + I, _mm256_sub_ps(_mm256_loadu_ps(W + I), StepV));
    _mm256_storeu_ps(G + I, Zero);
  }
  for (; I < N; ++I) {
    float Gs = G[I] * Scale;
    M[I] = B1 * M[I] + (1.0f - B1) * Gs;
    V[I] = B2 * V[I] + (1.0f - B2) * Gs * Gs;
    if (std::fabs(M[I]) < FLT_MIN)
      M[I] = 0.0f;
    if (std::fabs(V[I]) < FLT_MIN)
      V[I] = 0.0f;
    float MHat = M[I] * InvBias1;
    float VHat = V[I] * InvBias2;
    W[I] -= Lr * MHat / (std::sqrt(VHat) + Eps);
    G[I] = 0.0f;
  }
}

#else // !(__AVX2__ && __FMA__)

// Built without AVX2/FMA codegen (non-x86 target or a compiler that rejects
// the flags): the dispatcher reports simdSupported() == false and never
// calls these, but the symbols must still link.

#include <cstdlib>

using namespace au::nn;

namespace {
[[noreturn]] void unreachableSimd() { std::abort(); }
} // namespace

void simd::packAPanels(const float *, int, bool, int, int, float *) {
  unreachableSimd();
}
void simd::packBPanels(const float *, int, bool, int, int, float *) {
  unreachableSimd();
}
void simd::microKernelRange(int, int, int, int, int, float, const float *,
                            const float *, float, const float *, float *,
                            int) {
  unreachableSimd();
}
void simd::directKernel(int, int, int, float, const float *, int, bool,
                        const float *, int, bool, float, float *, int) {
  unreachableSimd();
}
void simd::im2colAvx(const float *, int, int, int, int, int, float *) {
  unreachableSimd();
}
void simd::reluForwardAvx(float *, size_t) { unreachableSimd(); }
void simd::reluBackwardAvx(float *, const float *, size_t) {
  unreachableSimd();
}
void simd::biasAddRowsAvx(float *, const float *, int, int) {
  unreachableSimd();
}
double simd::mseBatchAvx(const float *, const float *, float *, int, int) {
  unreachableSimd();
}
void simd::adamUpdateAvx(float *, float *, float *, float *, size_t, float,
                         float, float, float, float, float, float) {
  unreachableSimd();
}

#endif // __AVX2__ && __FMA__
