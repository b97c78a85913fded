//===- nn/GemmSimdKernels.h - AVX2/FMA kernel entry points -----*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal interface between the backend dispatcher (Gemm.cpp, compiled for
/// the baseline architecture) and the AVX2/FMA kernel bodies (GemmSimd.cpp,
/// compiled with -mavx2 -mfma). Nothing here may be called unless
/// simdSupported() returned true; the dispatcher guards every call site.
///
/// Panel layouts (MR = 6 rows, NR = 16 columns):
///  * A panels: ceil(M/6) panels of [K][6] — APanels[p][k*6 + r] holds
///    op(A)[p*6 + r][k], zero-padded past row M.
///  * B panels: ceil(N/16) panels of [K][16] — BPanels[q][k*16 + c] holds
///    op(B)[k][q*16 + c], zero-padded past column N.
///
/// One register-tile template serves both the packed path (microKernelRange
/// over A and B panels) and the direct path (directKernel), which reads op(A)
/// and a non-transposed op(B) in place through their strides. Each C element
/// is one k-ascending FMA chain from the same seed through the same store on
/// both paths, so they agree bitwise; the dispatcher picks the direct path
/// for cache-resident products by one size rule (directGemm in Gemm.h).
///
//===----------------------------------------------------------------------===//

#ifndef AU_NN_GEMMSIMDKERNELS_H
#define AU_NN_GEMMSIMDKERNELS_H

#include <cstddef>

namespace au {
namespace nn {
namespace simd {

constexpr int MR = 6;  ///< Micro-tile rows (ymm broadcast operands).
constexpr int NR = 16; ///< Micro-tile columns (two 8-lane ymm vectors).

inline int numAPanels(int M) { return (M + MR - 1) / MR; }
inline int numBPanels(int N) { return (N + NR - 1) / NR; }
inline size_t aPanelsSize(int M, int K) {
  return static_cast<size_t>(numAPanels(M)) * K * MR;
}
inline size_t bPanelsSize(int K, int N) {
  return static_cast<size_t>(numBPanels(N)) * K * NR;
}

/// Packs op(A) (M x K; stored transposed when \p Trans) into A panels.
void packAPanels(const float *A, int Lda, bool Trans, int M, int K,
                 float *Dst);

/// Packs op(B) (K x N; stored transposed when \p Trans) into B panels.
void packBPanels(const float *B, int Ldb, bool Trans, int K, int N,
                 float *Dst);

/// C[Rows x N] = Alpha * panels product + Beta * C for the row-panel range
/// [PanelBegin, PanelEnd). Each C element accumulates k-ascending in a
/// single FMA chain, so results are independent of panel scheduling. When
/// \p BiasRow is non-null the accumulators start at BiasRow[row] instead of
/// zero (the conv-forward epilogue fusion); that path requires Alpha == 1
/// and Beta == 0, matching "fill C with bias, then accumulate on top".
void microKernelRange(int PanelBegin, int PanelEnd, int M, int N, int K,
                      float Alpha, const float *APanels,
                      const float *BPanels, float Beta, const float *BiasRow,
                      float *C, int Ldc);

/// C[M x N] = Alpha * op(A) * op(B) + Beta * C without packing op(A): it is
/// read in place from \p A (row stride \p Lda, transposed per \p TransA).
/// op(B) is read in place from the non-transposed \p B (row stride \p Ldb)
/// with masked loads on the trailing columns, or, when \p BPacked, from the
/// B panels in \p B (\p Ldb unused). Runs on the calling thread; bitwise
/// identical to packAPanels/packBPanels + microKernelRange, and reads no
/// element outside op(A), op(B) and the M x N block of C.
void directKernel(int M, int N, int K, float Alpha, const float *A, int Lda,
                  bool TransA, const float *B, int Ldb, bool BPacked,
                  float Beta, float *C, int Ldc);

/// im2col with inline AVX copies of the stride-1 row runs — bitwise
/// identical output to au::nn::im2col, minus the per-run libc memcpy
/// dispatch (row runs are a dozen floats; the call overhead dominates).
void im2colAvx(const float *In, int C, int H, int W, int K, int S,
               float *Col);

// Elementwise AVX2 bodies (see the dispatched wrappers in Gemm.h).
void reluForwardAvx(float *Y, size_t N);
void reluBackwardAvx(float *G, const float *X, size_t N);
void biasAddRowsAvx(float *Y, const float *Bias, int Rows, int Cols);
double mseBatchAvx(const float *P, const float *T, float *G, int Rows,
                   int Cols);
void adamUpdateAvx(float *W, float *G, float *M, float *V, size_t N, float Lr,
                   float B1, float B2, float Eps, float InvBias1,
                   float InvBias2, float Scale);

} // namespace simd
} // namespace nn
} // namespace au

#endif // AU_NN_GEMMSIMDKERNELS_H
