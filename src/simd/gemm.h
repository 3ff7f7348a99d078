// SIMD GEMM kernels behind tensor/ops.cc's MatMul / MatMulNT / MatMulTN,
// which share one driver and one rule: when B is rank 2 and op(A)'s rows
// are contiguous, the batch folds into M and the product runs as one
// GemmLowp (if a pack is registered for B) or one Gemm2D (unless it is a
// batched NT); every other product runs GemmRows* per (batch, row-chunk).
// Every row split takes its grain from runtime::Grain.
//
// Two tiers, both writing every output element (safe on Tensor::Uninit
// storage):
//   * row kernels (GemmRows*): register-blocked broadcast-FMA (NN/TN) or
//     lane-accumulator dot (NT) over a row range;
//   * a packed, cache-blocked path (Gemm2D above the threshold): op(B) is
//     packed into kNR-wide zero-padded panels in pool-backed scratch once
//     per K block, op(A) into an MR x KC stack tile, and a register-tiled
//     kMR x kNR FMA microkernel sweeps the panels.
//
// Determinism: for every C element the multiply-accumulate chain is the
// same k-ascending Vec::Fma sequence in both tiers' NN/TN paths — K
// blocking resumes the chain by loading the partial C value back into the
// accumulator, which is exact — so packed and row results are
// bit-identical there, equal to a scalar loop accumulating with
// simd::MulAddRef. The NT dot kernel distributes k across fixed lanes
// instead (pinned bitwise against a mirror of its lane tree). All tails use
// partial vector loads/stores, so results never depend on chunk
// boundaries or thread count. Kernel selection depends only on the shape.

#ifndef STWA_SIMD_GEMM_H_
#define STWA_SIMD_GEMM_H_

#include <cstdint>

#include "simd/simd.h"

namespace stwa {
namespace simd {

/// Register-tile geometry (exposed for the bench/tests).
constexpr int64_t kGemmMR = 6;
constexpr int64_t kGemmNR = 2 * Vec::kWidth;
constexpr int64_t kGemmKC = 512;

/// C[i,:] = A[i,:] @ B for rows i in [i0, i1); A is [m,k], B is [k,n],
/// all row-major contiguous.
void GemmRowsNN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n);

/// C[i,j] = dot(A[i,:], B[j,:]) for rows i in [i0, i1); A is [m,k], B is
/// [n,k] (i.e. C = A @ B^T without materialising the transpose).
void GemmRowsNT(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n);

/// C[i,j] = sum_kk A[kk,i] * B[kk,j] for rows i in [i0, i1); A is [k,m],
/// B is [k,n] (i.e. C = A^T @ B without materialising the transpose).
void GemmRowsTN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t m, int64_t n);

/// True when Gemm2D takes the packed cache-blocked path for this shape.
bool GemmUsesPackedPath(int64_t m, int64_t n, int64_t k);

/// Full parallel 2-D GEMM: C[m,n] = op(A) @ op(B), where op(A) is A[m,k]
/// (or A[k,m] with trans_a) and op(B) is B[k,n] (or B[n,k] with trans_b).
/// Dispatches packed vs row kernels on the shape alone; parallelises
/// internally via runtime::ParallelFor. trans_a && trans_b is unsupported.
void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool trans_a, bool trans_b);

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_GEMM_H_
