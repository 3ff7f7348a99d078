// Non-differentiable tensor kernels.
//
// These free functions implement the numeric operations on raw Tensors; the
// autograd layer (src/autograd) builds differentiable wrappers on top of
// them. All binary elementwise operations support NumPy-style broadcasting
// (shapes aligned from the right; extent-1 dimensions stretch).

#ifndef STWA_TENSOR_OPS_H_
#define STWA_TENSOR_OPS_H_

#include <vector>

#include "common/check.h"
#include "runtime/parallel.h"
#include "simd/simd.h"
#include "tensor/tensor.h"

namespace stwa {
namespace ops {

namespace detail {
/// Vectorized chunk body shared by the map templates: full vectors, then
/// one partial vector for the ragged tail. The tail runs the same lane
/// operations as a full vector (simd.h determinism contract), so results
/// do not depend on where ParallelFor put the chunk boundary.
template <typename Fn>
inline void VecUnaryRange(float* po, const float* pa, int64_t begin,
                          int64_t end, const Fn& fn) {
  constexpr int64_t W = simd::Vec::kWidth;
  int64_t i = begin;
  for (; i + W <= end; i += W) fn(simd::Vec::Load(pa + i)).Store(po + i);
  if (i < end) {
    simd::StorePartial(fn(simd::LoadPartial(pa + i, end - i)), po + i,
                       end - i);
  }
}

template <typename Fn>
inline void VecBinaryRange(float* po, const float* pa, const float* pb,
                           int64_t begin, int64_t end, const Fn& fn) {
  constexpr int64_t W = simd::Vec::kWidth;
  int64_t i = begin;
  for (; i + W <= end; i += W) {
    fn(simd::Vec::Load(pa + i), simd::Vec::Load(pb + i)).Store(po + i);
  }
  if (i < end) {
    const int64_t rem = end - i;
    simd::StorePartial(
        fn(simd::LoadPartial(pa + i, rem), simd::LoadPartial(pb + i, rem)),
        po + i, rem);
  }
}
}  // namespace detail

// --- Templated elementwise maps ----------------------------------------
//
// These compile the functor directly into the loop — no std::function
// type erasure, no per-element indirect call. The named elementwise ops
// below (Exp, Tanh, Add, ...) and the autograd backward closures are built
// on them.
//
// Functors that also provide a Vec overload (simd/vec_math.h) run the Vec
// loop on every tier; plain scalar functors take the scalar loop.

/// out[i] = fn(a[i]). The output buffer is uninitialised (pooled) — every
/// element is written exactly once.
template <typename Fn>
Tensor UnaryMap(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.size(), runtime::kMinChunkWork,
                       [po, pa, &fn](int64_t begin, int64_t end) {
                         if constexpr (simd::kIsVecUnary<Fn>) {
                           detail::VecUnaryRange(po, pa, begin, end, fn);
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             po[i] = fn(pa[i]);
                           }
                         }
                       });
  return out;
}

/// out[i] = fn(a[i], b[i]); same-shape operands only (broadcasting goes
/// through the named ops).
template <typename Fn>
Tensor BinaryMap(const Tensor& a, const Tensor& b, Fn fn) {
  STWA_CHECK(a.shape() == b.shape(), "BinaryMap shape mismatch: ",
             ShapeToString(a.shape()), " vs ", ShapeToString(b.shape()));
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.size(), runtime::kMinChunkWork,
                       [po, pa, pb, &fn](int64_t begin, int64_t end) {
                         if constexpr (simd::kIsVecBinary<Fn>) {
                           detail::VecBinaryRange(po, pa, pb, begin, end,
                                                  fn);
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             po[i] = fn(pa[i], pb[i]);
                           }
                         }
                       });
  return out;
}

/// a[i] = fn(a[i]) in place. The caller must own the buffer exclusively
/// (use_count() == 1) or be updating an explicitly owned grad buffer.
template <typename Fn>
void UnaryMapInPlace(Tensor& a, Fn fn) {
  float* pa = a.data();
  runtime::ParallelFor(0, a.size(), runtime::kMinChunkWork,
                       [pa, &fn](int64_t begin, int64_t end) {
                         if constexpr (simd::kIsVecUnary<Fn>) {
                           detail::VecUnaryRange(pa, pa, begin, end, fn);
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             pa[i] = fn(pa[i]);
                           }
                         }
                       });
}

// --- Shape algebra -----------------------------------------------------

/// Returns the broadcast result shape of `a` and `b`; throws if the shapes
/// are incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

/// Row-major strides of a shape.
std::vector<int64_t> Strides(const Shape& shape);

// --- Elementwise binary (broadcasting) ---------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// --- Elementwise with scalar -------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// --- Elementwise unary --------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

// --- Linear algebra ------------------------------------------------------

/// Batched matrix product [..., m, k] x [..., k, n] -> [..., m, n]. The
/// batch dims broadcast (a rank-2 operand is shared across the other's
/// batch). Each fp32 output element is one k-ascending FMA chain. A
/// rank-2 B with a registered reduced-precision pack (tensor/lowp_cache.h)
/// runs on that pack instead, here, in MatMulNT and in rank-2 MatMulTN.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched a @ b^T without materialising the transpose:
/// [..., m, k] x [..., n, k] -> [..., m, n]. Batch dims broadcast like
/// MatMul. Both operands are read contiguously along k (dot-product form).
/// The k order depends on the route: a rank-2 product above the packed
/// threshold (simd::GemmUsesPackedPath) is one k-ascending FMA chain; every
/// other product, batched ones included, sums k in fixed lane accumulators
/// combined in a fixed tree (simd::GemmRowsNT).
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// Batched a^T @ b without materialising the transpose:
/// [..., k, m] x [..., k, n] -> [..., m, n]. Batch dims broadcast like
/// MatMul; the k accumulation order is ascending. Together with MatMulNT
/// this fuses the two matmul-backward products (dA = g @ B^T, dB = A^T @ g)
/// into single allocation-free-transpose kernels.
Tensor MatMulTN(const Tensor& a, const Tensor& b);

/// Swaps the last two dimensions (materialises a new tensor).
Tensor TransposeLast2(const Tensor& a);

/// General axis permutation; `axes` is a permutation of [0, rank).
Tensor Permute(const Tensor& a, const std::vector<int64_t>& axes);

// --- Reductions ----------------------------------------------------------

/// Sum of all elements (rank-0 result).
Tensor SumAll(const Tensor& a);

/// Mean of all elements (rank-0 result).
Tensor MeanAll(const Tensor& a);

/// Sum over one axis. With keepdims the reduced axis has extent 1,
/// otherwise it is removed.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);

/// Mean over one axis.
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);

/// Max over one axis.
Tensor Max(const Tensor& a, int64_t axis, bool keepdims = false);

/// Index of the max along the last axis (float-valued indices).
Tensor ArgMaxLast(const Tensor& a);

/// Sums `grad` down to `shape` (inverse of broadcasting); used by autograd
/// backward passes. `shape` must be broadcast-compatible with grad's shape.
Tensor ReduceToShape(const Tensor& grad, const Shape& shape);

/// Materialises `a` broadcast up to `shape` (no arithmetic; the inverse
/// direction of ReduceToShape). Used by Sum's backward pass.
Tensor BroadcastTo(const Tensor& a, const Shape& shape);

// --- Softmax -------------------------------------------------------------

/// Numerically stable softmax along the last axis. Fused: the exp and the
/// normalising sum live in the output buffer / a scalar — no intermediate
/// exp/sum tensors are materialised.
Tensor SoftmaxLast(const Tensor& a);

/// Fused softmax backward: dx = y * (g - sum(g * y, last)) in one pass per
/// row, with no intermediate product/sum tensors. `y` is the softmax
/// output, `g` the incoming gradient (same shape).
Tensor SoftmaxLastBackward(const Tensor& y, const Tensor& g);

// --- Structure -----------------------------------------------------------

/// Concatenates tensors along `axis`; all other extents must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Copies the half-open range [start, start+len) of `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len);

/// Stacks equal-shaped tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);

/// Selects rows (axis 0) by index, e.g. embedding lookup.
Tensor IndexSelect0(const Tensor& a, const std::vector<int64_t>& indices);

/// Adds `src` rows into `dst` at the given axis-0 indices (scatter-add).
void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                    const Tensor& src);

// --- In-place / fused accumulation ---------------------------------------
//
// Safety rule (DESIGN.md "Memory management"): in-place kernels may only
// target tensors whose buffer is exclusively owned (use_count() == 1) or
// explicitly owned accumulation buffers (autograd grads, optimizer state).

/// dst += src (same shape required).
void AddInPlace(Tensor& dst, const Tensor& src);

/// dst *= src (same shape required).
void MulInPlace(Tensor& dst, const Tensor& src);

/// dst += s * src (same shape required).
void AxpyInPlace(Tensor& dst, float s, const Tensor& src);

/// dst *= s.
void MulScalarInPlace(Tensor& dst, float s);

/// dst += a * b elementwise (all three the same shape); fuses the
/// product-then-accumulate pattern of multiplicative backward passes
/// without materialising the product.
void AddMulInPlace(Tensor& dst, const Tensor& a, const Tensor& b);

// --- Comparisons / stats --------------------------------------------------

/// Max |a - b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// True when all |a-b| <= atol + rtol*|b| elementwise.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-4f,
              float atol = 1e-5f);

}  // namespace ops
}  // namespace stwa

#endif  // STWA_TENSOR_OPS_H_
