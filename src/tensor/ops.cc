#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "runtime/parallel.h"
#include "simd/fused.h"
#include "simd/gemm.h"
#include "simd/gemm_lowp.h"
#include "simd/vec_math.h"
#include "tensor/fused_ops.h"
#include "tensor/lowp_cache.h"

namespace stwa {
namespace ops {
namespace {

// Grain sizes below derive from the shared per-chunk work floor.
using runtime::kMinChunkWork;

// SIMD kernels below follow the simd.h determinism contract: ragged tails
// use partial vector loads/stores (never scalar remainder loops), lane
// reductions combine in a fixed tree, and kernel selection depends only
// on the shape — so within one build, results are bit-identical across
// thread counts, pool on/off and plan on/off. Every tier, including the
// 1-lane STWA_NO_SIMD one, runs these same kernels.
using simd::Vec;
constexpr int64_t kVecW = Vec::kWidth;

// Odometer-style iteration over an output shape with per-input strides
// that are zero on broadcast dimensions, split across the worker pool.
// The output is visited one innermost row at a time: fn(out_flat, a_off,
// b_off, len, a_stride, b_stride) handles a whole run, the odometer
// advances once per run instead of once per element, and the caller's
// inner loop sees fixed strides (0 or the innermost stride) so broadcast
// bias-adds vectorise. Element visit order is row-major and every flat
// output index belongs to exactly one chunk, so results match the serial
// loop bit-for-bit at any thread count.
template <typename Fn>
void ForEachBroadcastRuns(const Shape& out_shape,
                          const std::vector<int64_t>& a_strides,
                          const std::vector<int64_t>& b_strides, Fn&& fn) {
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const int64_t total = NumElements(out_shape);
  if (total == 0) return;
  if (rank == 0) {
    fn(0, 0, 0, 1, 0, 0);
    return;
  }
  const int64_t inner = out_shape[rank - 1];
  const int64_t sa = a_strides[rank - 1];
  const int64_t sb = b_strides[rank - 1];
  const int64_t outer = rank - 1;
  const int64_t num_runs = total / std::max<int64_t>(1, inner);
  const int64_t* shape_p = out_shape.data();
  const int64_t* as_p = a_strides.data();
  const int64_t* bs_p = b_strides.data();
  runtime::ParallelFor(
      0, num_runs, runtime::Grain(inner),
      [shape_p, as_p, bs_p, outer, inner, sa, sb, &fn](int64_t r0,
                                                       int64_t r1) {
        std::vector<int64_t> idx(outer, 0);
        int64_t a_off = 0;
        int64_t b_off = 0;
        int64_t rem = r0;
        for (int64_t d = outer - 1; d >= 0; --d) {
          idx[d] = rem % shape_p[d];
          rem /= shape_p[d];
          a_off += idx[d] * as_p[d];
          b_off += idx[d] * bs_p[d];
        }
        for (int64_t r = r0; r < r1; ++r) {
          fn(r * inner, a_off, b_off, inner, sa, sb);
          for (int64_t d = outer - 1; d >= 0; --d) {
            ++idx[d];
            a_off += as_p[d];
            b_off += bs_p[d];
            if (idx[d] < shape_p[d]) break;
            a_off -= as_p[d] * shape_p[d];
            b_off -= bs_p[d] * shape_p[d];
            idx[d] = 0;
          }
        }
      });
}

// Strides of `shape` aligned to `out_rank` dims, with 0 stride where the
// dimension is broadcast (missing or extent 1 against a larger extent).
std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                      const Shape& out_shape) {
  const int64_t out_rank = static_cast<int64_t>(out_shape.size());
  const int64_t rank = static_cast<int64_t>(shape.size());
  std::vector<int64_t> strides = Strides(shape);
  std::vector<int64_t> out(out_rank, 0);
  for (int64_t d = 0; d < rank; ++d) {
    int64_t out_d = out_rank - rank + d;
    if (shape[d] == out_shape[out_d]) {
      out[out_d] = strides[d];
    } else {
      STWA_CHECK(shape[d] == 1, "broadcast mismatch: ", ShapeToString(shape),
                 " vs ", ShapeToString(out_shape));
      out[out_d] = 0;
    }
  }
  return out;
}

// One broadcast run with a constant side: out[j] = fn(row[j], cv) (or
// fn(cv, row[j]) with SwapArgs). Vectorized with a broadcast lane for the
// constant; run boundaries are shape-derived, so tails are deterministic.
template <bool SwapArgs, typename Fn>
inline void VecRunWithConst(float* po, const float* row, float cv,
                            int64_t len, const Fn& fn) {
  const Vec c = Vec::Broadcast(cv);
  int64_t j = 0;
  for (; j + kVecW <= len; j += kVecW) {
    const Vec r = Vec::Load(row + j);
    (SwapArgs ? fn(c, r) : fn(r, c)).Store(po + j);
  }
  if (j < len) {
    const int64_t rem = len - j;
    const Vec r = simd::LoadPartial(row + j, rem);
    simd::StorePartial(SwapArgs ? fn(c, r) : fn(r, c), po + j, rem);
  }
}

template <typename Fn>
Tensor BinaryImpl(const Tensor& a, const Tensor& b, Fn&& fn) {
  using RawFn = std::remove_cvref_t<Fn>;
  constexpr bool kVec = simd::kIsVecBinary<RawFn>;
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninit(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    runtime::ParallelFor(0, a.size(), kMinChunkWork,
                         [po, pa, pb, &fn](int64_t begin, int64_t end) {
                           if constexpr (kVec) {
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
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninit(out_shape);
  auto as = BroadcastStrides(a.shape(), out_shape);
  auto bs = BroadcastStrides(b.shape(), out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ForEachBroadcastRuns(
      out_shape, as, bs,
      [po, pa, pb, &fn](int64_t o, int64_t a0, int64_t b0, int64_t len,
                        int64_t sa, int64_t sb) {
        // Specialise the common stride patterns so the inner loop
        // vectorises: bias-add style (one side constant) and elementwise
        // rows (both advancing). Generic strides stay scalar (arithmetic
        // functors compute identical values either way).
        if (sa == 1 && sb == 0) {
          if constexpr (kVec) {
            VecRunWithConst<false>(po + o, pa + a0, pb[b0], len, fn);
          } else {
            const float bv = pb[b0];
            for (int64_t j = 0; j < len; ++j) po[o + j] = fn(pa[a0 + j], bv);
          }
        } else if (sa == 0 && sb == 1) {
          if constexpr (kVec) {
            VecRunWithConst<true>(po + o, pb + b0, pa[a0], len, fn);
          } else {
            const float av = pa[a0];
            for (int64_t j = 0; j < len; ++j) po[o + j] = fn(av, pb[b0 + j]);
          }
        } else if (sa == 1 && sb == 1) {
          if constexpr (kVec) {
            detail::VecBinaryRange(po + o, pa + a0, pb + b0, 0, len, fn);
          } else {
            for (int64_t j = 0; j < len; ++j) {
              po[o + j] = fn(pa[a0 + j], pb[b0 + j]);
            }
          }
        } else {
          for (int64_t j = 0; j < len; ++j) {
            po[o + j] = fn(pa[a0 + j * sa], pb[b0 + j * sb]);
          }
        }
      });
  return out;
}

template <typename Fn>
Tensor UnaryImpl(const Tensor& a, Fn&& fn) {
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.size(), kMinChunkWork,
                       [po, pa, &fn](int64_t begin, int64_t end) {
                         for (int64_t i = begin; i < end; ++i) {
                           po[i] = fn(pa[i]);
                         }
                       });
  return out;
}

int64_t NormalizeAxis(int64_t axis, int64_t rank) {
  if (axis < 0) axis += rank;
  STWA_CHECK(axis >= 0 && axis < rank, "axis ", axis,
             " out of range for rank ", rank);
  return axis;
}

// Collapses `shape` around `axis` into (outer, extent, inner).
void AxisSplit(const Shape& shape, int64_t axis, int64_t* outer,
               int64_t* extent, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t d = 0; d < axis; ++d) *outer *= shape[d];
  *extent = shape[axis];
  for (int64_t d = axis + 1; d < static_cast<int64_t>(shape.size()); ++d) {
    *inner *= shape[d];
  }
}

// The one matmul driver: out[..., m, n] = op(A) @ op(B), where op
// transposes the last two dims when its flag is set, over broadcast batch
// dims. The route depends only on the shapes and the lowp registry, so
// eager, plan replay and region-parallel replay all dispatch the same way
// on any thread, and every route writes every output element.
//
// When B is rank 2 and op(A)'s rows are contiguous (A is rank 2 or not
// transposed), the batch folds into M: one flat GEMM over batch*m rows.
// That is what routes nn::Linear through the packed fp32 path and the
// reduced-precision hook, and it keeps the bytes of the per-batch row
// kernels because the NN/TN packed and row paths share their k-ascending
// FMA chains (SimdGemmTest pins this). Everything else runs per-(batch,
// row) GemmRows* kernels.
Tensor Product(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  STWA_CHECK(a.rank() >= 2 && b.rank() >= 2,
             "matmul needs rank >= 2 inputs, ", ShapeToString(a.shape()),
             " x ", ShapeToString(b.shape()));
  const int64_t m = a.dim(trans_a ? -1 : -2);
  const int64_t k = a.dim(trans_a ? -2 : -1);
  const int64_t n = b.dim(trans_b ? -2 : -1);
  STWA_CHECK(b.dim(trans_b ? -1 : -2) == k, "inner dimensions mismatch: ",
             ShapeToString(a.shape()), trans_a ? "^T" : "", " x ",
             ShapeToString(b.shape()), trans_b ? "^T" : "");
  const Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  const Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  const Shape batch = BroadcastShapes(a_batch, b_batch);
  const int64_t batch_count = NumElements(batch);
  Shape out_shape(batch.size() + 2);
  std::copy(batch.begin(), batch.end(), out_shape.begin());
  out_shape[batch.size()] = m;
  out_shape[batch.size() + 1] = n;
  Tensor out = Tensor::Uninit(std::move(out_shape));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();

  if (b.rank() == 2 && (a.rank() == 2 || !trans_a)) {
    // Reduced-precision hook: a serving session registered prepacked bf16
    // / int8 panels for this weight operand (tensor/lowp_cache.h).
    if (const auto pack = lowp::Find(pb, k, n, trans_b)) {
      simd::GemmLowp(pa, *pack, po, batch_count * m, trans_a);
      return out;
    }
    // A batched NT stays on the lane kernels below: Gemm2D's packed NT
    // path sums k in one ascending chain, the NT row kernel in a lane
    // tree, so folding it would change the bytes above the packed
    // threshold (ROADMAP item 2).
    if (a.rank() == 2 || !trans_b) {
      simd::Gemm2D(pa, pb, po, batch_count * m, n, k, trans_a, trans_b);
      return out;
    }
  }

  // Per-batch offsets honouring broadcasting over the batch dims.
  const std::vector<int64_t> a_strides = BroadcastStrides(a_batch, batch);
  const std::vector<int64_t> b_strides = BroadcastStrides(b_batch, batch);
  const std::vector<int64_t> batch_strides = Strides(batch);
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const int64_t o_mat = m * n;
  const int64_t* batch_p = batch_strides.data();
  const int64_t* as_p = a_strides.data();
  const int64_t* bs_p = b_strides.data();
  const int64_t batch_rank = static_cast<int64_t>(batch.size());
  // Parallel over the flattened (batch, row) space so small-m batches and
  // single large matrices both load every worker. Pointers and scalars are
  // captured by value to keep them in registers across output stores.
  runtime::ParallelFor(
      0, batch_count * m, runtime::Grain(k * n),
      [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1;) {
          const int64_t bi = r / m;
          const int64_t i0 = r % m;
          const int64_t i1 = std::min(m, i0 + (r1 - r));
          int64_t a_off = 0;
          int64_t b_off = 0;
          int64_t rem = bi;
          for (int64_t d = 0; d < batch_rank; ++d) {
            int64_t coord = rem / batch_p[d];
            rem %= batch_p[d];
            a_off += coord * as_p[d];
            b_off += coord * bs_p[d];
          }
          const float* ab = pa + a_off * a_mat;
          const float* bb = pb + b_off * b_mat;
          float* ob = po + bi * o_mat;
          if (trans_a) {
            simd::GemmRowsTN(ab, bb, ob, i0, i1, k, m, n);
          } else if (trans_b) {
            simd::GemmRowsNT(ab, bb, ob, i0, i1, k, n);
          } else {
            simd::GemmRowsNN(ab, bb, ob, i0, i1, k, n);
          }
          r += i1 - i0;
        }
      });
  return out;
}

}  // namespace

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int64_t d = 0; d < rank; ++d) {
    int64_t ad = d >= rank - static_cast<int64_t>(a.size())
                     ? a[d - (rank - a.size())]
                     : 1;
    int64_t bd = d >= rank - static_cast<int64_t>(b.size())
                     ? b[d - (rank - b.size())]
                     : 1;
    STWA_CHECK(ad == bd || ad == 1 || bd == 1, "cannot broadcast ",
               ShapeToString(a), " with ", ShapeToString(b));
    out[d] = std::max(ad, bd);
  }
  return out;
}

std::vector<int64_t> Strides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (int64_t d = static_cast<int64_t>(shape.size()) - 1; d >= 0; --d) {
    strides[d] = acc;
    acc *= shape[d];
  }
  return strides;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::AddOp{});
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::SubOp{});
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MulOp{});
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::DivOp{});
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MaxOp{});
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MinOp{});
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryMap(a, simd::AddScalarOp{s});
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryMap(a, simd::MulScalarOp{s});
}

Tensor Neg(const Tensor& a) { return UnaryMap(a, simd::NegOp{}); }
Tensor Exp(const Tensor& a) { return UnaryMap(a, simd::ExpOp{}); }
Tensor Log(const Tensor& a) {
  // No vectorized log polynomial yet; stays scalar on every build.
  return UnaryImpl(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) { return UnaryMap(a, simd::SqrtOp{}); }
Tensor Abs(const Tensor& a) { return UnaryMap(a, simd::AbsOp{}); }
Tensor Square(const Tensor& a) { return UnaryMap(a, simd::SquareOp{}); }
Tensor Tanh(const Tensor& a) { return UnaryMap(a, simd::TanhOp{}); }
Tensor Sigmoid(const Tensor& a) { return UnaryMap(a, simd::SigmoidOp{}); }
Tensor Relu(const Tensor& a) { return UnaryMap(a, simd::ReluOp{}); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Product(a, b, /*trans_a=*/false, /*trans_b=*/false);
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  return Product(a, b, /*trans_a=*/false, /*trans_b=*/true);
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  return Product(a, b, /*trans_a=*/true, /*trans_b=*/false);
}

Tensor TransposeLast2(const Tensor& a) {
  STWA_CHECK(a.rank() >= 2, "TransposeLast2 needs rank >= 2");
  std::vector<int64_t> axes(a.rank());
  for (int64_t d = 0; d < a.rank(); ++d) axes[d] = d;
  std::swap(axes[a.rank() - 1], axes[a.rank() - 2]);
  return Permute(a, axes);
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& axes) {
  const int64_t rank = a.rank();
  STWA_CHECK(static_cast<int64_t>(axes.size()) == rank,
             "Permute axes rank mismatch");
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  for (int64_t d = 0; d < rank; ++d) {
    STWA_CHECK(axes[d] >= 0 && axes[d] < rank && !seen[axes[d]],
               "invalid permutation");
    seen[axes[d]] = true;
    out_shape[d] = a.shape()[axes[d]];
  }
  Tensor out = Tensor::Uninit(out_shape);
  if (a.size() == 0) return out;
  std::vector<int64_t> in_strides = Strides(a.shape());
  // stride in the input for each output axis
  std::vector<int64_t> strides(rank);
  for (int64_t d = 0; d < rank; ++d) strides[d] = in_strides[axes[d]];
  const float* pa = a.data();
  float* po = out.data();

  // Collapse the trailing output axes that are contiguous in the input
  // into a single run: one memcpy per run replaces the per-element
  // odometer (the dominant cost for the [0,2,1,3]-style permutes window
  // attention performs on every head).
  int64_t run = 1;
  int64_t outer = rank;
  while (outer > 0 && strides[outer - 1] == run) {
    run *= out_shape[outer - 1];
    --outer;
  }
  if (outer == 0) {  // input already laid out in output order
    std::copy(pa, pa + a.size(), po);
    return out;
  }
  // Without a contiguous tail, runs still cover the last axis with a
  // fixed stride — a strided gather loop, but no odometer per element.
  const int64_t inner = run > 1 ? run : out_shape[rank - 1];
  const int64_t inner_stride = run > 1 ? 1 : strides[rank - 1];
  if (run == 1) outer = rank - 1;
  const int64_t num_runs = a.size() / inner;
  const int64_t* shape_p = out_shape.data();
  const int64_t* strides_p = strides.data();
  runtime::ParallelFor(
      0, num_runs, runtime::Grain(inner),
      [=](int64_t r0, int64_t r1) {
        std::vector<int64_t> idx(outer, 0);
        int64_t in_off = 0;
        int64_t rem = r0;
        for (int64_t d = outer - 1; d >= 0; --d) {
          idx[d] = rem % shape_p[d];
          rem /= shape_p[d];
          in_off += idx[d] * strides_p[d];
        }
        for (int64_t r = r0; r < r1; ++r) {
          float* dst = po + r * inner;
          const float* src = pa + in_off;
          if (inner_stride == 1) {
            std::memcpy(dst, src, sizeof(float) * inner);
          } else {
            for (int64_t j = 0; j < inner; ++j) {
              dst[j] = src[j * inner_stride];
            }
          }
          for (int64_t d = outer - 1; d >= 0; --d) {
            ++idx[d];
            in_off += strides_p[d];
            if (idx[d] < shape_p[d]) break;
            in_off -= strides_p[d] * shape_p[d];
            idx[d] = 0;
          }
        }
      });
  return out;
}

Tensor SumAll(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += p[i];
  Tensor out(Shape{});
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  STWA_CHECK(a.size() > 0, "MeanAll of empty tensor");
  Tensor s = SumAll(a);
  s.data()[0] /= static_cast<float>(a.size());
  return s;
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  Shape out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  // Parallel over `outer` slices: each output element is reduced by one
  // chunk. inner > 1 vectorizes across the inner axis keeping the exact
  // ascending-e per-element order of the serial loop; inner == 1 (last
  // axis) uses fixed lane accumulators over the extent (zero pad lanes
  // are the add identity), deterministic but lane-split, so its low-order
  // bits depend on the tier's lane count.
  const bool vec_last = inner == 1 && extent >= kVecW;
  runtime::ParallelFor(
      0, outer, runtime::Grain(extent * inner + 1),
      [=](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
          if (vec_last) {
            const float* src = pa + o * extent;
            Vec acc = Vec::Zero();
            int64_t e = 0;
            for (; e + kVecW <= extent; e += kVecW) {
              acc = acc + Vec::Load(src + e);
            }
            if (e < extent) {
              acc = acc + simd::LoadPartial(src + e, extent - e);
            }
            po[o] = simd::ReduceAdd(acc);
            continue;
          }
          for (int64_t e = 0; e < extent; ++e) {
            const float* src = pa + (o * extent + e) * inner;
            float* dst = po + o * inner;
            if (inner > 1) {
              detail::VecBinaryRange(dst, dst, src, 0, inner, simd::AddOp{});
              continue;
            }
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
      });
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  Tensor s = Sum(a, axis, keepdims);
  const float inv = 1.0f / static_cast<float>(a.shape()[axis]);
  float* p = s.data();
  for (int64_t i = 0; i < s.size(); ++i) p[i] *= inv;
  return s;
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  STWA_CHECK(extent > 0, "Max over empty axis");
  Shape out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out(out_shape, -std::numeric_limits<float>::infinity());
  const float* pa = a.data();
  float* po = out.data();
  // Same split as Sum: vector-across-inner keeps the serial per-element
  // order (max is exact either way); last-axis rows use lane maxima with
  // -inf pad lanes.
  const bool vec_last = inner == 1 && extent >= kVecW;
  runtime::ParallelFor(
      0, outer, runtime::Grain(extent * inner + 1),
      [=](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
          if (vec_last) {
            const float* src = pa + o * extent;
            Vec acc = Vec::Broadcast(-std::numeric_limits<float>::infinity());
            int64_t e = 0;
            for (; e + kVecW <= extent; e += kVecW) {
              acc = Vec::Max(acc, Vec::Load(src + e));
            }
            if (e < extent) {
              acc = Vec::Max(
                  acc, simd::LoadPartial(
                           src + e, extent - e,
                           -std::numeric_limits<float>::infinity()));
            }
            po[o] = simd::ReduceMax(acc);
            continue;
          }
          for (int64_t e = 0; e < extent; ++e) {
            const float* src = pa + (o * extent + e) * inner;
            float* dst = po + o * inner;
            if (inner > 1) {
              detail::VecBinaryRange(dst, dst, src, 0, inner, simd::MaxOp{});
              continue;
            }
            for (int64_t i = 0; i < inner; ++i) {
              dst[i] = std::max(dst[i], src[i]);
            }
          }
        }
      });
  return out;
}

Tensor ArgMaxLast(const Tensor& a) {
  STWA_CHECK(a.rank() >= 1, "ArgMaxLast needs rank >= 1");
  const int64_t last = a.dim(-1);
  STWA_CHECK(last > 0, "ArgMaxLast over empty axis");
  const int64_t rows = a.size() / last;
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * last;
    int64_t best = 0;
    for (int64_t j = 1; j < last; ++j) {
      if (row[j] > row[best]) best = j;
    }
    po[r] = static_cast<float>(best);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& grad, const Shape& shape) {
  if (grad.shape() == shape) return grad;
  // Align target shape to grad rank with leading 1s, sum where target is 1
  // or missing, then reshape to the target.
  const int64_t grank = grad.rank();
  const int64_t trank = static_cast<int64_t>(shape.size());
  Tensor cur = grad;
  // Sum away extra leading axes.
  for (int64_t d = 0; d < grank - trank; ++d) cur = Sum(cur, 0, false);
  // Sum broadcast (extent-1) axes, keeping dims.
  for (int64_t d = 0; d < trank; ++d) {
    if (shape[d] == 1 && cur.shape()[d] != 1) {
      cur = Sum(cur, d, /*keepdims=*/true);
    } else {
      STWA_CHECK(shape[d] == cur.shape()[d], "ReduceToShape mismatch: ",
                 ShapeToString(grad.shape()), " -> ", ShapeToString(shape));
    }
  }
  return cur.Reshape(shape);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a;
  STWA_CHECK(BroadcastShapes(a.shape(), shape) == shape,
             "cannot broadcast ", ShapeToString(a.shape()), " to ",
             ShapeToString(shape));
  Tensor out = Tensor::Uninit(shape);
  if (out.size() == 0) return out;
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), shape);
  const std::vector<int64_t> zero(shape.size(), 0);
  const float* pa = a.data();
  float* po = out.data();
  ForEachBroadcastRuns(
      shape, a_strides, zero,
      [po, pa](int64_t o, int64_t a0, int64_t, int64_t len, int64_t sa,
               int64_t) {
        if (sa == 1) {
          std::memcpy(po + o, pa + a0, sizeof(float) * len);
        } else if (sa == 0) {
          std::fill(po + o, po + o + len, pa[a0]);
        } else {
          for (int64_t j = 0; j < len; ++j) po[o + j] = pa[a0 + j * sa];
        }
      });
  return out;
}

// Per-row softmax body shared by SoftmaxLast and FusedAttention: rows are
// independent, so a range [r0, r1) computes the same bits regardless of
// which caller (or worker) runs it. In-place safe (src == dst): every
// element is read before its slot is overwritten. `vec_rows` must be the
// shape-only decision `last >= kVecW`.
static void SoftmaxRowRange(const float* pa, float* po, int64_t r0,
                            int64_t r1, int64_t last, bool vec_rows) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* src = pa + r * last;
    float* dst = po + r * last;
    if (vec_rows) {
      // Row max: -inf pad lanes are the max identity.
      Vec vmax = Vec::Broadcast(-std::numeric_limits<float>::infinity());
      int64_t j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        vmax = Vec::Max(vmax, Vec::Load(src + j));
      }
      if (j < last) {
        vmax = Vec::Max(
            vmax, simd::LoadPartial(
                      src + j, last - j,
                      -std::numeric_limits<float>::infinity()));
      }
      const float mx = simd::ReduceMax(vmax);
      // exp and the row sum in one sweep; tail pad lanes hold
      // exp(0 - mx) garbage, so they are masked to the add
      // identity before accumulating (and never stored).
      const Vec vmx = Vec::Broadcast(mx);
      Vec vsum = Vec::Zero();
      j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        const Vec e = simd::ExpV(Vec::Load(src + j) - vmx);
        e.Store(dst + j);
        vsum = vsum + e;
      }
      if (j < last) {
        const int64_t rem = last - j;
        const Vec e = simd::ExpV(simd::LoadPartial(src + j, rem) - vmx);
        simd::StorePartial(e, dst + j, rem);
        vsum = vsum + simd::MaskFirstN(e, rem);
      }
      const Vec vinv = Vec::Broadcast(1.0f / simd::ReduceAdd(vsum));
      j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        (Vec::Load(dst + j) * vinv).Store(dst + j);
      }
      if (j < last) {
        simd::StorePartial(simd::LoadPartial(dst + j, last - j) * vinv,
                           dst + j, last - j);
      }
    } else {
      float mx = src[0];
      for (int64_t j = 1; j < last; ++j) mx = std::max(mx, src[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < last; ++j) {
        dst[j] = std::exp(src[j] - mx);
        sum += dst[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < last; ++j) dst[j] *= inv;
    }
  }
}

Tensor SoftmaxLast(const Tensor& a) {
  STWA_CHECK(a.rank() >= 1, "SoftmaxLast needs rank >= 1");
  const int64_t last = a.dim(-1);
  STWA_CHECK(last > 0, "SoftmaxLast over empty axis");
  const int64_t rows = a.size() / last;
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  // Vector path only when a row holds at least one full vector: window
  // attention softmaxes rows of 2-3 where the scalar loop wins. The choice
  // depends only on the shape, so it is deterministic.
  const bool vec_rows = last >= kVecW;
  runtime::ParallelFor(
      0, rows, runtime::Grain(4 * last),
      [=](int64_t r0, int64_t r1) {
        SoftmaxRowRange(pa, po, r0, r1, last, vec_rows);
      });
  return out;
}

Tensor SoftmaxLastBackward(const Tensor& y, const Tensor& g) {
  STWA_CHECK(y.shape() == g.shape(), "SoftmaxLastBackward shape mismatch: ",
             ShapeToString(y.shape()), " vs ", ShapeToString(g.shape()));
  STWA_CHECK(y.rank() >= 1, "SoftmaxLastBackward needs rank >= 1");
  const int64_t last = y.dim(-1);
  STWA_CHECK(last > 0, "SoftmaxLastBackward over empty axis");
  const int64_t rows = y.size() / last;
  Tensor out = Tensor::Uninit(y.shape());
  const float* py = y.data();
  const float* pg = g.data();
  float* po = out.data();
  // Scalar path: row-serial accumulation in ascending j order,
  // bit-identical to the unfused Mul/Sum/Sub/Mul composition it replaces.
  // Vector path (rows of at least one full vector): fixed lane
  // accumulators for s — zero pad lanes contribute fma(0, 0, acc) == acc
  // exactly, so the ragged tail needs no mask.
  const bool vec_rows = last >= kVecW;
  runtime::ParallelFor(
      0, rows, runtime::Grain(4 * last),
      [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* yr = py + r * last;
          const float* gr = pg + r * last;
          float* dst = po + r * last;
          if (vec_rows) {
            Vec vs = Vec::Zero();
            int64_t j = 0;
            for (; j + kVecW <= last; j += kVecW) {
              vs = Vec::Fma(Vec::Load(gr + j), Vec::Load(yr + j), vs);
            }
            if (j < last) {
              const int64_t rem = last - j;
              vs = Vec::Fma(simd::LoadPartial(gr + j, rem),
                            simd::LoadPartial(yr + j, rem), vs);
            }
            const Vec s = Vec::Broadcast(simd::ReduceAdd(vs));
            j = 0;
            for (; j + kVecW <= last; j += kVecW) {
              (Vec::Load(yr + j) * (Vec::Load(gr + j) - s)).Store(dst + j);
            }
            if (j < last) {
              const int64_t rem = last - j;
              simd::StorePartial(simd::LoadPartial(yr + j, rem) *
                                     (simd::LoadPartial(gr + j, rem) - s),
                                 dst + j, rem);
            }
          } else {
            float s = 0.0f;
            for (int64_t j = 0; j < last; ++j) s += gr[j] * yr[j];
            for (int64_t j = 0; j < last; ++j) dst[j] = yr[j] * (gr[j] - s);
          }
        }
      });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  STWA_CHECK(!parts.empty(), "Concat of zero tensors");
  const int64_t rank = parts[0].rank();
  axis = NormalizeAxis(axis, rank);
  Shape out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& t : parts) {
    STWA_CHECK(t.rank() == rank, "Concat rank mismatch");
    for (int64_t d = 0; d < rank; ++d) {
      if (d != axis) {
        STWA_CHECK(t.shape()[d] == out_shape[d],
                   "Concat shape mismatch on dim ", d);
      }
    }
    total_axis += t.shape()[axis];
  }
  out_shape[axis] = total_axis;
  Tensor out = Tensor::Uninit(out_shape);
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(out_shape, axis, &outer, &extent, &inner);
  float* po = out.data();
  int64_t axis_offset = 0;
  for (const Tensor& t : parts) {
    const int64_t t_extent = t.shape()[axis];
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * extent + axis_offset) * inner,
                  pt + o * t_extent * inner,
                  sizeof(float) * t_extent * inner);
    }
    axis_offset += t_extent;
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  axis = NormalizeAxis(axis, a.rank());
  STWA_CHECK(start >= 0 && len >= 0 && start + len <= a.shape()[axis],
             "Slice range [", start, ", ", start + len,
             ") out of bounds for extent ", a.shape()[axis]);
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  Shape out_shape = a.shape();
  out_shape[axis] = len;
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * len * inner, pa + (o * extent + start) * inner,
                sizeof(float) * len * inner);
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  STWA_CHECK(!parts.empty(), "Stack of zero tensors");
  for (const Tensor& t : parts) {
    STWA_CHECK(t.shape() == parts[0].shape(), "Stack shape mismatch");
  }
  Shape out_shape = parts[0].shape();
  out_shape.insert(out_shape.begin(),
                   static_cast<int64_t>(parts.size()));
  Tensor out = Tensor::Uninit(out_shape);
  float* po = out.data();
  const int64_t each = parts[0].size();
  for (size_t i = 0; i < parts.size(); ++i) {
    std::memcpy(po + i * each, parts[i].data(), sizeof(float) * each);
  }
  return out;
}

Tensor IndexSelect0(const Tensor& a, const std::vector<int64_t>& indices) {
  STWA_CHECK(a.rank() >= 1, "IndexSelect0 needs rank >= 1");
  const int64_t rows = a.dim(0);
  const int64_t row_size = rows == 0 ? 0 : a.size() / rows;
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<int64_t>(indices.size());
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STWA_CHECK(r >= 0 && r < rows, "index ", r, " out of range [0, ", rows,
               ")");
    std::memcpy(po + i * row_size, pa + r * row_size,
                sizeof(float) * row_size);
  }
  return out;
}

void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  STWA_CHECK(dst.rank() >= 1 && src.rank() >= 1, "rank >= 1 required");
  const int64_t rows = dst.dim(0);
  const int64_t row_size = rows == 0 ? 0 : dst.size() / rows;
  STWA_CHECK(src.dim(0) == static_cast<int64_t>(indices.size()),
             "ScatterAddRows row count mismatch");
  STWA_CHECK(src.size() == row_size * src.dim(0),
             "ScatterAddRows row size mismatch");
  const float* ps = src.data();
  float* pd = dst.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STWA_CHECK(r >= 0 && r < rows, "index ", r, " out of range");
    const float* srow = ps + i * row_size;
    float* drow = pd + r * row_size;
    for (int64_t j = 0; j < row_size; ++j) drow[j] += srow[j];
  }
}

void AddInPlace(Tensor& dst, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "AddInPlace shape mismatch: ",
             ShapeToString(dst.shape()), " vs ", ShapeToString(src.shape()));
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(0, dst.size(), kMinChunkWork,
                       [pd, ps](int64_t begin, int64_t end) {
                         detail::VecBinaryRange(pd, pd, ps, begin, end,
                                                simd::AddOp{});
                       });
}

void AxpyInPlace(Tensor& dst, float s, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "AxpyInPlace shape mismatch");
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(
      0, dst.size(), kMinChunkWork, [pd, ps, s](int64_t begin, int64_t end) {
        const Vec vs = Vec::Broadcast(s);
        int64_t i = begin;
        for (; i + kVecW <= end; i += kVecW) {
          Vec::Fma(vs, Vec::Load(ps + i), Vec::Load(pd + i)).Store(pd + i);
        }
        if (i < end) {
          const int64_t rem = end - i;
          simd::StorePartial(Vec::Fma(vs, simd::LoadPartial(ps + i, rem),
                                      simd::LoadPartial(pd + i, rem)),
                             pd + i, rem);
        }
      });
}

void MulInPlace(Tensor& dst, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "MulInPlace shape mismatch: ",
             ShapeToString(dst.shape()), " vs ", ShapeToString(src.shape()));
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(0, dst.size(), kMinChunkWork,
                       [pd, ps](int64_t begin, int64_t end) {
                         detail::VecBinaryRange(pd, pd, ps, begin, end,
                                                simd::MulOp{});
                       });
}

void MulScalarInPlace(Tensor& dst, float s) {
  UnaryMapInPlace(dst, simd::MulScalarOp{s});
}

void AddMulInPlace(Tensor& dst, const Tensor& a, const Tensor& b) {
  STWA_CHECK(dst.shape() == a.shape() && dst.shape() == b.shape(),
             "AddMulInPlace shape mismatch: ", ShapeToString(dst.shape()),
             " vs ", ShapeToString(a.shape()), " vs ",
             ShapeToString(b.shape()));
  float* pd = dst.data();
  const float* pa = a.data();
  const float* pb = b.data();
  runtime::ParallelFor(
      0, dst.size(), kMinChunkWork, [pd, pa, pb](int64_t begin, int64_t end) {
        int64_t i = begin;
        for (; i + kVecW <= end; i += kVecW) {
          Vec::Fma(Vec::Load(pa + i), Vec::Load(pb + i), Vec::Load(pd + i))
              .Store(pd + i);
        }
        if (i < end) {
          const int64_t rem = end - i;
          simd::StorePartial(Vec::Fma(simd::LoadPartial(pa + i, rem),
                                      simd::LoadPartial(pb + i, rem),
                                      simd::LoadPartial(pd + i, rem)),
                             pd + i, rem);
        }
      });
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  STWA_CHECK(a.shape() == b.shape(), "MaxAbsDiff shape mismatch");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

// --- Fused kernels (plan-rewrite targets; see tensor/fused_ops.h) --------

namespace {

/// Decoded stage of a fused chain, with the side pointer resolved.
struct FusedStageRT {
  simd::FusedOp op;
  const float* side = nullptr;  // null for unary/scalar stages
  float scalar = 0.0f;
  bool swapped = false;
  bool side_full = false;  // full-shape side (false: broadcast run)
};

/// True when `side` is `out` or a non-empty exact suffix of it (the
/// rewriter's SideFusible contract).
bool FusedSideShapeOk(const Shape& side, const Shape& out) {
  if (side == out) return true;
  if (side.empty() || side.size() >= out.size()) return false;
  const size_t off = out.size() - side.size();
  for (size_t i = 0; i < side.size(); ++i) {
    if (side[i] != out[i + off]) return false;
  }
  return true;
}

}  // namespace

Tensor FusedMap(const Tensor& head, const std::vector<Tensor>& sides,
                const std::vector<int64_t>& program,
                const std::vector<float>& scalars) {
  STWA_CHECK(program.size() % 3 == 0, "FusedMap program not triples: ",
             program.size());
  const size_t n_stages = program.size() / 3;
  STWA_CHECK(scalars.size() == n_stages, "FusedMap scalar count ",
             scalars.size(), " != stage count ", n_stages);
  // Sides are either full-shape or one common exact-suffix "run" (the bias
  // pattern); the rewriter guarantees a single run length per chain.
  int64_t run = head.size();
  for (const Tensor& s : sides) {
    STWA_CHECK(FusedSideShapeOk(s.shape(), head.shape()),
               "FusedMap side shape ", ShapeToString(s.shape()),
               " is neither the head shape ", ShapeToString(head.shape()),
               " nor a suffix of it");
    if (s.size() != head.size()) {
      STWA_CHECK(run == head.size() || run == s.size(),
                 "FusedMap broadcast sides disagree on run length: ", run,
                 " vs ", s.size());
      run = s.size();
    }
  }
  std::vector<FusedStageRT> stages(n_stages);
  for (size_t s = 0; s < n_stages; ++s) {
    const auto op = static_cast<simd::FusedOp>(program[3 * s]);
    const int64_t slot = program[3 * s + 1];
    STWA_CHECK(static_cast<int64_t>(op) >= 0 &&
                   op < simd::FusedOp::kCount,
               "FusedMap bad opcode ", program[3 * s]);
    if (simd::FusedOpIsBinary(op)) {
      STWA_CHECK(slot >= 0 && slot < static_cast<int64_t>(sides.size()),
                 "FusedMap side slot ", slot, " out of range");
      stages[s].side = sides[slot].data();
      stages[s].side_full = sides[slot].size() == head.size();
    } else {
      STWA_CHECK(slot < 0, "FusedMap unary stage with a side slot");
    }
    stages[s].op = op;
    stages[s].scalar = scalars[s];
    stages[s].swapped = program[3 * s + 2] != 0;
  }

  Tensor out = Tensor::Uninit(head.shape());
  const int64_t size = head.size();
  if (size == 0) return out;
  const float* ph = head.data();
  float* po = out.data();
  const FusedStageRT* st = stages.data();
  const int64_t count = static_cast<int64_t>(n_stages);
  // Each chunk does `count` op-equivalents per element; keep the
  // per-chunk work near the shared floor.
  if (run == size) {
    const int64_t grain = runtime::Grain(count);
    runtime::ParallelFor(
        0, size, grain, [=](int64_t begin, int64_t end) {
          int64_t i = begin;
          for (; i + kVecW <= end; i += kVecW) {
            Vec x = Vec::Load(ph + i);
            for (int64_t s = 0; s < count; ++s) {
              const Vec side = st[s].side != nullptr
                                   ? Vec::Load(st[s].side + i)
                                   : Vec::Zero();
              x = simd::FusedApply(st[s].op, x, side, st[s].scalar,
                                   st[s].swapped);
            }
            x.Store(po + i);
          }
          if (i < end) {
            const int64_t rem = end - i;
            Vec x = simd::LoadPartial(ph + i, rem);
            for (int64_t s = 0; s < count; ++s) {
              const Vec side = st[s].side != nullptr
                                   ? simd::LoadPartial(st[s].side + i, rem)
                                   : Vec::Zero();
              x = simd::FusedApply(st[s].op, x, side, st[s].scalar,
                                   st[s].swapped);
            }
            simd::StorePartial(x, po + i, rem);
          }
        });
    return out;
  }

  // Broadcast path: rows of length `run`; full-shape sides stream with the
  // head while suffix sides restart at every row. Lane grouping differs
  // from the flat path only in where vector blocks fall — every op is
  // lane-independent, so per-element results match the eager broadcast.
  const int64_t rows = size / run;
  const int64_t row_grain = runtime::Grain(count * run);
  runtime::ParallelFor(0, rows, row_grain, [=](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t base = r * run;
      int64_t j = 0;
      for (; j + kVecW <= run; j += kVecW) {
        Vec x = Vec::Load(ph + base + j);
        for (int64_t s = 0; s < count; ++s) {
          const Vec side =
              st[s].side != nullptr
                  ? Vec::Load(st[s].side + (st[s].side_full ? base : 0) + j)
                  : Vec::Zero();
          x = simd::FusedApply(st[s].op, x, side, st[s].scalar,
                               st[s].swapped);
        }
        x.Store(po + base + j);
      }
      if (j < run) {
        const int64_t rem = run - j;
        Vec x = simd::LoadPartial(ph + base + j, rem);
        for (int64_t s = 0; s < count; ++s) {
          const Vec side =
              st[s].side != nullptr
                  ? simd::LoadPartial(
                        st[s].side + (st[s].side_full ? base : 0) + j, rem)
                  : Vec::Zero();
          x = simd::FusedApply(st[s].op, x, side, st[s].scalar,
                               st[s].swapped);
        }
        simd::StorePartial(x, po + base + j, rem);
      }
    }
  });
  return out;
}

Tensor FusedAttention(const Tensor& q, const Tensor& kt, const Tensor& v,
                      float scale) {
  const int64_t rank = q.rank();
  STWA_CHECK(rank >= 2 && kt.rank() == rank && v.rank() == rank,
             "FusedAttention rank mismatch: ", ShapeToString(q.shape()),
             " / ", ShapeToString(kt.shape()), " / ",
             ShapeToString(v.shape()));
  const int64_t m = q.dim(-2);
  const int64_t k = q.dim(-1);
  const int64_t n = kt.dim(-1);
  const int64_t d = v.dim(-1);
  STWA_CHECK(kt.dim(-2) == k && v.dim(-2) == n,
             "FusedAttention inner dims mismatch: ",
             ShapeToString(q.shape()), " / ", ShapeToString(kt.shape()),
             " / ", ShapeToString(v.shape()));
  Shape batch(q.shape().begin(), q.shape().end() - 2);
  STWA_CHECK(Shape(kt.shape().begin(), kt.shape().end() - 2) == batch &&
                 Shape(v.shape().begin(), v.shape().end() - 2) == batch,
             "FusedAttention batch dims must be equal (the rewriter only "
             "fuses such quads)");
  const int64_t batch_count = NumElements(batch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(d);
  // The NN row kernel writes every element, as in the unfused batched
  // MatMul.
  Tensor out = Tensor::Uninit(out_shape);
  if (out.size() == 0) return out;

  const float* pq = q.data();
  const float* pk = kt.data();
  const float* pv = v.data();
  float* po = out.data();
  const int64_t q_mat = m * k;
  const int64_t k_mat = k * n;
  const int64_t v_mat = n * d;
  const int64_t o_mat = m * d;
  // Same shape-only row decision as the standalone SoftmaxLast.
  const bool vec_rows = n >= kVecW;
  // One slice = both GEMMs + scale + softmax worth of work.
  const int64_t grain = runtime::Grain(m * n * (k + d + 4));
  runtime::ParallelFor(
      0, batch_count, grain, [=](int64_t b0, int64_t b1) {
        // Per-chunk pooled score scratch, recycled across the slices of
        // the chunk. The full [batch, m, n] score tensor never exists.
        Tensor scores = Tensor::Uninit(Shape{m, n});
        float* ps = scores.data();
        for (int64_t b = b0; b < b1; ++b) {
          const float* qs = pq + b * q_mat;
          const float* ks = pk + b * k_mat;
          const float* vs = pv + b * v_mat;
          float* os = po + b * o_mat;
          simd::GemmRowsNN(qs, ks, ps, 0, m, k, n);
          // Scale in place with the standalone MulScalar map's body.
          detail::VecUnaryRange(ps, ps, 0, m * n, simd::MulScalarOp{scale});
          SoftmaxRowRange(ps, ps, 0, m, n, vec_rows);
          simd::GemmRowsNN(ps, vs, os, 0, m, n, d);
        }
      });
  return out;
}

}  // namespace ops
}  // namespace stwa
