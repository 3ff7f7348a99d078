// Differentiable operators over ag::Var.
//
// Every function builds a typed tape node (ir::OpKind + ir::OpAttrs) whose
// forward and backward kernels live in the per-kind registry
// (ir/registry.cc). Binary elementwise ops broadcast like their
// tensor/ops.h counterparts; their backward passes sum-reduce gradients back
// to the input shapes. Every registered kind is covered by finite-difference
// gradient tests (autograd/gradcheck.h enumerates the registry).

#ifndef STWA_AUTOGRAD_OPS_H_
#define STWA_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"

namespace stwa {
namespace ag {

// --- Elementwise binary (broadcasting) ----------------------------------

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);

// --- Scalar arithmetic ----------------------------------------------------

Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);

// --- Elementwise unary ------------------------------------------------------

Var Neg(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);
Var Sqrt(const Var& a);
Var Square(const Var& a);
Var Abs(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);

// --- Linear algebra ----------------------------------------------------------

/// Batched matrix product with rank-2 operand sharing (see ops::MatMul).
Var MatMul(const Var& a, const Var& b);

/// Swaps the last two axes.
Var TransposeLast2(const Var& a);

/// General axis permutation.
Var Permute(const Var& a, const std::vector<int64_t>& axes);

// --- Shape ---------------------------------------------------------------

Var Reshape(const Var& a, Shape shape);

/// Concatenates along `axis`.
Var Concat(const std::vector<Var>& parts, int64_t axis);

/// Copies range [start, start+len) of `axis`.
Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len);

/// Stacks equal-shaped Vars along a new leading axis.
Var Stack(const std::vector<Var>& parts);

/// Row (axis-0) gather; backward scatter-adds (embedding lookup).
Var IndexSelect0(const Var& a, std::vector<int64_t> indices);

// --- Reductions -------------------------------------------------------------

Var SumAll(const Var& a);
Var MeanAll(const Var& a);
Var Sum(const Var& a, int64_t axis, bool keepdims = false);
Var Mean(const Var& a, int64_t axis, bool keepdims = false);

// --- Softmax / regularisers --------------------------------------------------

/// Numerically stable softmax over the last axis.
Var SoftmaxLast(const Var& a);

/// Standard-normal sample as a tape op (kRandn). Unlike wrapping
/// Tensor::Randn in a leaf, the op redraws from `rng` on every execution,
/// so captured plans replay fresh noise in the same stream order as traced
/// runs. `rng` must outlive any plan built over this op.
Var RandnVar(Shape shape, Rng& rng);

/// Inverted dropout; identity when !training or p == 0.
Var Dropout(const Var& a, float p, bool training, Rng& rng);

// --- Losses -------------------------------------------------------------------

/// Mean squared error over all elements.
Var MseLoss(const Var& pred, const Var& target);

/// Huber loss (Eq. 21 of the paper) with threshold delta, averaged over all
/// elements. Quadratic within |e| <= delta, linear outside.
Var HuberLoss(const Var& pred, const Var& target, float delta = 1.0f);

}  // namespace ag
}  // namespace stwa

#endif  // STWA_AUTOGRAD_OPS_H_
