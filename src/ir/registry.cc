#include "ir/registry.h"

#include <array>
#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "simd/vec_math.h"
#include "tensor/fused_ops.h"
#include "tensor/ops.h"

namespace stwa {
namespace ir {
namespace {

using ag::Node;
using ag::NodePtr;
using ag::Var;
using simd::Vec;

// --- Vectorized backward functors ----------------------------------------
// The templated UnaryMap/BinaryMap kernels run these through their Vec
// loop on every tier (simd::kIsVecUnary/kIsVecBinary).

struct BwdSqrtFn {
  Vec operator()(Vec g, Vec v) const { return Vec::Broadcast(0.5f) * g / v; }
};

struct BwdSquareFn {
  Vec operator()(Vec g, Vec x) const { return g * Vec::Broadcast(2.0f) * x; }
};

struct BwdAbsFn {
  Vec operator()(Vec g, Vec x) const {
    const Vec z = Vec::Zero();
    return Vec::Select(Vec::CmpGt(x, z), g,
                       Vec::Select(Vec::CmpGt(z, x), z - g, z));
  }
};

struct BwdTanhFn {
  Vec operator()(Vec g, Vec v) const {
    return g * (Vec::Broadcast(1.0f) - v * v);
  }
};

struct BwdSigmoidFn {
  Vec operator()(Vec g, Vec v) const {
    return g * v * (Vec::Broadcast(1.0f) - v);
  }
};

struct BwdReluFn {
  Vec operator()(Vec g, Vec x) const {
    return Vec::Select(Vec::CmpGt(x, Vec::Zero()), g, Vec::Zero());
  }
};

/// Huber value: 0.5 e^2 inside |e| <= delta, linear outside.
struct FwdHuberFn {
  float delta;
  Vec operator()(Vec e) const {
    const Vec vd = Vec::Broadcast(delta);
    const Vec half = Vec::Broadcast(0.5f);
    const Vec a = Vec::Abs(e);
    return Vec::Select(Vec::CmpLe(a, vd), half * e * e,
                       vd * (a - half * vd));
  }
};

/// Huber derivative (times incoming grad): e inside, delta*sign(e) outside
/// (|e| > delta implies e != 0, so CopySign gives delta*sign(e)).
struct BwdHuberFn {
  float delta;
  Vec operator()(Vec g, Vec e) const {
    const Vec vd = Vec::Broadcast(delta);
    const Vec de =
        Vec::Select(Vec::CmpLe(Vec::Abs(e), vd), e, Vec::CopySign(vd, e));
    return g * de;
  }
};

// --- Shared gradient-accumulation helpers --------------------------------

/// Accumulates `g` into `p`'s gradient, reducing over broadcast axes.
/// Exclusive temporaries are adopted by the grad buffer instead of being
/// added into a freshly zeroed allocation (Node::AccumulateGrad).
void Accum(const NodePtr& p, Tensor g) {
  if (p == nullptr || !p->requires_grad) return;
  if (g.shape() == p->value.shape()) {
    p->AccumulateGrad(std::move(g));
  } else {
    p->AccumulateGrad(ops::ReduceToShape(g, p->value.shape()));
  }
}

/// Accumulates a * b (elementwise) into `p`'s gradient. When the shapes
/// line up, the product is fused into the accumulation (AddMulInPlace) —
/// no intermediate product tensor; otherwise falls back to Mul + Accum
/// with broadcast reduction.
void AccumProduct(const NodePtr& p, const Tensor& a, const Tensor& b) {
  if (p == nullptr || !p->requires_grad) return;
  const Shape& shape = p->value.shape();
  if (a.shape() == shape && b.shape() == shape) {
    if (p->grad.empty() && !p->value.empty()) {
      p->AccumulateGrad(ops::BinaryMap(a, b, simd::MulOp{}));
    } else {
      ops::AddMulInPlace(p->grad, a, b);
    }
  } else {
    Accum(p, ops::Mul(a, b));
  }
}

const Tensor& P(const Node& n, size_t i) { return n.parents[i]->value; }

// --- Forward kernels ------------------------------------------------------
// Each one recomputes the node's value from parents + attrs. These are the
// single source of truth: trace-time construction and plan replay both run
// them, so the two execution modes are bit-identical by construction.

Tensor FwdAdd(const Node& n) { return ops::Add(P(n, 0), P(n, 1)); }
Tensor FwdSub(const Node& n) { return ops::Sub(P(n, 0), P(n, 1)); }
Tensor FwdMul(const Node& n) { return ops::Mul(P(n, 0), P(n, 1)); }
Tensor FwdDiv(const Node& n) { return ops::Div(P(n, 0), P(n, 1)); }
Tensor FwdAddScalar(const Node& n) {
  return ops::AddScalar(P(n, 0), n.attrs.scalar);
}
Tensor FwdMulScalar(const Node& n) {
  return ops::MulScalar(P(n, 0), n.attrs.scalar);
}
Tensor FwdExp(const Node& n) { return ops::Exp(P(n, 0)); }
Tensor FwdLog(const Node& n) { return ops::Log(P(n, 0)); }
Tensor FwdSqrt(const Node& n) { return ops::Sqrt(P(n, 0)); }
Tensor FwdSquare(const Node& n) { return ops::Square(P(n, 0)); }
Tensor FwdAbs(const Node& n) { return ops::Abs(P(n, 0)); }
Tensor FwdTanh(const Node& n) { return ops::Tanh(P(n, 0)); }
Tensor FwdSigmoid(const Node& n) { return ops::Sigmoid(P(n, 0)); }
Tensor FwdRelu(const Node& n) { return ops::Relu(P(n, 0)); }
Tensor FwdMatMul(const Node& n) { return ops::MatMul(P(n, 0), P(n, 1)); }
Tensor FwdTransposeLast2(const Node& n) {
  return ops::TransposeLast2(P(n, 0));
}
Tensor FwdPermute(const Node& n) { return ops::Permute(P(n, 0), n.attrs.ints); }
Tensor FwdReshape(const Node& n) { return P(n, 0).Reshape(n.attrs.shape); }
Tensor FwdConcat(const Node& n) {
  std::vector<Tensor> values;
  values.reserve(n.parents.size());
  for (const NodePtr& p : n.parents) values.push_back(p->value);
  return ops::Concat(values, n.attrs.axis);
}
Tensor FwdSlice(const Node& n) {
  return ops::Slice(P(n, 0), n.attrs.axis, n.attrs.start, n.attrs.len);
}
Tensor FwdIndexSelect0(const Node& n) {
  return ops::IndexSelect0(P(n, 0), n.attrs.ints);
}
Tensor FwdSumAll(const Node& n) { return ops::SumAll(P(n, 0)); }
Tensor FwdMeanAll(const Node& n) { return ops::MeanAll(P(n, 0)); }
Tensor FwdSum(const Node& n) {
  return ops::Sum(P(n, 0), n.attrs.axis, n.attrs.keepdims);
}
Tensor FwdSoftmaxLast(const Node& n) { return ops::SoftmaxLast(P(n, 0)); }
Tensor FwdHuberElem(const Node& n) {
  return ops::UnaryMap(P(n, 0), FwdHuberFn{n.attrs.scalar});
}
Tensor FwdDetach(const Node& n) { return P(n, 0); }
Tensor FwdRandn(const Node& n) {
  STWA_CHECK(n.attrs.rng != nullptr, "randn op lost its generator");
  return Tensor::Randn(n.attrs.shape, *n.attrs.rng);
}
Tensor FwdDropoutMask(const Node& n) {
  STWA_CHECK(n.attrs.rng != nullptr, "dropout op lost its generator");
  const float p = n.attrs.scalar;
  const float scale = 1.0f / (1.0f - p);
  Tensor mask = Tensor::Uninit(n.attrs.shape);
  float* m = mask.data();
  Rng& rng = *n.attrs.rng;
  for (int64_t i = 0; i < mask.size(); ++i) {
    m[i] = rng.Uniform() < p ? 0.0f : scale;
  }
  return mask;
}

// --- Backward kernels -----------------------------------------------------

void BwdAdd(Node& n) {
  Accum(n.parents[0], n.grad);
  Accum(n.parents[1], n.grad);
}

void BwdSub(Node& n) {
  Accum(n.parents[0], n.grad);
  Accum(n.parents[1], ops::Neg(n.grad));
}

void BwdMul(Node& n) {
  AccumProduct(n.parents[0], n.grad, n.parents[1]->value);
  AccumProduct(n.parents[1], n.grad, n.parents[0]->value);
}

void BwdDiv(Node& n) {
  const Tensor& av = n.parents[0]->value;
  const Tensor& bv = n.parents[1]->value;
  Accum(n.parents[0], ops::Div(n.grad, bv));
  Accum(n.parents[1],
        ops::Neg(ops::Div(ops::Mul(n.grad, av), ops::Mul(bv, bv))));
}

void BwdAddScalar(Node& n) { Accum(n.parents[0], n.grad); }

void BwdMulScalar(Node& n) {
  Accum(n.parents[0], ops::MulScalar(n.grad, n.attrs.scalar));
}

void BwdExp(Node& n) { AccumProduct(n.parents[0], n.grad, n.value); }

void BwdLog(Node& n) {
  Accum(n.parents[0], ops::Div(n.grad, n.parents[0]->value));
}

void BwdSqrt(Node& n) {
  // d sqrt(x)/dx = 0.5 / sqrt(x); fused single-pass map over own value.
  Accum(n.parents[0], ops::BinaryMap(n.grad, n.value, BwdSqrtFn{}));
}

void BwdSquare(Node& n) {
  Accum(n.parents[0],
        ops::BinaryMap(n.grad, n.parents[0]->value, BwdSquareFn{}));
}

void BwdAbs(Node& n) {
  Accum(n.parents[0],
        ops::BinaryMap(n.grad, n.parents[0]->value, BwdAbsFn{}));
}

void BwdTanh(Node& n) {
  // Fused g * (1 - y^2): one pooled temporary instead of two.
  Accum(n.parents[0], ops::BinaryMap(n.grad, n.value, BwdTanhFn{}));
}

void BwdSigmoid(Node& n) {
  Accum(n.parents[0], ops::BinaryMap(n.grad, n.value, BwdSigmoidFn{}));
}

void BwdRelu(Node& n) {
  Accum(n.parents[0],
        ops::BinaryMap(n.grad, n.parents[0]->value, BwdReluFn{}));
}

void BwdMatMul(Node& n) {
  // dA = g @ B^T and dB = A^T @ g via the fused transposed-operand kernels
  // (no transpose temporaries), reduced over broadcast batch dims by Accum.
  Accum(n.parents[0], ops::MatMulNT(n.grad, n.parents[1]->value));
  Accum(n.parents[1], ops::MatMulTN(n.parents[0]->value, n.grad));
}

void BwdTransposeLast2(Node& n) {
  Accum(n.parents[0], ops::TransposeLast2(n.grad));
}

void BwdPermute(Node& n) {
  const std::vector<int64_t>& axes = n.attrs.ints;
  std::vector<int64_t> inverse(axes.size());
  for (size_t d = 0; d < axes.size(); ++d) inverse[axes[d]] = d;
  Accum(n.parents[0], ops::Permute(n.grad, inverse));
}

void BwdReshape(Node& n) {
  Accum(n.parents[0], n.grad.Reshape(n.parents[0]->value.shape()));
}

void BwdConcat(Node& n) {
  const int64_t axis = n.attrs.axis;
  int64_t offset = 0;
  for (const NodePtr& p : n.parents) {
    const int64_t extent = p->value.shape()[axis];
    Accum(p, ops::Slice(n.grad, axis, offset, extent));
    offset += extent;
  }
}

void BwdSlice(Node& n) {
  if (n.parents[0] == nullptr || !n.parents[0]->requires_grad) return;
  // Scatter the slice gradient back into the parent-shaped grad buffer.
  n.parents[0]->EnsureGrad();
  const Shape& parent_shape = n.parents[0]->value.shape();
  Tensor& pg = n.parents[0]->grad;
  const int64_t axis = n.attrs.axis;
  const int64_t start = n.attrs.start;
  const int64_t len = n.attrs.len;
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= parent_shape[d];
  for (size_t d = axis + 1; d < parent_shape.size(); ++d) {
    inner *= parent_shape[d];
  }
  const int64_t extent = parent_shape[axis];
  const float* g = n.grad.data();
  float* p = pg.data();
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = g + o * len * inner;
    float* dst = p + (o * extent + start) * inner;
    for (int64_t i = 0; i < len * inner; ++i) dst[i] += src[i];
  }
}

void BwdIndexSelect0(Node& n) {
  if (n.parents[0] == nullptr || !n.parents[0]->requires_grad) return;
  n.parents[0]->EnsureGrad();
  ops::ScatterAddRows(n.parents[0]->grad, n.attrs.ints, n.grad);
}

void BwdSumAll(Node& n) {
  const float g = n.grad.item();
  Accum(n.parents[0], Tensor(n.parents[0]->value.shape(), g));
}

void BwdMeanAll(Node& n) {
  const float inv =
      1.0f / static_cast<float>(n.parents[0]->value.size());
  const float g = n.grad.item() * inv;
  Accum(n.parents[0], Tensor(n.parents[0]->value.shape(), g));
}

void BwdSum(Node& n) {
  Shape keep_shape = n.parents[0]->value.shape();
  keep_shape[n.attrs.axis] = 1;
  // Broadcast the (possibly squeezed) grad back up — a pure copy
  // expansion, no zero tensor or add pass.
  Accum(n.parents[0], ops::BroadcastTo(n.grad.Reshape(std::move(keep_shape)),
                                       n.parents[0]->value.shape()));
}

void BwdSoftmaxLast(Node& n) {
  // Fused dx = y * (g - sum(g * y, last)): one pooled output, no
  // intermediate product/sum/difference tensors.
  Accum(n.parents[0], ops::SoftmaxLastBackward(n.value, n.grad));
}

void BwdHuberElem(Node& n) {
  // dH/de = e (|e|<=delta), else delta*sign(e); fused with the incoming
  // gradient into a single pooled temporary.
  Accum(n.parents[0],
        ops::BinaryMap(n.grad, n.parents[0]->value,
                       BwdHuberFn{n.attrs.scalar}));
}

// --- Fused super-op kernels (ir/rewrite.cc emits these nodes) -------------

Tensor FwdFusedMap(const Node& n) {
  std::vector<Tensor> sides;
  sides.reserve(n.parents.size() - 1);
  for (size_t i = 1; i < n.parents.size(); ++i) {
    sides.push_back(n.parents[i]->value);
  }
  return ops::FusedMap(P(n, 0), sides, n.attrs.ints, n.attrs.scalars);
}

Tensor FwdFusedAttention(const Node& n) {
  return ops::FusedAttention(P(n, 0), P(n, 1), P(n, 2), n.attrs.scalar);
}

// --- Gradcheck case builders ---------------------------------------------
// Each builder creates a deterministic scalar loss exercising exactly its
// kind (plus the reduction wrapping it into a scalar, which has its own
// case). Inputs are kept away from non-differentiable points (0 for
// abs/relu, the Huber kink).

/// [rows, cols] values in +-[0.4, 1.2], alternating sign so abs/relu/sign
/// derivatives are exercised on both branches away from zero.
Tensor SignedAway(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Uninit({rows, cols});
  float* d = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    const float mag = rng.Uniform(0.4f, 1.2f);
    d[i] = (i % 2 == 0) ? mag : -mag;
  }
  return t;
}

/// Strictly positive values in [0.5, 1.5] (log/sqrt/div-safe).
Tensor PositiveAway(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Rand({rows, cols}, rng, 0.5f, 1.5f);
}

GradCheckCase GcBinary(Var (*op)(const Var&, const Var&), bool positive) {
  Var a = ag::Parameter(positive ? PositiveAway(2, 3, 11)
                                 : SignedAway(2, 3, 11));
  // Broadcasting operand: [3] against [2, 3] exercises ReduceToShape.
  Var b = ag::Parameter(positive ? PositiveAway(1, 3, 12).Reshape({3})
                                 : SignedAway(1, 3, 12).Reshape({3}));
  return {{a, b}, [a, b, op] { return ag::MeanAll(op(a, b)); }};
}

GradCheckCase GcAdd() { return GcBinary(&ag::Add, false); }
GradCheckCase GcSub() { return GcBinary(&ag::Sub, false); }
GradCheckCase GcMul() { return GcBinary(&ag::Mul, false); }
GradCheckCase GcDiv() { return GcBinary(&ag::Div, true); }

GradCheckCase GcUnary(Var (*op)(const Var&), bool positive) {
  Var a = ag::Parameter(positive ? PositiveAway(2, 3, 21)
                                 : SignedAway(2, 3, 21));
  return {{a}, [a, op] { return ag::MeanAll(op(a)); }};
}

GradCheckCase GcAddScalar() {
  Var a = ag::Parameter(SignedAway(2, 3, 22));
  return {{a}, [a] { return ag::MeanAll(ag::AddScalar(a, 0.7f)); }};
}
GradCheckCase GcMulScalar() {
  Var a = ag::Parameter(SignedAway(2, 3, 23));
  return {{a}, [a] { return ag::MeanAll(ag::MulScalar(a, -1.4f)); }};
}
GradCheckCase GcExp() { return GcUnary(&ag::Exp, false); }
GradCheckCase GcLog() { return GcUnary(&ag::Log, true); }
GradCheckCase GcSqrt() { return GcUnary(&ag::Sqrt, true); }
GradCheckCase GcSquare() { return GcUnary(&ag::Square, false); }
GradCheckCase GcAbs() { return GcUnary(&ag::Abs, false); }
GradCheckCase GcTanh() { return GcUnary(&ag::Tanh, false); }
GradCheckCase GcSigmoid() { return GcUnary(&ag::Sigmoid, false); }
GradCheckCase GcRelu() { return GcUnary(&ag::Relu, false); }

GradCheckCase GcMatMul() {
  Var a = ag::Parameter(SignedAway(2, 3, 31));
  Var b = ag::Parameter(SignedAway(3, 2, 32));
  return {{a, b}, [a, b] { return ag::MeanAll(ag::MatMul(a, b)); }};
}

GradCheckCase GcTransposeLast2() {
  Var a = ag::Parameter(SignedAway(3, 4, 33));
  return {{a}, [a] {
            return ag::MeanAll(ag::Mul(ag::TransposeLast2(a),
                                       ag::TransposeLast2(a)));
          }};
}

GradCheckCase GcPermute() {
  Rng rng(34);
  Var a = ag::Parameter(Tensor::Randn({2, 3, 4}, rng));
  return {{a}, [a] {
            Var p = ag::Permute(a, {2, 0, 1});
            return ag::MeanAll(ag::Mul(p, p));
          }};
}

GradCheckCase GcReshape() {
  Var a = ag::Parameter(SignedAway(2, 6, 35));
  return {{a}, [a] {
            Var r = ag::Reshape(a, {3, 4});
            return ag::MeanAll(ag::Mul(r, r));
          }};
}

GradCheckCase GcConcat() {
  Var a = ag::Parameter(SignedAway(2, 2, 36));
  Var b = ag::Parameter(SignedAway(2, 3, 37));
  return {{a, b}, [a, b] {
            Var c = ag::Concat({a, b}, 1);
            return ag::MeanAll(ag::Mul(c, c));
          }};
}

GradCheckCase GcSlice() {
  Var a = ag::Parameter(SignedAway(2, 4, 38));
  return {{a}, [a] {
            Var s = ag::Slice(a, 1, 1, 2);
            return ag::MeanAll(ag::Mul(s, s));
          }};
}

GradCheckCase GcIndexSelect0() {
  Var a = ag::Parameter(SignedAway(3, 2, 39));
  return {{a}, [a] {
            // Repeated rows exercise the scatter-add accumulation.
            Var s = ag::IndexSelect0(a, {0, 2, 1, 0});
            return ag::MeanAll(ag::Mul(s, s));
          }};
}

GradCheckCase GcSumAll() {
  Var a = ag::Parameter(SignedAway(2, 3, 41));
  return {{a}, [a] { return ag::SumAll(ag::Mul(a, a)); }};
}

GradCheckCase GcMeanAll() {
  Var a = ag::Parameter(SignedAway(2, 3, 42));
  return {{a}, [a] { return ag::MeanAll(ag::Mul(a, a)); }};
}

GradCheckCase GcSum() {
  Var a = ag::Parameter(SignedAway(2, 3, 43));
  return {{a}, [a] {
            Var s = ag::Sum(a, 1);
            return ag::MeanAll(ag::Mul(s, s));
          }};
}

GradCheckCase GcSoftmaxLast() {
  Var a = ag::Parameter(SignedAway(2, 4, 44));
  Var w = Var(SignedAway(2, 4, 45));  // fixed mixing weights, no grad
  return {{a}, [a, w] {
            return ag::MeanAll(ag::Mul(ag::SoftmaxLast(a), w));
          }};
}

GradCheckCase GcHuberElem() {
  // Errors straddle the delta=1 kink but stay away from it (|e| in
  // {~0.3, ~1.7}), so central differences are valid on both branches.
  Tensor pred({2, 4}, {0.3f, -0.32f, 1.7f, -1.72f, 0.28f, -0.3f, 1.68f,
                       -1.66f});
  Var p = ag::Parameter(std::move(pred));
  Var target = Var(Tensor(Shape{2, 4}));
  return {{p}, [p, target] { return ag::HuberLoss(p, target, 1.0f); }};
}

// --- Table ----------------------------------------------------------------

std::array<OpKernelInfo, kNumOpKinds> BuildTable() {
  std::array<OpKernelInfo, kNumOpKinds> table{};
  auto set = [&table](OpKind kind, OpKernelInfo info) {
    table[static_cast<int>(kind)] = info;
  };
  // {name, forward, backward, backward_reads_parents, make_gradcheck}
  set(OpKind::kLeaf, {"leaf", nullptr, nullptr, false, nullptr});
  set(OpKind::kAdd, {"add", FwdAdd, BwdAdd, false, GcAdd});
  set(OpKind::kSub, {"sub", FwdSub, BwdSub, false, GcSub});
  set(OpKind::kMul, {"mul", FwdMul, BwdMul, true, GcMul});
  set(OpKind::kDiv, {"div", FwdDiv, BwdDiv, true, GcDiv});
  set(OpKind::kAddScalar,
      {"add_scalar", FwdAddScalar, BwdAddScalar, false, GcAddScalar});
  set(OpKind::kMulScalar,
      {"mul_scalar", FwdMulScalar, BwdMulScalar, false, GcMulScalar});
  set(OpKind::kExp, {"exp", FwdExp, BwdExp, false, GcExp});
  set(OpKind::kLog, {"log", FwdLog, BwdLog, true, GcLog});
  set(OpKind::kSqrt, {"sqrt", FwdSqrt, BwdSqrt, false, GcSqrt});
  set(OpKind::kSquare, {"square", FwdSquare, BwdSquare, true, GcSquare});
  set(OpKind::kAbs, {"abs", FwdAbs, BwdAbs, true, GcAbs});
  set(OpKind::kTanh, {"tanh", FwdTanh, BwdTanh, false, GcTanh});
  set(OpKind::kSigmoid, {"sigmoid", FwdSigmoid, BwdSigmoid, false, GcSigmoid});
  set(OpKind::kRelu, {"relu", FwdRelu, BwdRelu, true, GcRelu});
  set(OpKind::kMatMul, {"matmul", FwdMatMul, BwdMatMul, true, GcMatMul});
  set(OpKind::kTransposeLast2,
      {"transpose_last2", FwdTransposeLast2, BwdTransposeLast2, false,
       GcTransposeLast2});
  set(OpKind::kPermute, {"permute", FwdPermute, BwdPermute, false, GcPermute});
  // Reshape/Concat/Slice/IndexSelect0 and the reductions read parent
  // *shapes* in backward; flagged as parent readers so liveness keeps the
  // parent materialised until their backward has run.
  set(OpKind::kReshape, {"reshape", FwdReshape, BwdReshape, true, GcReshape});
  set(OpKind::kConcat, {"concat", FwdConcat, BwdConcat, true, GcConcat});
  set(OpKind::kSlice, {"slice", FwdSlice, BwdSlice, true, GcSlice});
  set(OpKind::kIndexSelect0,
      {"index_select0", FwdIndexSelect0, BwdIndexSelect0, true,
       GcIndexSelect0});
  set(OpKind::kSumAll, {"sum_all", FwdSumAll, BwdSumAll, true, GcSumAll});
  set(OpKind::kMeanAll, {"mean_all", FwdMeanAll, BwdMeanAll, true, GcMeanAll});
  set(OpKind::kSum, {"sum", FwdSum, BwdSum, true, GcSum});
  set(OpKind::kSoftmaxLast,
      {"softmax_last", FwdSoftmaxLast, BwdSoftmaxLast, false, GcSoftmaxLast});
  set(OpKind::kHuberElem,
      {"huber_elem", FwdHuberElem, BwdHuberElem, true, GcHuberElem});
  set(OpKind::kDetach, {"detach", FwdDetach, nullptr, false, nullptr});
  set(OpKind::kRandn, {"randn", FwdRandn, nullptr, false, nullptr});
  set(OpKind::kDropoutMask,
      {"dropout_mask", FwdDropoutMask, nullptr, false, nullptr});
  // The rewriter fuses only gradient-free nodes (ir/rewrite.h), so the
  // fused kinds never reach a backward schedule: forward-only.
  set(OpKind::kFusedMap, {"fused_map", FwdFusedMap, nullptr, false, nullptr});
  set(OpKind::kFusedAttention,
      {"fused_attention", FwdFusedAttention, nullptr, false, nullptr});
  return table;
}

}  // namespace

const OpKernelInfo& Kernel(OpKind kind) {
  static const std::array<OpKernelInfo, kNumOpKinds> table = BuildTable();
  const int index = static_cast<int>(kind);
  STWA_CHECK(index >= 0 && index < kNumOpKinds, "bad OpKind ", index);
  const OpKernelInfo& info = table[index];
  STWA_CHECK(info.name != nullptr, "unregistered OpKind ", index);
  return info;
}

const char* OpKindName(OpKind kind) { return Kernel(kind).name; }

}  // namespace ir
}  // namespace stwa
