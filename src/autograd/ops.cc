#include "autograd/ops.h"

#include <utility>

#include "autograd/no_grad.h"
#include "common/check.h"
#include "ir/capture.h"
#include "ir/registry.h"

namespace stwa {
namespace ag {
namespace {

/// Builds a typed op node: stores the kind + attrs, runs the registered
/// forward kernel to materialise the value, and decides gradient flow.
///
/// When no parent requires grad — or recording is off (NoGradMode) — the
/// node needs no backward pass; outside a plan capture its parent edges are
/// dropped to prune the tape (constant folding of the graph structure).
/// While a capture is active the edges are always kept, because a replay
/// must re-execute the op even if no gradient flows through it.
Var ApplyOp(ir::OpKind kind, std::vector<NodePtr> parents,
            ir::OpAttrs attrs = {}) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->attrs = std::move(attrs);
  node->parents = std::move(parents);
  const ir::OpKernelInfo& info = ir::Kernel(kind);
  node->value = info.forward(*node);
  bool any = false;
  if (GradEnabled() && info.backward != nullptr) {
    for (const NodePtr& p : node->parents) {
      if (p != nullptr && p->requires_grad) {
        any = true;
        break;
      }
    }
  }
  node->requires_grad = any;
  if (!any && !ir::CaptureActive()) node->parents.clear();
  ir::CaptureRecord(node);
  return Var(std::move(node));
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return ApplyOp(ir::OpKind::kAdd, {a.node(), b.node()});
}

Var Sub(const Var& a, const Var& b) {
  return ApplyOp(ir::OpKind::kSub, {a.node(), b.node()});
}

Var Mul(const Var& a, const Var& b) {
  return ApplyOp(ir::OpKind::kMul, {a.node(), b.node()});
}

Var Div(const Var& a, const Var& b) {
  return ApplyOp(ir::OpKind::kDiv, {a.node(), b.node()});
}

Var AddScalar(const Var& a, float s) {
  ir::OpAttrs attrs;
  attrs.scalar = s;
  return ApplyOp(ir::OpKind::kAddScalar, {a.node()}, std::move(attrs));
}

Var MulScalar(const Var& a, float s) {
  ir::OpAttrs attrs;
  attrs.scalar = s;
  return ApplyOp(ir::OpKind::kMulScalar, {a.node()}, std::move(attrs));
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var Exp(const Var& a) { return ApplyOp(ir::OpKind::kExp, {a.node()}); }
Var Log(const Var& a) { return ApplyOp(ir::OpKind::kLog, {a.node()}); }
Var Sqrt(const Var& a) { return ApplyOp(ir::OpKind::kSqrt, {a.node()}); }
Var Square(const Var& a) { return ApplyOp(ir::OpKind::kSquare, {a.node()}); }
Var Abs(const Var& a) { return ApplyOp(ir::OpKind::kAbs, {a.node()}); }
Var Tanh(const Var& a) { return ApplyOp(ir::OpKind::kTanh, {a.node()}); }
Var Sigmoid(const Var& a) { return ApplyOp(ir::OpKind::kSigmoid, {a.node()}); }
Var Relu(const Var& a) { return ApplyOp(ir::OpKind::kRelu, {a.node()}); }

Var MatMul(const Var& a, const Var& b) {
  return ApplyOp(ir::OpKind::kMatMul, {a.node(), b.node()});
}

Var TransposeLast2(const Var& a) {
  return ApplyOp(ir::OpKind::kTransposeLast2, {a.node()});
}

Var Permute(const Var& a, const std::vector<int64_t>& axes) {
  ir::OpAttrs attrs;
  attrs.ints = axes;
  return ApplyOp(ir::OpKind::kPermute, {a.node()}, std::move(attrs));
}

Var Reshape(const Var& a, Shape shape) {
  ir::OpAttrs attrs;
  attrs.shape = std::move(shape);
  return ApplyOp(ir::OpKind::kReshape, {a.node()}, std::move(attrs));
}

Var Concat(const std::vector<Var>& parts, int64_t axis) {
  STWA_CHECK(!parts.empty(), "Concat of zero Vars");
  std::vector<NodePtr> nodes;
  nodes.reserve(parts.size());
  for (const Var& v : parts) nodes.push_back(v.node());
  int64_t rank = parts[0].value().rank();
  if (axis < 0) axis += rank;
  ir::OpAttrs attrs;
  attrs.axis = axis;
  return ApplyOp(ir::OpKind::kConcat, std::move(nodes), std::move(attrs));
}

Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len) {
  int64_t rank = a.value().rank();
  if (axis < 0) axis += rank;
  ir::OpAttrs attrs;
  attrs.axis = axis;
  attrs.start = start;
  attrs.len = len;
  return ApplyOp(ir::OpKind::kSlice, {a.node()}, std::move(attrs));
}

Var Stack(const std::vector<Var>& parts) {
  STWA_CHECK(!parts.empty(), "Stack of zero Vars");
  std::vector<Var> reshaped;
  reshaped.reserve(parts.size());
  for (const Var& v : parts) {
    Shape s = v.value().shape();
    s.insert(s.begin(), 1);
    reshaped.push_back(Reshape(v, s));
  }
  return Concat(reshaped, 0);
}

Var IndexSelect0(const Var& a, std::vector<int64_t> indices) {
  ir::OpAttrs attrs;
  attrs.ints = std::move(indices);
  return ApplyOp(ir::OpKind::kIndexSelect0, {a.node()}, std::move(attrs));
}

Var SumAll(const Var& a) { return ApplyOp(ir::OpKind::kSumAll, {a.node()}); }

Var MeanAll(const Var& a) { return ApplyOp(ir::OpKind::kMeanAll, {a.node()}); }

Var Sum(const Var& a, int64_t axis, bool keepdims) {
  int64_t rank = a.value().rank();
  if (axis < 0) axis += rank;
  ir::OpAttrs attrs;
  attrs.axis = axis;
  attrs.keepdims = keepdims;
  return ApplyOp(ir::OpKind::kSum, {a.node()}, std::move(attrs));
}

Var Mean(const Var& a, int64_t axis, bool keepdims) {
  int64_t rank = a.value().rank();
  if (axis < 0) axis += rank;
  const float inv = 1.0f / static_cast<float>(a.value().shape()[axis]);
  return MulScalar(Sum(a, axis, keepdims), inv);
}

Var SoftmaxLast(const Var& a) {
  return ApplyOp(ir::OpKind::kSoftmaxLast, {a.node()});
}

Var RandnVar(Shape shape, Rng& rng) {
  ir::OpAttrs attrs;
  attrs.shape = std::move(shape);
  attrs.rng = &rng;
  return ApplyOp(ir::OpKind::kRandn, {}, std::move(attrs));
}

Var Dropout(const Var& a, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return a;
  STWA_CHECK(p < 1.0f, "Dropout probability must be < 1, got ", p);
  ir::OpAttrs attrs;
  attrs.scalar = p;
  attrs.shape = a.value().shape();
  attrs.rng = &rng;
  Var mask = ApplyOp(ir::OpKind::kDropoutMask, {}, std::move(attrs));
  return Mul(a, mask);
}

Var MseLoss(const Var& pred, const Var& target) {
  return MeanAll(Square(Sub(pred, target)));
}

Var HuberLoss(const Var& pred, const Var& target, float delta) {
  STWA_CHECK(delta > 0.0f, "Huber delta must be positive");
  Var diff = Sub(pred, target);
  const float inv = 1.0f / static_cast<float>(diff.value().size());
  ir::OpAttrs attrs;
  attrs.scalar = delta;
  Var elem = ApplyOp(ir::OpKind::kHuberElem, {diff.node()}, std::move(attrs));
  return MulScalar(SumAll(elem), inv);
}

}  // namespace ag
}  // namespace stwa
