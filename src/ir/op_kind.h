// Typed operator identities for the autograd graph IR.
//
// Every differentiable operator (autograd/ops.h) used to carry its identity
// implicitly inside a type-erased std::function backward closure. The IR
// makes that identity explicit: each tape node records an OpKind plus a
// small OpAttrs bag, and forward/backward kernels are dispatched through
// the per-kind registry (ir/registry.h). Explicit kinds are what enable
// graph-level tooling: captured execution plans (ir/plan.h), per-op
// profiling, registry-driven gradient checking, and backward-subgraph
// pruning.
//
// This header is dependency-light on purpose: autograd/var.h includes it,
// so it must not include autograd headers back.

#ifndef STWA_IR_OP_KIND_H_
#define STWA_IR_OP_KIND_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace stwa {

class Rng;

namespace ir {

/// Identity of the operator that produced a tape node. kLeaf marks nodes
/// created directly from a tensor (parameters, constants, feeds).
enum class OpKind : uint8_t {
  kLeaf = 0,

  // Elementwise binary (broadcasting).
  kAdd,
  kSub,
  kMul,
  kDiv,

  // Scalar arithmetic.
  kAddScalar,
  kMulScalar,

  // Elementwise unary.
  kExp,
  kLog,
  kSqrt,
  kSquare,
  kAbs,
  kTanh,
  kSigmoid,
  kRelu,

  // Linear algebra / data movement.
  kMatMul,
  kTransposeLast2,
  kPermute,
  kReshape,
  kConcat,
  kSlice,
  kIndexSelect0,

  // Reductions.
  kSumAll,
  kMeanAll,
  kSum,

  // Softmax / losses.
  kSoftmaxLast,
  kHuberElem,

  // Stop-gradient: value aliases the parent, gradients never flow.
  kDetach,

  // Sampling sources: no parents, forward draws from an Rng. Re-run on
  // every plan replay so the random stream matches traced execution.
  kRandn,
  kDropoutMask,

  // Fused super-ops, emitted only by the plan rewriter (ir/rewrite.cc) —
  // eager tracing never constructs them. kFusedMap runs an elementwise
  // chain (stage program in attrs.ints/scalars) in one pooled pass;
  // kFusedAttention runs a matmul→scale→softmax→matmul quad without
  // materialising the score tensor (scale in attrs.scalar). Forward-only:
  // the rewriter fuses only gradient-free nodes, so neither kind has a
  // backward kernel.
  kFusedMap,
  kFusedAttention,

  kCount,
};

constexpr int kNumOpKinds = static_cast<int>(OpKind::kCount);

/// Short stable name ("add", "matmul", ...) for logs, bench JSON and
/// error messages.
const char* OpKindName(OpKind kind);

/// Per-node operator attributes. One flat bag shared by all kinds keeps
/// Node small and trivially copyable op-identity-wise; each kind documents
/// which fields it reads (see ir/registry.cc).
struct OpAttrs {
  /// kAddScalar / kMulScalar: the scalar. kHuberElem: delta.
  /// kDropoutMask: keep-probability complement p. kFusedAttention: the
  /// score scale.
  float scalar = 0.0f;
  /// kSum / kConcat / kSlice: the axis (already normalised to >= 0).
  int64_t axis = 0;
  /// kSlice: range start / length.
  int64_t start = 0;
  int64_t len = 0;
  /// kSum: whether the reduced axis is kept as extent 1.
  bool keepdims = false;
  /// kReshape: target shape. kRandn / kDropoutMask: sample shape.
  Shape shape;
  /// kPermute: axis order. kIndexSelect0: row indices. kFusedMap: the
  /// stage program — 3 ints per stage {simd::FusedOp opcode, side slot
  /// into parents[1..] (-1 for unary/scalar stages), swapped flag}.
  std::vector<int64_t> ints;
  /// kFusedMap: per-stage scalar operands (parallel to the stage program).
  std::vector<float> scalars;
  /// kRandn / kDropoutMask: the generator drawn from at every (re)execution.
  /// Non-owning; the model owning the op outlives its plans.
  Rng* rng = nullptr;
};

}  // namespace ir
}  // namespace stwa

#endif  // STWA_IR_OP_KIND_H_
