// Per-OpKind kernel registry: the dispatch table of the graph IR.
//
// Each registered kind carries
//   * a forward kernel recomputing the node's value from its parents and
//     attributes (used at trace time AND on every plan replay — one code
//     path, so traced and replayed execution are bit-identical by
//     construction);
//   * a backward kernel accumulating the node's gradient into its parents
//     (null for non-differentiable kinds: leaves, detach, sampling ops,
//     and the forward-only fused kinds, which the rewriter builds only
//     from gradient-free nodes);
//   * liveness metadata: whether the backward kernel reads parent *data*
//     (not just shapes), which the execution plan's liveness analysis uses
//     to decide how long forward-only values must stay materialised;
//   * a gradcheck case builder, so autograd/gradcheck can enumerate every
//     registered kind and finite-difference check it — a kind with a
//     backward kernel but no gradcheck case fails the test suite.

#ifndef STWA_IR_REGISTRY_H_
#define STWA_IR_REGISTRY_H_

#include <functional>
#include <vector>

#include "autograd/var.h"
#include "ir/op_kind.h"

namespace stwa {
namespace ir {

/// A self-contained finite-difference test case for one OpKind: `fn`
/// builds a scalar loss exercising the kind from the current values of
/// `params` (deterministically — sampling kinds reseed internally).
struct GradCheckCase {
  std::vector<ag::Var> params;
  std::function<ag::Var()> fn;
};

/// Registry entry for one OpKind.
struct OpKernelInfo {
  /// Stable short name, equal to OpKindName(kind).
  const char* name = nullptr;

  /// Recomputes the forward value from n.parents / n.attrs. Null only for
  /// kLeaf (leaves are storage, not computation).
  Tensor (*forward)(const ag::Node& n) = nullptr;

  /// Accumulates n.grad into n.parents. Null for non-differentiable kinds.
  void (*backward)(ag::Node& n) = nullptr;

  /// True when the backward kernel reads parent values (data or shape) —
  /// the plan keeps such parents materialised until this node's backward
  /// has run, even if the parent itself needs no gradient.
  bool backward_reads_parents = false;

  /// Builds a finite-difference case; required iff `backward` is set.
  GradCheckCase (*make_gradcheck)() = nullptr;

  /// Per-kind finite-difference tolerance overrides for CheckAllOpKinds;
  /// 0 means "use the CheckGradients defaults". Only kinds whose
  /// vectorized kernels (polynomial transcendentals) measurably deviate
  /// from the libm scalars set these — each override is justified at its
  /// registration site.
  float gc_rtol = 0.0f;
  float gc_atol = 0.0f;
};

/// Dispatch-table lookup. Aborts on an unregistered kind.
const OpKernelInfo& Kernel(OpKind kind);

}  // namespace ir
}  // namespace stwa

#endif  // STWA_IR_REGISTRY_H_
