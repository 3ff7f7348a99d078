// Stage opcodes and the per-lane interpreter for the fused elementwise
// kernel (ops::FusedMap, emitted by the plan rewriter in ir/rewrite.cc).
//
// A fused chain is a short program of shape-preserving stages applied to
// one value stream: scalar arithmetic, vectorisable unaries, and
// same-shape binaries against a side input. FusedApply dispatches one
// stage to exactly the Vec functors (vec_math.h) the standalone
// UnaryMap/BinaryMap kernels use, so a fused chain computes the same
// per-element bits as the unfused op sequence it replaces, on every tier.
// Log is deliberately not a fused opcode: it has no Vec kernel (stays
// scalar on every build), so fusing it would change which path computes
// it.
//
// All opcodes are lane-independent, so the simd.h partial-tail rule
// applies: the fused kernel's chunk/vector blocking may differ from the
// unfused kernels' without changing any element.

#ifndef STWA_SIMD_FUSED_H_
#define STWA_SIMD_FUSED_H_

#include <cstdint>

#include "simd/vec_math.h"

namespace stwa {
namespace simd {

/// One stage of a fused elementwise chain. Values are stable: plans store
/// them in OpAttrs::ints.
enum class FusedOp : int64_t {
  // Scalar arithmetic (reads the stage scalar).
  kAddScalar = 0,
  kMulScalar,
  // Unaries.
  kExp,
  kSqrt,
  kSquare,
  kAbs,
  kTanh,
  kSigmoid,
  kRelu,
  // Same-shape binaries (read a side input; kSub/kDiv honour `swapped`).
  kAdd,
  kSub,
  kMul,
  kDiv,
  kCount,
};

/// True for opcodes that read a side-input lane.
inline bool FusedOpIsBinary(FusedOp op) {
  return op >= FusedOp::kAdd && op < FusedOp::kCount;
}

/// Applies one stage to a vector of chain values. `side` is ignored for
/// unary / scalar stages; `swapped` means the chain value is the right
/// operand (side OP chain). Pad lanes of a partial tail may compute
/// garbage (e.g. a division by the 0 pad); they are masked on store and
/// never read.
inline Vec FusedApply(FusedOp op, Vec x, Vec side, float scalar,
                      bool swapped) {
  switch (op) {
    case FusedOp::kAddScalar: return AddScalarOp{scalar}(x);
    case FusedOp::kMulScalar: return MulScalarOp{scalar}(x);
    case FusedOp::kExp: return ExpOp{}(x);
    case FusedOp::kSqrt: return SqrtOp{}(x);
    case FusedOp::kSquare: return SquareOp{}(x);
    case FusedOp::kAbs: return AbsOp{}(x);
    case FusedOp::kTanh: return TanhOp{}(x);
    case FusedOp::kSigmoid: return SigmoidOp{}(x);
    case FusedOp::kRelu: return ReluOp{}(x);
    case FusedOp::kAdd: return AddOp{}(x, side);
    case FusedOp::kSub: return swapped ? SubOp{}(side, x) : SubOp{}(x, side);
    case FusedOp::kMul: return MulOp{}(x, side);
    case FusedOp::kDiv: return swapped ? DivOp{}(side, x) : DivOp{}(x, side);
    case FusedOp::kCount: break;
  }
  return x;
}

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_FUSED_H_
