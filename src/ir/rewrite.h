// Pattern-matching rewrite passes over a frozen plan capture.
//
// ApplyFusionPasses runs after GraphCapture::Finish has frozen the forward
// schedule and (for train plans) built the backward schedule, and before
// liveness analysis. Two passes, in order:
//
//   1. Attention fuser: matmul → mul_scalar → softmax_last → matmul quads
//      collapse into one kFusedAttention node (the key transpose stays a
//      separate node — its fused-transpose GEMM kernel is not
//      bit-compatible with the plain NN path the quad uses).
//   2. Elementwise-chain fuser: maximal chains (length >= 2) of
//      shape-preserving elementwise ops — scalar arithmetic, vectorisable
//      unaries, same-shape binaries with one external side input —
//      collapse into one kFusedMap node.
//
// Legality (both passes): every fused-away node must (a) not require a
// gradient — so it is outside the backward schedule and no backward kernel
// can read its value — (b) have exactly one consumer edge inside the
// capture (the next member of its own pattern), and (c) not be the plan
// root or a feed. Rule (a) makes fusion a forward-only optimisation: train
// plans fuse just their gradient-free subgraphs, eval/serve plans (traced
// under NoGradMode) fuse everywhere. A fused node is emitted with
// requires_grad false and never enters a backward schedule, so the fused
// kinds are registered forward-only (no backward kernel, no gradcheck
// case). ST-WA trains through its generated per-sensor projections, so its
// train plans fuse nothing (IrRewriteTest pins the rule on a graph that
// does fuse). Because the fused kernels compute the
// same per-element bits as the node sequences they replace
// (tensor/fused_ops.h), rewriting never changes a replay's output.
//
// The passes mutate the capture in place: fused-away nodes are removed
// from the node list and the forward schedule, the replacement node takes
// the schedule slot of the pattern's tail (creation order is topological,
// so all of its inputs are already scheduled earlier), and every surviving
// consumer of the tail is rewired to the replacement.

#ifndef STWA_IR_REWRITE_H_
#define STWA_IR_REWRITE_H_

#include <cstdint>
#include <vector>

#include "autograd/var.h"

namespace stwa {
namespace ir {

/// What the fusion passes did to one capture.
struct RewriteStats {
  /// kFusedMap nodes emitted (one per fused chain).
  int64_t fused_map_nodes = 0;
  /// kFusedAttention nodes emitted (one per fused quad).
  int64_t fused_attention_nodes = 0;
  /// Net forward ops removed from the schedule (pattern members minus
  /// their replacements).
  int64_t fused_away_ops = 0;
};

/// Runs the fusion passes over a frozen capture, mutating `nodes` (the
/// creation-order node list, which keeps everything alive) and `forward`
/// (the forward schedule) in place. `root` is never fused.
RewriteStats ApplyFusionPasses(std::vector<ag::NodePtr>& nodes,
                               std::vector<ag::Node*>& forward,
                               const ag::Node* root);

}  // namespace ir
}  // namespace stwa

#endif  // STWA_IR_REWRITE_H_
