// AGCRN baseline [Bai et al., NeurIPS 2020]: Adaptive Graph Convolutional
// Recurrent Network. Two key mechanisms, both spatial-aware:
//   * NAPL (node adaptive parameter learning): per-node weights are
//     generated from learnable node embeddings against a shared weight
//     pool, W^(i) = E_i @ W_pool;
//   * DAGG (data adaptive graph generation): the adjacency is learned as
//     softmax(relu(E E^T)) — no predefined graph needed.
// The recurrent cell is a GRU whose gates are NAPL graph convolutions.

#ifndef STWA_BASELINES_AGCRN_H_
#define STWA_BASELINES_AGCRN_H_

#include <memory>

#include "baselines/common.h"
#include "nn/mlp.h"
#include "train/trainer.h"

namespace stwa {
namespace baselines {

/// NAPL graph convolution: out = (A x) @ W^(i) + b^(i), with W^(i)/b^(i)
/// generated per node from the node embeddings.
class NaplGraphConv : public nn::Module {
 public:
  NaplGraphConv(int64_t d_in, int64_t d_out, int64_t emb_dim,
                Rng* rng = nullptr);

  /// x [B, N, d_in], adj [N, N] (Var for differentiability),
  /// emb [N, emb_dim] -> [B, N, d_out].
  ag::Var Forward(const ag::Var& x, const ag::Var& adj,
                  const ag::Var& emb) const;

 private:
  int64_t d_in_;
  int64_t d_out_;
  ag::Var pool_;       // [emb, d_in * d_out]
  ag::Var bias_pool_;  // [emb, d_out]
};

/// AGCRN forecaster.
class Agcrn : public train::ForecastModel {
 public:
  explicit Agcrn(BaselineConfig config, Rng* rng = nullptr);

  ag::Var Forward(const Tensor& x, bool training) override;
  std::string name() const override { return "AGCRN"; }

 private:
  BaselineConfig config_;
  int64_t emb_dim_ = 8;
  ag::Var node_emb_;
  std::unique_ptr<NaplGraphConv> gate_rz_;
  std::unique_ptr<NaplGraphConv> gate_n_;
  std::unique_ptr<nn::Mlp> predictor_;
};

}  // namespace baselines
}  // namespace stwa

#endif  // STWA_BASELINES_AGCRN_H_
