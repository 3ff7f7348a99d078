#include "baselines/gwn.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace stwa {
namespace baselines {

GraphWaveNet::GraphWaveNet(BaselineConfig config, Rng* rng)
    : config_(config) {
  STWA_CHECK(config_.num_sensors > 0, "GraphWaveNet needs num_sensors");
  Rng& r = rng != nullptr ? *rng : GlobalRng();
  const int64_t d = config_.d_model;
  const int64_t emb = 8;
  embed_ = std::make_unique<nn::Linear>(config_.features, d, true, &r);
  RegisterModule("embed", embed_.get());
  node_emb1_ = RegisterParameter(
      "node_emb1",
      ops::MulScalar(Tensor::Randn({config_.num_sensors, emb}, r), 0.5f));
  node_emb2_ = RegisterParameter(
      "node_emb2",
      ops::MulScalar(Tensor::Randn({config_.num_sensors, emb}, r), 0.5f));
  // Dilated blocks (kernel 2, dilation 1, 2, 4, ...) as long as the
  // receptive field fits in the history.
  int64_t len = config_.history;
  int64_t dilation = 1;
  for (int64_t l = 0; l < config_.num_layers && len - dilation >= 1; ++l) {
    Block b;
    b.filter = std::make_unique<TemporalConv>(d, d, /*taps=*/2, dilation,
                                              &r);
    b.gate = std::make_unique<TemporalConv>(d, d, /*taps=*/2, dilation, &r);
    b.gconv = std::make_unique<nn::Linear>(d, d, true, &r);
    b.skip = std::make_unique<nn::Linear>(d, config_.predictor_hidden, true,
                                          &r);
    RegisterModule("filter" + std::to_string(l), b.filter.get());
    RegisterModule("gate" + std::to_string(l), b.gate.get());
    RegisterModule("gconv" + std::to_string(l), b.gconv.get());
    RegisterModule("skip" + std::to_string(l), b.skip.get());
    blocks_.push_back(std::move(b));
    len -= dilation;
    dilation *= 2;
  }
  STWA_CHECK(!blocks_.empty(), "history too short for GraphWaveNet");
  predictor_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{config_.predictor_hidden,
                           config_.predictor_hidden,
                           config_.horizon * config_.features},
      nn::Activation::kRelu, nn::Activation::kNone, &r);
  RegisterModule("predictor", predictor_.get());
}

Tensor GraphWaveNet::AdaptiveAdjacency() const {
  Tensor scores = ops::Relu(ops::MatMul(
      node_emb1_.value(), ops::TransposeLast2(node_emb2_.value())));
  return ops::SoftmaxLast(scores);
}

ag::Var GraphWaveNet::Forward(const Tensor& x, bool /*training*/) {
  STWA_CHECK(x.rank() == 4 && x.dim(1) == config_.num_sensors &&
                 x.dim(2) == config_.history,
             "GraphWaveNet input mismatch: ", ShapeToString(x.shape()));
  const int64_t batch = x.dim(0);
  const int64_t sensors = config_.num_sensors;
  ag::Var h = embed_->Forward(ag::Var(x));  // [B, N, T, d]

  // Adaptive adjacency (differentiable through the node embeddings).
  ag::Var adp = ag::SoftmaxLast(ag::Relu(
      ag::MatMul(node_emb1_, ag::TransposeLast2(node_emb2_))));

  ag::Var skip_sum;
  for (const Block& b : blocks_) {
    ag::Var residual = h;
    ag::Var gated = ag::Mul(ag::Tanh(b.filter->Forward(h)),
                            ag::Sigmoid(b.gate->Forward(h)));
    // Graph convolution per timestamp: fixed supports + adaptive adjacency.
    ag::Var mixed = ag::Permute(gated, {0, 2, 1, 3});  // [B, T', N, d]
    ag::Var agg = ag::MatMul(adp, mixed);
    for (const Tensor& s : config_.supports) {
      agg = ag::Add(agg, GraphMix(s, mixed));
    }
    ag::Var out = ag::Permute(ag::Relu(b.gconv->Forward(agg)),
                              {0, 2, 1, 3});  // [B, N, T', d]
    // Skip from the last timestamp of this block.
    ag::Var last = ag::Reshape(
        ag::Slice(out, 2, out.value().dim(2) - 1, 1),
        {batch, sensors, config_.d_model});
    ag::Var skip = b.skip->Forward(last);
    skip_sum = skip_sum.defined() ? ag::Add(skip_sum, skip) : skip;
    // Residual connection (crop the residual to the new length).
    const int64_t new_len = out.value().dim(2);
    ag::Var res_crop = ag::Slice(residual, 2,
                                 residual.value().dim(2) - new_len, new_len);
    h = ag::Add(out, res_crop);
  }
  ag::Var pred = predictor_->Forward(ag::Relu(skip_sum));
  return ag::Reshape(pred, {batch, sensors, config_.horizon,
                            config_.features});
}

}  // namespace baselines
}  // namespace stwa
