#include "optim/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace stwa {
namespace optim {

Optimizer::Optimizer(std::vector<ag::Var> params)
    : params_(std::move(params)) {
  for (const ag::Var& p : params_) {
    STWA_CHECK(p.requires_grad(), "optimizer parameter must require grad");
  }
}

void Optimizer::ZeroGrad() {
  for (ag::Var& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<ag::Var> params, float lr, float momentum)
    : Optimizer(std::move(params)), momentum_(momentum) {
  lr_ = lr;
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (const ag::Var& p : params_) {
      velocity_.emplace_back(p.value().shape());
    }
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Var& p = params_[i];
    Tensor& value = p.node()->value;
    const Tensor& grad = p.grad();
    // An empty grad means nothing was accumulated: the update is zero
    // (momentum decays a zero-initialised velocity to zero too).
    if (grad.empty()) continue;
    if (momentum_ > 0.0f) {
      float* w = value.data();
      const float* g = grad.data();
      float* vel = velocity_[i].data();
      const float momentum = momentum_;
      const float lr = lr_;
      runtime::ParallelFor(0, value.size(), runtime::kMinChunkWork,
                           [=](int64_t j0, int64_t j1) {
                             for (int64_t j = j0; j < j1; ++j) {
                               vel[j] = momentum * vel[j] + g[j];
                               w[j] -= lr * vel[j];
                             }
                           });
    } else {
      // Fused w -= lr * g.
      ops::AxpyInPlace(value, -lr_, grad);
    }
  }
}

Adam::Adam(std::vector<ag::Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ag::Var& p : params_) {
    m_.emplace_back(p.value().shape());
    v_.emplace_back(p.value().shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Var& p = params_[i];
    Tensor& value = p.node()->value;
    const Tensor& grad = p.grad();
    // Empty grad == zero grad: with m = v = 0 the whole update is a no-op
    // (modulo weight decay, which we deliberately skip for untouched
    // parameters — no gradient, no decay step).
    if (grad.empty()) continue;
    float* w = value.data();
    const float* g = grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const float beta1 = beta1_;
    const float beta2 = beta2_;
    const float eps = eps_;
    const float wd = weight_decay_;
    const float lr = lr_;
    // Single fused pass over the parameter: moments and weight update in
    // one loop, elementwise-independent, so chunking keeps determinism.
    runtime::ParallelFor(
        0, value.size(), runtime::Grain(4),
        [=](int64_t j0, int64_t j1) {
          for (int64_t j = j0; j < j1; ++j) {
            const float gj = g[j] + wd * w[j];
            m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
            v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
            const float m_hat = m[j] / bias1;
            const float v_hat = v[j] / bias2;
            w[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
          }
        });
  }
}

float ClipGradNorm(const std::vector<ag::Var>& params, float max_norm) {
  STWA_CHECK(max_norm > 0.0f, "max_norm must be positive");
  // The norm reduction stays serial in parameter-then-element order:
  // a cross-chunk reduction would change summation order and break the
  // bit-determinism contract.
  double total = 0.0;
  for (const ag::Var& p : params) {
    const Tensor& g = p.grad();  // empty (never accumulated) adds nothing
    const float* data = g.data();
    for (int64_t j = 0; j < g.size(); ++j) {
      total += static_cast<double>(data[j]) * data[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-6f);
    for (const ag::Var& p : params) {
      Tensor& g = p.node()->grad;
      if (!g.empty()) ops::MulScalarInPlace(g, scale);
    }
  }
  return norm;
}

}  // namespace optim
}  // namespace stwa
