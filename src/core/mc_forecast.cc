#include "core/mc_forecast.h"

#include <cmath>

#include "autograd/no_grad.h"
#include "common/check.h"
#include "tensor/ops.h"

namespace stwa {
namespace core {

McForecast MonteCarloForecast(StwaModel& model, const Tensor& x,
                              int64_t num_samples) {
  STWA_CHECK(num_samples >= 2, "need at least 2 samples for a spread");
  STWA_CHECK(model.config().latent_mode != LatentMode::kNone &&
                 model.config().stochastic,
             "MonteCarloForecast requires a stochastic ST-aware model");
  // Sampling needs training=true (latent noise) but never gradients:
  // skip tape construction for all num_samples forward passes.
  ag::NoGradMode no_grad;
  McForecast out;
  out.num_samples = num_samples;
  Tensor sum;
  Tensor sum_sq;
  for (int64_t s = 0; s < num_samples; ++s) {
    // training=true activates latent sampling; parameters are not updated.
    Tensor pred = model.Forward(x, /*training=*/true).value();
    if (s == 0) {
      sum = pred.Clone();
      sum_sq = ops::Square(pred);
    } else {
      ops::AddInPlace(sum, pred);
      ops::AddInPlace(sum_sq, ops::Square(pred));
    }
  }
  const float inv = 1.0f / static_cast<float>(num_samples);
  out.mean = ops::MulScalar(sum, inv);
  // Var = E[x^2] - E[x]^2, clamped at 0 against rounding.
  Tensor var = ops::Sub(ops::MulScalar(sum_sq, inv), ops::Square(out.mean));
  out.stddev = ops::UnaryMap(
      var, [](float v) { return std::sqrt(std::max(v, 0.0f)); });
  return out;
}

}  // namespace core
}  // namespace stwa
