#include "nn/init.h"

#include <cmath>

#include "common/check.h"

namespace stwa {
namespace nn {

Tensor XavierUniform(Shape shape, int64_t fan_in, int64_t fan_out,
                     Rng& rng) {
  STWA_CHECK(fan_in > 0 && fan_out > 0, "invalid fans");
  const float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::Rand(std::move(shape), rng, -a, a);
}

Tensor LecunUniform(Shape shape, int64_t fan_in, Rng& rng) {
  STWA_CHECK(fan_in > 0, "invalid fan_in");
  const float a = 1.0f / std::sqrt(static_cast<float>(fan_in));
  return Tensor::Rand(std::move(shape), rng, -a, a);
}

}  // namespace nn
}  // namespace stwa
