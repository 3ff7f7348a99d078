// Parameter initialisation schemes.

#ifndef STWA_NN_INIT_H_
#define STWA_NN_INIT_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace stwa {
namespace nn {

/// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
Tensor XavierUniform(Shape shape, int64_t fan_in, int64_t fan_out, Rng& rng);

/// PyTorch-Linear-style default: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
Tensor LecunUniform(Shape shape, int64_t fan_in, Rng& rng);

}  // namespace nn
}  // namespace stwa

#endif  // STWA_NN_INIT_H_
