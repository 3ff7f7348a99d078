#include "analysis/pca.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace stwa {
namespace analysis {

Tensor Pca(const Tensor& x, int64_t components, int64_t iterations) {
  STWA_CHECK(x.rank() == 2, "Pca expects [n, d]");
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  STWA_CHECK(components >= 1 && components <= d, "bad component count");
  // Centre the data.
  Tensor mean = ops::Mean(x, 0, /*keepdims=*/true);
  Tensor centred = ops::Sub(x, mean);
  // Covariance [d, d].
  Tensor cov = ops::MulScalar(
      ops::MatMul(ops::TransposeLast2(centred), centred),
      1.0f / static_cast<float>(std::max<int64_t>(1, n - 1)));

  std::vector<std::vector<float>> dirs;
  for (int64_t c = 0; c < components; ++c) {
    // Deterministic start: unit vector along axis c (plus tiny spread).
    std::vector<float> v(d, 1e-3f);
    v[c % d] = 1.0f;
    for (int64_t it = 0; it < iterations; ++it) {
      // w = C v, then orthogonalise against earlier directions.
      std::vector<float> w(d, 0.0f);
      for (int64_t i = 0; i < d; ++i) {
        float acc = 0.0f;
        for (int64_t j = 0; j < d; ++j) acc += cov({i, j}) * v[j];
        w[i] = acc;
      }
      for (const auto& u : dirs) {
        float dot = 0.0f;
        for (int64_t i = 0; i < d; ++i) dot += w[i] * u[i];
        for (int64_t i = 0; i < d; ++i) w[i] -= dot * u[i];
      }
      float norm = 0.0f;
      for (float wi : w) norm += wi * wi;
      norm = std::sqrt(norm);
      if (norm < 1e-12f) break;
      for (int64_t i = 0; i < d; ++i) v[i] = w[i] / norm;
    }
    dirs.push_back(v);
  }
  Tensor out(Shape{n, components});
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < components; ++c) {
      float acc = 0.0f;
      for (int64_t j = 0; j < d; ++j) acc += centred({r, j}) * dirs[c][j];
      out({r, c}) = acc;
    }
  }
  return out;
}

}  // namespace analysis
}  // namespace stwa
