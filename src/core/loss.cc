#include "core/loss.h"

namespace stwa {
namespace core {

ag::Var GaussianKlToStdNormal(const ag::Var& mean, const ag::Var& var) {
  ag::Var term = ag::Sub(ag::Add(ag::Square(mean), var),
                         ag::AddScalar(ag::Log(var), 1.0f));
  return ag::MulScalar(ag::MeanAll(term), 0.5f);
}

}  // namespace core
}  // namespace stwa
