// The KL term of the ST-WA objective (paper Eq. 20). train::StepEngine
// builds the full Huber + alpha * KL loss itself.

#ifndef STWA_CORE_LOSS_H_
#define STWA_CORE_LOSS_H_

#include "autograd/ops.h"

namespace stwa {
namespace core {

/// Analytic KL( N(mean, var) || N(0, I) ) for diagonal Gaussians, averaged
/// over all elements: 0.5 * mean(mean^2 + var - log(var) - 1).
ag::Var GaussianKlToStdNormal(const ag::Var& mean, const ag::Var& var);

}  // namespace core
}  // namespace stwa

#endif  // STWA_CORE_LOSS_H_
