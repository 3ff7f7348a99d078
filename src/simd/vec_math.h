// Vectorized transcendental kernels (exp / tanh / sigmoid) plus the
// functors tensor/ops.cc feeds to the elementwise maps.
//
// ExpV is the classic Cephes single-precision expf: range-clamp, split
// x = n*ln2 + r with a Cody-Waite two-constant reduction, a degree-5
// polynomial for e^r on |r| <= ln2/2, and a 2^n scale built straight in
// the exponent field (Vec::Pow2). Max relative error is ~2 ulp across the
// clamp range, and ExpV(0) == 1 exactly (the polynomial collapses to
// 1 + 0), so SigmoidV(0) == 0.5 exactly.
//
// All three are lane-independent, so the partial-vector tail rule of
// simd.h applies unchanged.

#ifndef STWA_SIMD_VEC_MATH_H_
#define STWA_SIMD_VEC_MATH_H_

#include <algorithm>

#include "simd/simd.h"

namespace stwa {
namespace simd {

/// e^x per lane (Cephes polynomial; ~2 ulp, clamped to the finite range).
inline Vec ExpV(Vec x) {
  x = Vec::Min(x, Vec::Broadcast(88.3762626647950f));
  x = Vec::Max(x, Vec::Broadcast(-87.3365478515625f));
  // n = round(x / ln2); r = x - n*ln2 via two-constant Cody-Waite so the
  // reduction is exact to well below float epsilon.
  const Vec n = Vec::RoundNearest(x * Vec::Broadcast(1.44269504088896341f));
  x = Vec::Fma(n, Vec::Broadcast(-0.693359375f), x);
  x = Vec::Fma(n, Vec::Broadcast(2.12194440e-4f), x);
  // e^r = 1 + r + r^2 * P(r), P a degree-4 polynomial in Horner form.
  const Vec z = x * x;
  Vec p = Vec::Broadcast(1.9875691500e-4f);
  p = Vec::Fma(p, x, Vec::Broadcast(1.3981999507e-3f));
  p = Vec::Fma(p, x, Vec::Broadcast(8.3334519073e-3f));
  p = Vec::Fma(p, x, Vec::Broadcast(4.1665795894e-2f));
  p = Vec::Fma(p, x, Vec::Broadcast(1.6666665459e-1f));
  p = Vec::Fma(p, x, Vec::Broadcast(5.0000001201e-1f));
  p = Vec::Fma(p, z, x + Vec::Broadcast(1.0f));
  return p * Vec::Pow2(n);
}

/// tanh per lane via the exp identity: tanh(|x|) = 1 - 2/(e^(2|x|) + 1),
/// sign restored with CopySign. Exact 0 at x == 0; saturates to ±1 once
/// e^(2|x|) overflows float precision (|x| >~ 9), like std::tanh.
inline Vec TanhV(Vec x) {
  const Vec a = Vec::Abs(x);
  const Vec e = ExpV(a + a);
  const Vec t = Vec::Broadcast(1.0f) -
                Vec::Broadcast(2.0f) / (e + Vec::Broadcast(1.0f));
  return Vec::CopySign(t, x);
}

/// logistic sigmoid per lane: 1 / (1 + e^-x).
inline Vec SigmoidV(Vec x) {
  return Vec::Broadcast(1.0f) /
         (Vec::Broadcast(1.0f) + ExpV(Vec::Zero() - x));
}

// --- Elementwise functors -------------------------------------------------
//
// Every tier, the 1-lane one included, runs these through the vectorized
// maps. Unary functors take a Vec only. Binary functors also take two
// floats, for the generic-stride broadcast loop in tensor/ops.cc; both
// overloads compute the same arithmetic.

struct ExpOp {
  Vec operator()(Vec x) const { return ExpV(x); }
};

struct TanhOp {
  Vec operator()(Vec x) const { return TanhV(x); }
};

struct SigmoidOp {
  Vec operator()(Vec x) const { return SigmoidV(x); }
};

struct SqrtOp {
  Vec operator()(Vec x) const { return Vec::Sqrt(x); }
};

struct AbsOp {
  Vec operator()(Vec x) const { return Vec::Abs(x); }
};

struct NegOp {
  Vec operator()(Vec x) const { return Vec::Zero() - x; }
};

struct SquareOp {
  Vec operator()(Vec x) const { return x * x; }
};

struct ReluOp {
  Vec operator()(Vec x) const { return Vec::Max(x, Vec::Zero()); }
};

struct AddScalarOp {
  float s;
  Vec operator()(Vec x) const { return x + Vec::Broadcast(s); }
};

struct MulScalarOp {
  float s;
  Vec operator()(Vec x) const { return x * Vec::Broadcast(s); }
};

struct AddOp {
  float operator()(float x, float y) const { return x + y; }
  Vec operator()(Vec x, Vec y) const { return x + y; }
};

struct SubOp {
  float operator()(float x, float y) const { return x - y; }
  Vec operator()(Vec x, Vec y) const { return x - y; }
};

struct MulOp {
  float operator()(float x, float y) const { return x * y; }
  Vec operator()(Vec x, Vec y) const { return x * y; }
};

struct DivOp {
  float operator()(float x, float y) const { return x / y; }
  Vec operator()(Vec x, Vec y) const { return x / y; }
};

struct MaxOp {
  float operator()(float x, float y) const { return std::max(x, y); }
  Vec operator()(Vec x, Vec y) const { return Vec::Max(x, y); }
};

struct MinOp {
  float operator()(float x, float y) const { return std::min(x, y); }
  Vec operator()(Vec x, Vec y) const { return Vec::Min(x, y); }
};

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_VEC_MATH_H_
