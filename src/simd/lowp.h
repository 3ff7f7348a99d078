// Reduced-precision value helpers: the serving precision tiers and the
// scalar bf16 / int8 conversion primitives the low-precision GEMM kernels
// (simd/gemm_lowp.h) are built on.
//
// Tiers (DESIGN.md §4g):
//   * fp32 — the default; every kernel in the library.
//   * bf16 — weights stored as the upper 16 bits of binary32, widened back
//     to fp32 in the GEMM microkernel; accumulation stays fp32.
//   * int8 — weights quantized per output channel (symmetric, scale =
//     absmax / 127); activations quantized per row on the fly; integer
//     multiply-accumulate with fp32 dequantisation of the C tile.
//
// Both narrow tiers are inference-only: they apply to GEMM *weight*
// operands registered by a serving session (tensor/lowp_cache.h) and never
// change training numerics.
//
// bf16 rounding: `Bf16FromF32` rounds to nearest-even. Truncation would be
// cheaper but biased — every mantissa shortened toward zero, so dot
// products lose magnitude systematically and the bias compounds across
// stacked layers instead of cancelling. RNE is unbiased at the same
// storage cost. NaNs are quietened before the shift so a NaN cannot
// become Inf.

#ifndef STWA_SIMD_LOWP_H_
#define STWA_SIMD_LOWP_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

namespace stwa {
namespace simd {

/// Serving GEMM precision tier.
enum class Precision { kFp32, kBf16, kInt8 };

/// Canonical lowercase tier name ("fp32" / "bf16" / "int8").
const char* PrecisionName(Precision p);

/// Parses a tier name (case-sensitive, the three canonical names).
/// Throws stwa::Error on anything else, listing the accepted values.
Precision ParsePrecision(const std::string& name);

// --- bf16 ----------------------------------------------------------------

/// binary32 -> bf16 (upper 16 bits), round-to-nearest-even.
inline uint16_t Bf16FromF32(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    // NaN: quieten and keep the payload's top bits so the result is still
    // a NaN after truncation.
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest-even on bit 16: add 0x7FFF + lsb-of-result.
  const uint32_t lsb = (bits >> 16) & 1u;
  return static_cast<uint16_t>((bits + 0x7FFFu + lsb) >> 16);
}

/// bf16 -> binary32 (exact: shift back into the upper half).
inline float F32FromBf16(uint16_t x) {
  const uint32_t bits = static_cast<uint32_t>(x) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// --- int8 ----------------------------------------------------------------

/// Symmetric quantisation scale for a value range: absmax / qmax. A zero,
/// denormal-underflowed or non-finite absmax yields scale 0, which the
/// quantiser treats as "every value quantises to 0" (dequantisation then
/// reproduces an all-zero channel exactly and never divides).
inline float Int8Scale(float absmax, int qmax) {
  if (!std::isfinite(absmax) || absmax <= 0.0f) return 0.0f;
  const float scale = absmax / static_cast<float>(qmax);
  return scale > 0.0f && std::isfinite(scale) ? scale : 0.0f;
}

/// Quantises one value with `scale` (from Int8Scale), clamping to
/// [-qmax, qmax]. Rounds to nearest-even to keep the error unbiased.
/// NaN quantises to 0 (a float->int cast of NaN or Inf is undefined, so
/// both are handled before the cast).
inline int8_t QuantizeInt8(float x, float scale, int qmax) {
  if (scale == 0.0f) return 0;
  const float q = std::nearbyintf(x / scale);
  if (std::isnan(q)) return 0;
  const float lim = static_cast<float>(qmax);
  const float clamped = q < -lim ? -lim : (q > lim ? lim : q);
  return static_cast<int8_t>(clamped);
}

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_LOWP_H_
