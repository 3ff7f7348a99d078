// Portable SIMD abstraction: a fixed-width float vector selected at
// compile time.
//
// One ISA tier is chosen per build (widest first):
//   AVX2+FMA (8 lanes) -> SSE2 (4 lanes, fma = mul+add) -> NEON/aarch64
//   (4 lanes) -> scalar (1 lane).
// -DSTWA_NO_SIMD=1 (CMake option STWA_NO_SIMD) forces the 1-lane tier,
// the only one on hosts with neither SSE2 nor NEON. Every tier runs the
// same kernels; only Vec::kWidth and the lane operations differ.
//
// Determinism contract (DESIGN.md §4e): every Vec operation is
// lane-independent except the Reduce* helpers, which combine lanes in a
// fixed pairwise tree. Kernels built on Vec must handle ragged tails with
// LoadPartial/StorePartial/MaskFirstN rather than scalar remainder loops —
// ParallelFor chunk boundaries move with the thread count, and only
// lane-independent tails keep results bit-identical across chunkings. On
// the AVX2 tier the three helpers are single masked instructions
// (maskload/maskstore with a lane mask from a static table, one blendv
// for a pad or fill); masked lanes neither fault nor write. The other
// tiers have no masked load and go through a padded stack copy. Either
// way every lane holds the same bits. Which values the pad lanes hold
// never matters: they are masked off by StorePartial/MaskFirstN, or chosen
// as the reduction identity (0 for add with mul/fma, -inf for max).
//
// Within one build configuration results are bit-identical across thread
// counts, pool on/off and plan on/off. Across build configurations
// (SIMD vs STWA_NO_SIMD, or different ISA tiers) low-order bits may
// differ -- compare under tolerance, never memcmp.

#ifndef STWA_SIMD_SIMD_H_
#define STWA_SIMD_SIMD_H_

#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>

#if defined(STWA_NO_SIMD)
// Forced scalar tier; no vector headers.
#elif defined(__AVX2__) && defined(__FMA__)
#define STWA_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define STWA_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define STWA_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace stwa {
namespace simd {

#if defined(STWA_SIMD_AVX2)

struct Vec {
  __m256 v;
  static constexpr int64_t kWidth = 8;

  static Vec Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static Vec Zero() { return {_mm256_setzero_ps()}; }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_ps(a.v, b.v)}; }

  static Vec Min(Vec a, Vec b) { return {_mm256_min_ps(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {_mm256_max_ps(a.v, b.v)}; }
  /// a*b + c with a single rounding (hardware FMA).
  static Vec Fma(Vec a, Vec b, Vec c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  static Vec Sqrt(Vec a) { return {_mm256_sqrt_ps(a.v)}; }
  static Vec Abs(Vec a) {
    return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
  }
  /// Magnitude of `mag` with the sign bit of `sgn`.
  static Vec CopySign(Vec mag, Vec sgn) {
    const __m256 sign = _mm256_set1_ps(-0.0f);
    return {_mm256_or_ps(_mm256_andnot_ps(sign, mag.v),
                         _mm256_and_ps(sign, sgn.v))};
  }
  /// All-ones lane mask where a > b (a <= b), else all-zeros.
  static Vec CmpGt(Vec a, Vec b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
  }
  static Vec CmpLe(Vec a, Vec b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)};
  }
  /// Lane-wise mask ? a : b.
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {_mm256_blendv_ps(b.v, a.v, mask.v)};
  }
  /// Round to nearest (ties to even); |x| must be < 2^31.
  static Vec RoundNearest(Vec a) {
    return {_mm256_round_ps(a.v, _MM_FROUND_TO_NEAREST_INT |
                                     _MM_FROUND_NO_EXC)};
  }
  /// 2^n for integral-valued lanes n in [-126, 127] (exponent-field build).
  static Vec Pow2(Vec n) {
    const __m256i ni = _mm256_cvtps_epi32(n.v);
    const __m256i e =
        _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
    return {_mm256_castsi256_ps(e)};
  }
};

inline const char* IsaName() { return "avx2-fma"; }
/// True when Vec::Fma contracts to a single-rounding hardware FMA (test
/// references must accumulate with std::fmaf to match bitwise).
constexpr bool kHasFma = true;

#elif defined(STWA_SIMD_SSE2)

struct Vec {
  __m128 v;
  static constexpr int64_t kWidth = 4;

  static Vec Load(const float* p) { return {_mm_loadu_ps(p)}; }
  void Store(float* p) const { _mm_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return {_mm_set1_ps(x)}; }
  static Vec Zero() { return {_mm_setzero_ps()}; }

  friend Vec operator+(Vec a, Vec b) { return {_mm_add_ps(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm_div_ps(a.v, b.v)}; }

  static Vec Min(Vec a, Vec b) { return {_mm_min_ps(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {_mm_max_ps(a.v, b.v)}; }
  /// No hardware FMA on this tier: explicit mul then add (two roundings),
  /// bit-identical to the scalar `a*b + c` the references use.
  static Vec Fma(Vec a, Vec b, Vec c) {
    return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
  }
  static Vec Sqrt(Vec a) { return {_mm_sqrt_ps(a.v)}; }
  static Vec Abs(Vec a) {
    return {_mm_andnot_ps(_mm_set1_ps(-0.0f), a.v)};
  }
  static Vec CopySign(Vec mag, Vec sgn) {
    const __m128 sign = _mm_set1_ps(-0.0f);
    return {_mm_or_ps(_mm_andnot_ps(sign, mag.v), _mm_and_ps(sign, sgn.v))};
  }
  static Vec CmpGt(Vec a, Vec b) { return {_mm_cmpgt_ps(a.v, b.v)}; }
  static Vec CmpLe(Vec a, Vec b) { return {_mm_cmple_ps(a.v, b.v)}; }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {_mm_or_ps(_mm_and_ps(mask.v, a.v),
                      _mm_andnot_ps(mask.v, b.v))};
  }
  /// cvtps_epi32 rounds to nearest-even under the default MXCSR mode.
  static Vec RoundNearest(Vec a) {
    return {_mm_cvtepi32_ps(_mm_cvtps_epi32(a.v))};
  }
  static Vec Pow2(Vec n) {
    const __m128i ni = _mm_cvtps_epi32(n.v);
    const __m128i e =
        _mm_slli_epi32(_mm_add_epi32(ni, _mm_set1_epi32(127)), 23);
    return {_mm_castsi128_ps(e)};
  }
};

inline const char* IsaName() { return "sse2"; }
constexpr bool kHasFma = false;

#elif defined(STWA_SIMD_NEON)

struct Vec {
  float32x4_t v;
  static constexpr int64_t kWidth = 4;

  static Vec Load(const float* p) { return {vld1q_f32(p)}; }
  void Store(float* p) const { vst1q_f32(p, v); }
  static Vec Broadcast(float x) { return {vdupq_n_f32(x)}; }
  static Vec Zero() { return {vdupq_n_f32(0.0f)}; }

  friend Vec operator+(Vec a, Vec b) { return {vaddq_f32(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {vsubq_f32(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {vmulq_f32(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {vdivq_f32(a.v, b.v)}; }

  static Vec Min(Vec a, Vec b) { return {vminq_f32(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {vmaxq_f32(a.v, b.v)}; }
  static Vec Fma(Vec a, Vec b, Vec c) { return {vfmaq_f32(c.v, a.v, b.v)}; }
  static Vec Sqrt(Vec a) { return {vsqrtq_f32(a.v)}; }
  static Vec Abs(Vec a) { return {vabsq_f32(a.v)}; }
  static Vec CopySign(Vec mag, Vec sgn) {
    const uint32x4_t sign = vdupq_n_u32(0x80000000u);
    return {vreinterpretq_f32_u32(
        vorrq_u32(vbicq_u32(vreinterpretq_u32_f32(mag.v), sign),
                  vandq_u32(vreinterpretq_u32_f32(sgn.v), sign)))};
  }
  static Vec CmpGt(Vec a, Vec b) {
    return {vreinterpretq_f32_u32(vcgtq_f32(a.v, b.v))};
  }
  static Vec CmpLe(Vec a, Vec b) {
    return {vreinterpretq_f32_u32(vcleq_f32(a.v, b.v))};
  }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {vbslq_f32(vreinterpretq_u32_f32(mask.v), a.v, b.v)};
  }
  static Vec RoundNearest(Vec a) { return {vrndnq_f32(a.v)}; }
  static Vec Pow2(Vec n) {
    const int32x4_t ni = vcvtnq_s32_f32(n.v);
    const int32x4_t e = vshlq_n_s32(vaddq_s32(ni, vdupq_n_s32(127)), 23);
    return {vreinterpretq_f32_s32(e)};
  }
};

inline const char* IsaName() { return "neon"; }
constexpr bool kHasFma = true;

#else  // scalar tier

// On a target with a hardware FMA the compiler may contract a plain
// `a*b + c` into it at some call sites and not others; Fma then calls
// fmaf explicitly, so every site (and MulAddRef) rounds once.
#if defined(__FP_FAST_FMAF)
constexpr bool kHasFma = true;
#else
constexpr bool kHasFma = false;
#endif

struct Vec {
  float v;
  static constexpr int64_t kWidth = 1;

  static Vec Load(const float* p) { return {*p}; }
  void Store(float* p) const { *p = v; }
  static Vec Broadcast(float x) { return {x}; }
  static Vec Zero() { return {0.0f}; }

  friend Vec operator+(Vec a, Vec b) { return {a.v + b.v}; }
  friend Vec operator-(Vec a, Vec b) { return {a.v - b.v}; }
  friend Vec operator*(Vec a, Vec b) { return {a.v * b.v}; }
  friend Vec operator/(Vec a, Vec b) { return {a.v / b.v}; }

  static Vec Min(Vec a, Vec b) { return {a.v < b.v ? a.v : b.v}; }
  static Vec Max(Vec a, Vec b) { return {a.v > b.v ? a.v : b.v}; }
  static Vec Fma(Vec a, Vec b, Vec c) {
    if constexpr (kHasFma) {
      return {std::fmaf(a.v, b.v, c.v)};
    } else {
      return {a.v * b.v + c.v};
    }
  }
  static Vec Sqrt(Vec a) { return {std::sqrt(a.v)}; }
  static Vec Abs(Vec a) { return {std::fabs(a.v)}; }
  static Vec CopySign(Vec mag, Vec sgn) {
    return {std::copysign(mag.v, sgn.v)};
  }
  // Masks are all-ones / all-zeros bit patterns, as on the vector tiers.
  static Vec CmpGt(Vec a, Vec b) { return FromMask(a.v > b.v); }
  static Vec CmpLe(Vec a, Vec b) { return FromMask(a.v <= b.v); }
  static Vec Select(Vec mask, Vec a, Vec b) {
    uint32_t m;
    std::memcpy(&m, &mask.v, sizeof(m));
    return m ? a : b;
  }
  static Vec RoundNearest(Vec a) { return {std::nearbyintf(a.v)}; }
  static Vec Pow2(Vec n) {
    return {std::ldexp(1.0f, static_cast<int>(std::nearbyintf(n.v)))};
  }

 private:
  static Vec FromMask(bool cond) {
    const uint32_t m = cond ? 0xFFFFFFFFu : 0u;
    float f;
    std::memcpy(&f, &m, sizeof(f));
    return {f};
  }
};

inline const char* IsaName() { return "scalar"; }

#endif

// --- Ragged-tail helpers --------------------------------------------------
//
// LoadPartial loads the first `n` floats of `p` (0 <= n <= kWidth) into the
// low lanes; the remaining lanes hold `pad` and memory past p + n is never
// read. StorePartial stores the first `n` lanes of `v` to `p` and leaves
// memory past p + n untouched. MaskFirstN replaces lanes [n, kWidth) with
// `fill`, to mask ragged-tail pad lanes out of a reduction whose identity
// is `fill`. Pads and fills keep their exact bits (-0.0f, -inf, NaN).

#if defined(STWA_SIMD_AVX2)

namespace internal {
// Eight all-ones lanes then eight zero lanes (one cache line): the 8 ints
// starting at kTailMask + 8 - n are the lane mask selecting the first n
// lanes.
alignas(64) inline constexpr int32_t kTailMask[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

inline __m256i TailMask(int64_t n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + Vec::kWidth - n));
}
}  // namespace internal

inline Vec LoadPartial(const float* p, int64_t n, float pad = 0.0f) {
  const __m256i mask = internal::TailMask(n);
  const __m256 v = _mm256_maskload_ps(p, mask);  // masked lanes read as +0
  if (std::bit_cast<uint32_t>(pad) == 0) return {v};
  return {_mm256_blendv_ps(_mm256_set1_ps(pad), v, _mm256_castsi256_ps(mask))};
}

inline void StorePartial(Vec v, float* p, int64_t n) {
  _mm256_maskstore_ps(p, internal::TailMask(n), v.v);
}

inline Vec MaskFirstN(Vec v, int64_t n, float fill = 0.0f) {
  return {_mm256_blendv_ps(_mm256_set1_ps(fill), v.v,
                           _mm256_castsi256_ps(internal::TailMask(n)))};
}

#else

inline Vec LoadPartial(const float* p, int64_t n, float pad = 0.0f) {
  alignas(64) float tmp[Vec::kWidth];
  for (int64_t i = 0; i < Vec::kWidth; ++i) tmp[i] = pad;
  std::memcpy(tmp, p, static_cast<size_t>(n) * sizeof(float));
  return Vec::Load(tmp);
}

inline void StorePartial(Vec v, float* p, int64_t n) {
  alignas(64) float tmp[Vec::kWidth];
  v.Store(tmp);
  std::memcpy(p, tmp, static_cast<size_t>(n) * sizeof(float));
}

inline Vec MaskFirstN(Vec v, int64_t n, float fill = 0.0f) {
  alignas(64) float tmp[Vec::kWidth];
  v.Store(tmp);
  for (int64_t i = n; i < Vec::kWidth; ++i) tmp[i] = fill;
  return Vec::Load(tmp);
}

#endif

/// Sum of all lanes in a fixed pairwise tree: width 8 combines as
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); width 4 as (l0+l1)+(l2+l3).
/// The order never depends on runtime state, so reductions built on it
/// are deterministic at any thread count.
inline float ReduceAdd(Vec v) {
  alignas(64) float t[Vec::kWidth];
  v.Store(t);
  if constexpr (Vec::kWidth == 8) {
    return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
  } else if constexpr (Vec::kWidth == 4) {
    return (t[0] + t[1]) + (t[2] + t[3]);
  } else {
    return t[0];
  }
}

/// Max over all lanes (same fixed tree; max is exact so the order only
/// matters for NaN propagation).
inline float ReduceMax(Vec v) {
  alignas(64) float t[Vec::kWidth];
  v.Store(t);
  float m = t[0];
  for (int64_t i = 1; i < Vec::kWidth; ++i) m = m > t[i] ? m : t[i];
  return m;
}

/// Reference multiply-accumulate matching the active tier's Vec::Fma
/// rounding: one rounding (std::fmaf) on FMA tiers, two (mul then add)
/// otherwise. Tests build bit-exact GEMM references with this.
inline float MulAddRef(float a, float b, float acc) {
  if constexpr (kHasFma) {
    return std::fmaf(a, b, acc);
  } else {
    return a * b + acc;
  }
}

// --- Functor introspection ----------------------------------------------
//
// The templated elementwise maps in tensor/ops.h take the Vec loop when
// their functor also accepts Vec operands; plain scalar lambdas (and the
// std::function escape hatches) keep the scalar loop.

template <typename Fn>
inline constexpr bool kIsVecUnary =
    requires(const Fn& f, Vec v) { { f(v) } -> std::same_as<Vec>; };

template <typename Fn>
inline constexpr bool kIsVecBinary =
    requires(const Fn& f, Vec v) { { f(v, v) } -> std::same_as<Vec>; };

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_SIMD_H_
