// Reduced-precision GEMM: prepacked bf16 / int8 weight panels and the
// microkernels that consume them (DESIGN.md §4g).
//
// Both tiers narrow only the *weight* (op(B)) operand of C = op(A) @ op(B);
// activations and C stay fp32:
//   * bf16 — weights packed as 16-bit truncated/rounded binary32 panels,
//     widened back to fp32 inside the microkernel; every C element is the
//     same k-ascending fma(a, widen(b), acc) chain as a scalar loop using
//     simd::MulAddRef, so the kernel is bit-identical to GemmBf16Ref
//     within one build.
//   * int8 — weights quantized per output channel (symmetric); activations
//     quantized per op(A) row on the fly; the multiply-accumulate is exact
//     integer arithmetic (dpbusd with an unsigned-offset correction,
//     pmaddwd on plain AVX2, or a scalar loop — all produce the same
//     int32 dot), so the integer part is bit-identical across ISA tiers
//     and the only rounding is the fixed-order fp32 dequant of the C tile.
//
// Panels are packed once (PackWeights — serving sessions do this at open
// and cache the result, see tensor/lowp_cache.h); the per-call cost is
// A-side only. Panel layout is build-specific (panel width kLowpNR), so
// packs must never be serialized — only the int8 scales are (serialize
// v3 metadata).
//
// Determinism: all loops assign work by index (panel jp covers columns
// [jp*NR, jp*NR+NR)), C tiles are disjoint, and K is never split across
// threads, so results are bit-identical across thread counts, batching
// and plan/fusion modes within one build — the same contract as
// simd/gemm.h, per tier.

#ifndef STWA_SIMD_GEMM_LOWP_H_
#define STWA_SIMD_GEMM_LOWP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "simd/lowp.h"
#include "simd/simd.h"

namespace stwa {
namespace simd {

/// int8 quantisation range: symmetric [-127, 127] (scale = absmax / 127).
constexpr int kInt8QMax = 127;

/// Weight panels for one GEMM weight operand in one precision tier.
/// Logical shape is op(B) = [k, n] (n = output channels); `trans` records
/// that the source buffer was stored [n, k] (the MatMulNT orientation).
struct PackedWeights {
  Precision tier = Precision::kFp32;
  int64_t k = 0;
  int64_t n = 0;
  bool trans = false;
  int64_t nr = 0;  ///< panel width the build packed with (kLowpNR)

  /// bf16 tier: num_panels x [k][nr] zero-padded column panels.
  std::vector<uint16_t> bf16;

  /// int8 tier, quad layout: num_panels x [ceil(k/4)][nr*4] — for each
  /// panel column, 4 consecutive k values are adjacent bytes (the dpbusd
  /// operand order); zero-padded in both k and n.
  std::vector<int8_t> q8;
  /// int8 tier, pair layout widened to i16 for the AVX2 pmaddwd kernel:
  /// num_panels x [ceil(k/2)][nr*2]. Only populated on that build tier.
  std::vector<int16_t> q16;
  /// Per output channel: dequant scale (absmax/127) and column sum of the
  /// quantized weights (the unsigned-offset correction term). Length n.
  std::vector<float> scales;
  std::vector<int32_t> colsum;

  int64_t num_panels() const { return (n + nr - 1) / nr; }
  /// Bytes held by the packed panels (footprint accounting).
  int64_t PanelBytes() const;
};

/// Per-output-channel absmax of a [k, n] (or [n, k] with trans) weight
/// buffer; length n. This is the quantity checkpoint save bakes scales
/// from, so it is shared between save-time and open-time scale paths.
std::vector<float> ChannelAbsMax(const float* b, int64_t k, int64_t n,
                                 bool trans);

/// Per-channel symmetric int8 scales: Int8Scale(absmax_j, kInt8QMax).
std::vector<float> Int8ChannelScales(const float* b, int64_t k, int64_t n,
                                     bool trans);

/// Packs a weight buffer into panels for `tier` (kBf16 or kInt8).
/// For int8, `scales` supplies baked per-channel scales (length n); pass
/// nullptr to compute them from the buffer (bit-identical to the baked
/// path — same formula over the same floats). bf16 packs round to
/// nearest-even.
std::shared_ptr<PackedWeights> PackWeights(const float* b, int64_t k,
                                           int64_t n, bool trans,
                                           Precision tier,
                                           const std::vector<float>* scales);

/// C[m, n] = op(A) @ op(B) with op(B) prepacked; op(A) is a[m, k] (or
/// a[k, m] with trans_a). Writes every C element (safe on uninit storage).
/// Parallelises internally; deterministic per the header contract.
void GemmLowp(const float* a, const PackedWeights& w, float* c, int64_t m,
              bool trans_a);

/// Scalar references (always compiled; tests pin the kernels to these).
/// GemmBf16Ref accumulates with simd::MulAddRef so it is bit-exact vs the
/// vector kernel within one build; GemmInt8Ref reproduces the kernels'
/// exact integer dots and fixed-order dequant.
void GemmBf16Ref(const float* a, const PackedWeights& w, float* c,
                 int64_t m, bool trans_a);
void GemmInt8Ref(const float* a, const PackedWeights& w, float* c,
                 int64_t m, bool trans_a);

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_GEMM_LOWP_H_
