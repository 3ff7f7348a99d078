#include "simd/gemm_lowp.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/buffer_pool.h"

// Kernel tier selection. Inside an AVX2 build, AVX-512 (F+BW for the
// widening loads, VNNI for dpbusd) upgrades both microkernels to 512-bit
// vectors — double the fp32 FMA throughput of the 256-bit fp32 path on
// hosts with two 512-bit FMA pipes, which is what makes the bf16 tier
// *faster* than fp32 despite widening in-kernel. Without AVX-512 the
// 256-bit fallbacks (widen+FMA for bf16, pmaddwd for int8) keep the same
// arithmetic; non-AVX2 builds use the scalar reference paths.
#if defined(STWA_SIMD_AVX2) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define STWA_LOWP_AVX512 1
#endif

namespace stwa {
namespace simd {
namespace {

constexpr int64_t kLowpMR = 6;
#if defined(STWA_LOWP_AVX512)
constexpr int64_t kLowpNR = 32;
// The bf16 kernel runs taller tiles than int8: its per-k overhead is the
// two widening shuffles, so amortising them over 12 rows (24 of the 32
// zmm registers as accumulators) buys ~10% over 6 rows.
constexpr int64_t kBf16MR = 12;
#elif defined(STWA_SIMD_AVX2)
constexpr int64_t kLowpNR = 16;
constexpr int64_t kBf16MR = kLowpMR;
#else
constexpr int64_t kLowpNR = 1;  // column-major panels for the scalar tier
constexpr int64_t kBf16MR = kLowpMR;
#endif

// Word offset of logical column `c` within one k-row of a bf16 panel.
// The AVX-512 kernel widens a panel row with vpunpck{l,h}wd against
// zeros — one shuffle per output vector instead of three — but those
// interleave within 128-bit sublanes. Storing the columns pre-permuted
// makes the widened vectors come out in natural column order, so the
// epilogue masks and the scalar reference agree on which column is
// which. Identity on every other tier.
inline int64_t Bf16PanelWord(int64_t c) {
#if defined(STWA_LOWP_AVX512)
  const int64_t h = c / 16;  // 0 → vpunpcklwd vector, 1 → vpunpckhwd
  const int64_t e = c % 16;
  return 8 * (e / 4) + 4 * h + e % 4;
#else
  return c;
#endif
}

inline float OpA(const float* a, int64_t i, int64_t kk, int64_t k,
                 int64_t m, bool trans_a) {
  return trans_a ? a[kk * m + i] : a[i * k + kk];
}

// Packs op(A) rows [i0, i0+rows) into dst[k][mr] (k-major, zero row
// padding) — the same tile shape the fp32 packed path uses, so the
// microkernel broadcasts from a contiguous sliver.
void PackATileF32(const float* a, float* dst, int64_t i0, int64_t rows,
                  int64_t mr, int64_t m, int64_t k, bool trans_a) {
  if (!trans_a) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = a + (i0 + r) * k;
      for (int64_t kk = 0; kk < k; ++kk) dst[kk * mr + r] = src[kk];
    }
  } else {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * m + i0;
      for (int64_t r = 0; r < rows; ++r) dst[kk * mr + r] = src[r];
    }
  }
  if (rows < mr) {
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t r = rows; r < mr; ++r) dst[kk * mr + r] = 0.0f;
    }
  }
}

// Per-row symmetric int8 quantisation of op(A) into a row-major scratch.
// Row absmax is an exact max reduction in ascending k order and the
// quantiser rounds to nearest-even, so the bytes are identical however the
// rows are chunked across threads — and identical to what GemmInt8Ref
// computes.
template <typename Q, int kOffset>
void QuantizeOpA(const float* a, int64_t m, int64_t k, bool trans_a,
                 Q* qa, int64_t stride, float* sa) {
  runtime::ParallelFor(
      0, m, runtime::Grain(k),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float absmax = 0.0f;
          for (int64_t kk = 0; kk < k; ++kk) {
            const float v = std::fabs(OpA(a, i, kk, k, m, trans_a));
            absmax = v > absmax ? v : absmax;
          }
          const float scale = Int8Scale(absmax, kInt8QMax);
          sa[i] = scale;
          Q* row = qa + i * stride;
          for (int64_t kk = 0; kk < k; ++kk) {
            const int8_t q =
                QuantizeInt8(OpA(a, i, kk, k, m, trans_a), scale, kInt8QMax);
            row[kk] = static_cast<Q>(q + kOffset);
          }
          for (int64_t kk = k; kk < stride; ++kk) {
            row[kk] = static_cast<Q>(kOffset);
          }
        }
      });
}

// --- Scalar implementations (reference on vector builds, production on
// --- scalar/SSE2/NEON builds) --------------------------------------------

void ScalarBf16(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  const int64_t nr = w.nr;
  runtime::ParallelFor(
      0, m, runtime::Grain(k * n),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* cr = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const uint16_t* col =
                w.bf16.data() + (j / nr) * k * nr + Bf16PanelWord(j % nr);
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk) {
              acc = MulAddRef(OpA(a, i, kk, k, m, trans_a),
                              F32FromBf16(col[kk * nr]), acc);
            }
            cr[j] = acc;
          }
        }
      });
}

// The integer dot is exact, so this reproduces the vector kernels'
// integers bit-for-bit; the dequant applies the same two fixed-order
// roundings ((sa*sb) then *dot) the kernels use.
void ScalarInt8(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  const int64_t nr = w.nr;
  const int64_t kq = (k + 3) / 4;
  const int64_t qa_floats = (m * k + 3) / 4;
  auto qbuf = pool::Acquire(qa_floats + m);
  int8_t* qa = reinterpret_cast<int8_t*>(qbuf->data());
  float* sa = qbuf->data() + qa_floats;
  QuantizeOpA<int8_t, 0>(a, m, k, trans_a, qa, k, sa);
  runtime::ParallelFor(
      0, m, runtime::Grain(k * n),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const int8_t* qr = qa + i * k;
          float* cr = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const int8_t* col =
                w.q8.data() + ((j / nr) * kq * nr + (j % nr)) * 4;
            int32_t dot = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
              dot += static_cast<int32_t>(qr[kk]) *
                     static_cast<int32_t>(col[(kk / 4) * nr * 4 + kk % 4]);
            }
            cr[j] = static_cast<float>(dot) * (sa[i] * w.scales[j]);
          }
        }
      });
}

// --- AVX-512 kernels -----------------------------------------------------

#if defined(STWA_LOWP_AVX512)

// 12 x 32 bf16 tile: same k-ascending fma(a, widen(b), acc) chain per C
// element as ScalarBf16's MulAddRef loop (kHasFma on this tier), so the
// two are bit-identical. Interleaving zeros below each panel word is
// exactly the <<16 widening, and the Bf16PanelWord pack permutation
// cancels the sublane interleave, so b0/b1 hold columns 0..15/16..31 in
// natural order.
void Bf16Tile512(const float* ap, const uint16_t* bp, float* c, int64_t ldc,
                 int64_t k, int64_t rows, int64_t cols) {
  const __m512i zero = _mm512_setzero_si512();
  __m512 acc[kBf16MR][2];
  for (int64_t r = 0; r < kBf16MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m512i raw = _mm512_loadu_si512(bp + kk * kLowpNR);
    const __m512 b0 = _mm512_castsi512_ps(_mm512_unpacklo_epi16(zero, raw));
    const __m512 b1 = _mm512_castsi512_ps(_mm512_unpackhi_epi16(zero, raw));
    const float* ar = ap + kk * kBf16MR;
    for (int64_t r = 0; r < kBf16MR; ++r) {
      const __m512 av = _mm512_set1_ps(ar[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  const __mmask16 m0 =
      cols >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << cols) - 1);
  const __mmask16 m1 =
      cols >= 32 ? 0xFFFF
                 : (cols > 16 ? static_cast<__mmask16>((1u << (cols - 16)) - 1)
                              : 0);
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    _mm512_mask_storeu_ps(cr, m0, acc[r][0]);
    if (m1) _mm512_mask_storeu_ps(cr + 16, m1, acc[r][1]);
  }
}

// 6 x 32 int8 tile via dpbusd: activations carry a +128 unsigned offset,
// corrected exactly with 128 * colsum after the loop, so the integer dots
// equal ScalarInt8's signed dots bit-for-bit.
void Int8Tile512(const uint8_t* const* qa_rows, const int8_t* bp,
                 const float* sa, const float* sb, const int32_t* csum,
                 float* c, int64_t ldc, int64_t kq, int64_t rows,
                 int64_t cols) {
  __m512i acc[kLowpMR][2];
  for (int64_t r = 0; r < kLowpMR; ++r) {
    acc[r][0] = _mm512_setzero_si512();
    acc[r][1] = _mm512_setzero_si512();
  }
  for (int64_t q = 0; q < kq; ++q) {
    const __m512i b0 = _mm512_loadu_si512(bp + q * kLowpNR * 4);
    const __m512i b1 = _mm512_loadu_si512(bp + q * kLowpNR * 4 + 64);
    for (int64_t r = 0; r < kLowpMR; ++r) {
      uint32_t quad;
      std::memcpy(&quad, qa_rows[r] + q * 4, sizeof(quad));
      const __m512i av = _mm512_set1_epi32(static_cast<int32_t>(quad));
      acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
      acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
    }
  }
  const __mmask16 m0 =
      cols >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << cols) - 1);
  const __mmask16 m1 =
      cols >= 32 ? 0xFFFF
                 : (cols > 16 ? static_cast<__mmask16>((1u << (cols - 16)) - 1)
                              : 0);
  const __m512i corr0 =
      _mm512_slli_epi32(_mm512_maskz_loadu_epi32(m0, csum), 7);
  const __m512i corr1 =
      _mm512_slli_epi32(_mm512_maskz_loadu_epi32(m1, csum + 16), 7);
  const __m512 sb0 = _mm512_maskz_loadu_ps(m0, sb);
  const __m512 sb1 = _mm512_maskz_loadu_ps(m1, sb + 16);
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    const __m512 sav = _mm512_set1_ps(sa[r]);
    const __m512 f0 = _mm512_mul_ps(
        _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][0], corr0)),
        _mm512_mul_ps(sav, sb0));
    _mm512_mask_storeu_ps(cr, m0, f0);
    if (m1) {
      const __m512 f1 = _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][1], corr1)),
          _mm512_mul_ps(sav, sb1));
      _mm512_mask_storeu_ps(cr + 16, m1, f1);
    }
  }
}

#elif defined(STWA_SIMD_AVX2)

// 6 x 16 bf16 tile, 256-bit: same chain shape as Bf16Tile512 (and
// ScalarBf16) at half the width.
void Bf16Tile256(const float* ap, const uint16_t* bp, float* c, int64_t ldc,
                 int64_t k, int64_t rows, int64_t cols) {
  __m256 acc[kLowpMR][2];
  for (int64_t r = 0; r < kLowpMR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + kk * kLowpNR));
    const __m256 b0 = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)), 16));
    const __m256 b1 = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_cvtepu16_epi32(_mm256_extracti128_si256(raw, 1)), 16));
    const float* ar = ap + kk * kLowpMR;
    for (int64_t r = 0; r < kLowpMR; ++r) {
      const __m256 av = _mm256_set1_ps(ar[r]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    if (cols >= kLowpNR) {
      _mm256_storeu_ps(cr, acc[r][0]);
      _mm256_storeu_ps(cr + 8, acc[r][1]);
    } else if (cols > 8) {
      _mm256_storeu_ps(cr, acc[r][0]);
      StorePartial(Vec{acc[r][1]}, cr + 8, cols - 8);
    } else {
      StorePartial(Vec{acc[r][0]}, cr, cols);
    }
  }
}

// 6 x 16 int8 tile via pmaddwd on i16-widened operands: exact i32
// accumulation, no unsigned offset needed, identical integers to
// ScalarInt8 / the VNNI kernel.
void Int8Tile256(const int16_t* const* qa_rows, const int16_t* bp,
                 const float* sa, const float* sb, float* c, int64_t ldc,
                 int64_t kp, int64_t rows, int64_t cols) {
  __m256i acc[kLowpMR][2];
  for (int64_t r = 0; r < kLowpMR; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (int64_t q = 0; q < kp; ++q) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kLowpNR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kLowpNR * 2 + 16));
    for (int64_t r = 0; r < kLowpMR; ++r) {
      uint32_t pair;
      std::memcpy(&pair, qa_rows[r] + q * 2, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(static_cast<int32_t>(pair));
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  const int64_t c0 = std::min<int64_t>(cols, 8);
  const int64_t c1 = std::max<int64_t>(cols - 8, 0);
  const Vec sb0 = LoadPartial(sb, c0);
  const Vec sb1 = c1 > 0 ? LoadPartial(sb + 8, c1) : Vec::Zero();
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    const Vec sav = Vec::Broadcast(sa[r]);
    const Vec f0 = Vec{_mm256_cvtepi32_ps(acc[r][0])} * (sav * sb0);
    StorePartial(f0, cr, c0);
    if (c1 > 0) {
      const Vec f1 = Vec{_mm256_cvtepi32_ps(acc[r][1])} * (sav * sb1);
      StorePartial(f1, cr + 8, c1);
    }
  }
}

#endif

#if defined(STWA_LOWP_AVX512) || defined(STWA_SIMD_AVX2)

void VectorBf16(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  const int64_t num_it = (m + kBf16MR - 1) / kBf16MR;
  auto ascratch = pool::Acquire(num_it * k * kBf16MR);
  float* pa = ascratch->data();
  runtime::ParallelFor(
      0, num_it, runtime::Grain(k * kBf16MR),
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t i0 = t * kBf16MR;
          PackATileF32(a, pa + t * k * kBf16MR, i0,
                       std::min(kBf16MR, m - i0), kBf16MR, m, k, trans_a);
        }
      });
  runtime::ParallelFor(
      0, w.num_panels(), runtime::Grain(k * kLowpNR * m),
      [&](int64_t p0, int64_t p1) {
        for (int64_t jp = p0; jp < p1; ++jp) {
          const int64_t j0 = jp * kLowpNR;
          const int64_t cols = std::min(kLowpNR, n - j0);
          const uint16_t* bp = w.bf16.data() + jp * k * kLowpNR;
          for (int64_t t = 0; t < num_it; ++t) {
            const int64_t i0 = t * kBf16MR;
#if defined(STWA_LOWP_AVX512)
            Bf16Tile512(pa + t * k * kBf16MR, bp, c + i0 * n + j0, n, k,
                        std::min(kBf16MR, m - i0), cols);
#else
            Bf16Tile256(pa + t * k * kBf16MR, bp, c + i0 * n + j0, n, k,
                        std::min(kBf16MR, m - i0), cols);
#endif
          }
        }
      });
}

void VectorInt8(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
#if defined(STWA_LOWP_AVX512)
  // Row-major u8 activations with the +128 offset, k padded to quads.
  using AQ = uint8_t;
  constexpr int kAOffset = 128;
  const int64_t stride = (k + 3) / 4 * 4;
#else
  // Row-major i16 activations (pmaddwd operand), k padded to pairs.
  using AQ = int16_t;
  constexpr int kAOffset = 0;
  const int64_t stride = (k + 1) / 2 * 2;
#endif
  const int64_t qa_floats =
      (m * stride * static_cast<int64_t>(sizeof(AQ)) + 3) / 4;
  auto qbuf = pool::Acquire(qa_floats + m);
  AQ* qa = reinterpret_cast<AQ*>(qbuf->data());
  float* sa = qbuf->data() + qa_floats;
  QuantizeOpA<AQ, kAOffset>(a, m, k, trans_a, qa, stride, sa);
  const int64_t num_it = (m + kLowpMR - 1) / kLowpMR;
  runtime::ParallelFor(
      0, w.num_panels(), runtime::Grain(k * kLowpNR * m),
      [&](int64_t p0, int64_t p1) {
        for (int64_t jp = p0; jp < p1; ++jp) {
          const int64_t j0 = jp * kLowpNR;
          const int64_t cols = std::min(kLowpNR, n - j0);
          for (int64_t t = 0; t < num_it; ++t) {
            const int64_t i0 = t * kLowpMR;
            const int64_t rows = std::min(kLowpMR, m - i0);
            const AQ* qa_rows[kLowpMR];
            float sat[kLowpMR];
            for (int64_t r = 0; r < kLowpMR; ++r) {
              // Pad rows point at the last valid row: read but never
              // stored.
              const int64_t i = std::min(i0 + r, m - 1);
              qa_rows[r] = qa + i * stride;
              sat[r] = sa[i];
            }
#if defined(STWA_LOWP_AVX512)
            Int8Tile512(qa_rows,
                        w.q8.data() + jp * ((k + 3) / 4) * kLowpNR * 4, sat,
                        w.scales.data() + j0, w.colsum.data() + j0,
                        c + i0 * n + j0, n, (k + 3) / 4, rows, cols);
#else
            Int8Tile256(qa_rows,
                        w.q16.data() + jp * ((k + 1) / 2) * kLowpNR * 2, sat,
                        w.scales.data() + j0, c + i0 * n + j0, n,
                        (k + 1) / 2, rows, cols);
#endif
          }
        }
      });
}

#endif  // vector builds

}  // namespace

int64_t PackedWeights::PanelBytes() const {
  return static_cast<int64_t>(bf16.size()) * 2 +
         static_cast<int64_t>(q8.size()) +
         static_cast<int64_t>(q16.size()) * 2 +
         static_cast<int64_t>(scales.size() + colsum.size()) * 4;
}

std::vector<float> ChannelAbsMax(const float* b, int64_t k, int64_t n,
                                 bool trans) {
  std::vector<float> out(static_cast<size_t>(n), 0.0f);
  if (!trans) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        const float v = std::fabs(row[j]);
        if (v > out[static_cast<size_t>(j)]) out[static_cast<size_t>(j)] = v;
      }
    }
  } else {
    for (int64_t j = 0; j < n; ++j) {
      const float* row = b + j * k;
      float mx = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float v = std::fabs(row[kk]);
        if (v > mx) mx = v;
      }
      out[static_cast<size_t>(j)] = mx;
    }
  }
  return out;
}

std::vector<float> Int8ChannelScales(const float* b, int64_t k, int64_t n,
                                     bool trans) {
  std::vector<float> scales = ChannelAbsMax(b, k, n, trans);
  for (float& s : scales) s = Int8Scale(s, kInt8QMax);
  return scales;
}

std::shared_ptr<PackedWeights> PackWeights(const float* b, int64_t k,
                                           int64_t n, bool trans,
                                           Precision tier,
                                           const std::vector<float>* scales) {
  STWA_CHECK(tier != Precision::kFp32,
             "PackWeights: fp32 weights are not packed — the fp32 GEMM "
             "path reads them in place");
  STWA_CHECK(k >= 0 && n >= 0, "PackWeights: bad dims k=", k, " n=", n);
  auto w = std::make_shared<PackedWeights>();
  w->tier = tier;
  w->k = k;
  w->n = n;
  w->trans = trans;
  w->nr = kLowpNR;
  const int64_t np = w->num_panels();
  auto src = [&](int64_t kk, int64_t j) {
    return trans ? b[j * k + kk] : b[kk * n + j];
  };
  if (tier == Precision::kBf16) {
    w->bf16.assign(static_cast<size_t>(np * k * kLowpNR), 0);
    for (int64_t j = 0; j < n; ++j) {
      uint16_t* col = w->bf16.data() + (j / kLowpNR) * k * kLowpNR +
                      Bf16PanelWord(j % kLowpNR);
      for (int64_t kk = 0; kk < k; ++kk) {
        col[kk * kLowpNR] = Bf16FromF32(src(kk, j));
      }
    }
    return w;
  }
  // int8: the i32 accumulators are exact only while k * max|ua*qb| fits;
  // 2^16 * 255 * 127 just clears INT32_MAX.
  STWA_CHECK(k <= (int64_t{1} << 16),
             "PackWeights: int8 GEMM supports k <= 65536, got ", k);
  if (scales != nullptr) {
    STWA_CHECK(static_cast<int64_t>(scales->size()) == n,
               "PackWeights: got ", scales->size(),
               " baked int8 scales for ", n, " output channels");
    w->scales = *scales;
  } else {
    w->scales = Int8ChannelScales(b, k, n, trans);
  }
  w->colsum.assign(static_cast<size_t>(n), 0);
  const int64_t kq = (k + 3) / 4;
  w->q8.assign(static_cast<size_t>(np * kq * kLowpNR * 4), 0);
  for (int64_t j = 0; j < n; ++j) {
    int8_t* col =
        w->q8.data() + ((j / kLowpNR) * kq * kLowpNR + j % kLowpNR) * 4;
    const float sb = w->scales[static_cast<size_t>(j)];
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int8_t q = QuantizeInt8(src(kk, j), sb, kInt8QMax);
      sum += q;
      col[(kk / 4) * kLowpNR * 4 + kk % 4] = q;
    }
    w->colsum[static_cast<size_t>(j)] = sum;
  }
#if defined(STWA_SIMD_AVX2) && !defined(STWA_LOWP_AVX512)
  // pmaddwd operand copy, widened to i16 in pair layout.
  const int64_t kp = (k + 1) / 2;
  w->q16.assign(static_cast<size_t>(np * kp * kLowpNR * 2), 0);
  for (int64_t j = 0; j < n; ++j) {
    const int8_t* col =
        w->q8.data() + ((j / kLowpNR) * kq * kLowpNR + j % kLowpNR) * 4;
    int16_t* dst =
        w->q16.data() + ((j / kLowpNR) * kp * kLowpNR + j % kLowpNR) * 2;
    for (int64_t kk = 0; kk < k; ++kk) {
      dst[(kk / 2) * kLowpNR * 2 + kk % 2] =
          col[(kk / 4) * kLowpNR * 4 + kk % 4];
    }
  }
#endif
  return w;
}

void GemmBf16Ref(const float* a, const PackedWeights& w, float* c, int64_t m,
                 bool trans_a) {
  ScalarBf16(a, w, c, m, trans_a);
}

void GemmInt8Ref(const float* a, const PackedWeights& w, float* c, int64_t m,
                 bool trans_a) {
  ScalarInt8(a, w, c, m, trans_a);
}

void GemmLowp(const float* a, const PackedWeights& w, float* c, int64_t m,
              bool trans_a) {
  STWA_CHECK(w.nr == kLowpNR,
             "GemmLowp: packed panels from a different build tier (nr=",
             w.nr, ", kernel expects ", kLowpNR, ")");
  if (m == 0 || w.n == 0) return;
  if (w.k == 0) {
    std::fill(c, c + m * w.n, 0.0f);
    return;
  }
#if defined(STWA_LOWP_AVX512) || defined(STWA_SIMD_AVX2)
  if (w.tier == Precision::kBf16) {
    VectorBf16(a, w, c, m, trans_a);
  } else {
    VectorInt8(a, w, c, m, trans_a);
  }
#else
  if (w.tier == Precision::kBf16) {
    ScalarBf16(a, w, c, m, trans_a);
  } else {
    ScalarInt8(a, w, c, m, trans_a);
  }
#endif
}

}  // namespace simd
}  // namespace stwa
