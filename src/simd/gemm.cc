#include "simd/gemm.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/buffer_pool.h"

namespace stwa {
namespace simd {
namespace {

constexpr int64_t kW = Vec::kWidth;
// Packed path pays one B repack + A tile packs per K block; below this
// flop count the row kernels win.
constexpr int64_t kPackedMinFlops = 128 * 1024;

// --- Packing -------------------------------------------------------------

// Packs rows [kb, kb+kc) of op(B) columns [j0, j0+kNR) into dst[kc][kNR],
// zero-padding columns past n. Pad columns are harmless: their lanes are
// never stored (lane independence), and zero is the FMA identity.
void PackBPanel(const float* b, float* dst, int64_t kb, int64_t kc,
                int64_t j0, int64_t n, int64_t k, bool trans_b) {
  const int64_t cols = std::min(kGemmNR, n - j0);
  if (!trans_b) {
    const float* src = b + kb * n + j0;
    float* d = dst;
    for (int64_t kk = 0; kk < kc; ++kk, src += n, d += kGemmNR) {
      int64_t j = 0;
      for (; j < cols; ++j) d[j] = src[j];
      for (; j < kGemmNR; ++j) d[j] = 0.0f;
    }
  } else {
    // b is [n, k]: op(B)[kb+kk][j0+j] = b[(j0+j)*k + kb+kk]. Iterate j
    // outer so each source row is read contiguously.
    for (int64_t j = 0; j < cols; ++j) {
      const float* src = b + (j0 + j) * k + kb;
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kGemmNR + j] = src[kk];
    }
    for (int64_t j = cols; j < kGemmNR; ++j) {
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kGemmNR + j] = 0.0f;
    }
  }
}

// Packs op(A) rows [i0, i0+rows) x k-range [kb, kb+kc) into dst[kc][kMR]
// (k-major so the microkernel broadcasts from a contiguous sliver),
// zero-padding rows past m. Pad rows accumulate zeros and are never
// stored.
void PackATile(const float* a, float* dst, int64_t i0, int64_t rows,
               int64_t kb, int64_t kc, int64_t m, int64_t k, bool trans_a) {
  if (!trans_a) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = a + (i0 + r) * k + kb;
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kGemmMR + r] = src[kk];
    }
  } else {
    // a is [k, m]: op(A)[i0+r][kb+kk] = a[(kb+kk)*m + i0+r].
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + (kb + kk) * m + i0;
      for (int64_t r = 0; r < rows; ++r) dst[kk * kGemmMR + r] = src[r];
    }
  }
  if (rows < kGemmMR) {
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t r = rows; r < kGemmMR; ++r) dst[kk * kGemmMR + r] = 0.0f;
    }
  }
}

// --- Microkernel ---------------------------------------------------------

// kMR x kNR register tile: C[0:rows, 0:cols] (+)= Apack @ Bpanel over kc
// k steps. `first` zeroes the accumulators; later K blocks reload the
// partial C values, which resumes each element's k-ascending FMA chain
// exactly (a load/store round trip does not round).
void MicroKernel(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t kc, bool first, int64_t rows, int64_t cols) {
  Vec acc[kGemmMR][2];
  for (int64_t r = 0; r < kGemmMR; ++r) {
    if (first || r >= rows) {
      acc[r][0] = Vec::Zero();
      acc[r][1] = Vec::Zero();
    } else {
      const float* cr = c + r * ldc;
      if (cols >= kGemmNR) {
        acc[r][0] = Vec::Load(cr);
        acc[r][1] = Vec::Load(cr + kW);
      } else if (cols > kW) {
        acc[r][0] = Vec::Load(cr);
        acc[r][1] = LoadPartial(cr + kW, cols - kW);
      } else {
        acc[r][0] = LoadPartial(cr, cols);
        acc[r][1] = Vec::Zero();
      }
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const Vec b0 = Vec::Load(bp + kk * kGemmNR);
    const Vec b1 = Vec::Load(bp + kk * kGemmNR + kW);
    const float* ar = ap + kk * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      const Vec av = Vec::Broadcast(ar[r]);
      acc[r][0] = Vec::Fma(av, b0, acc[r][0]);
      acc[r][1] = Vec::Fma(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    if (cols >= kGemmNR) {
      acc[r][0].Store(cr);
      acc[r][1].Store(cr + kW);
    } else if (cols > kW) {
      acc[r][0].Store(cr);
      StorePartial(acc[r][1], cr + kW, cols - kW);
    } else {
      StorePartial(acc[r][0], cr, cols);
    }
  }
}

void GemmPacked(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b) {
  const int64_t num_jp = (n + kGemmNR - 1) / kGemmNR;
  const int64_t num_it = (m + kGemmMR - 1) / kGemmMR;
  const int64_t kc_max = std::min(k, kGemmKC);
  // One panel set per K block, recycled through the buffer pool.
  auto bscratch = pool::Acquire(kc_max * num_jp * kGemmNR);
  auto ascratch = pool::Acquire(kc_max * num_it * kGemmMR);
  float* pb = bscratch->data();
  float* pa = ascratch->data();
  for (int64_t kb = 0; kb < k; kb += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - kb);
    runtime::ParallelFor(
        0, num_jp, runtime::Grain(kc * kGemmNR),
        [&](int64_t jp0, int64_t jp1) {
          for (int64_t jp = jp0; jp < jp1; ++jp) {
            PackBPanel(b, pb + jp * kc * kGemmNR, kb, kc, jp * kGemmNR, n,
                       k, trans_b);
          }
        });
    runtime::ParallelFor(
        0, num_it, runtime::Grain(kc * kGemmMR),
        [&](int64_t t0, int64_t t1) {
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t i0 = t * kGemmMR;
            PackATile(a, pa + t * kc * kGemmMR, i0,
                      std::min(kGemmMR, m - i0), kb, kc, m, k, trans_a);
          }
        });
    const bool first = kb == 0;
    // Panel-outer loop: one kc x kNR B panel stays cache-resident while
    // every packed A tile streams through it — far less B re-read traffic
    // than tile-outer. Work is fixed by index math (panel jp covers
    // columns [jp*NR, jp*NR+NR), tile t rows [t*MR, t*MR+MR)), never by
    // chunk phase, so results are chunking-independent.
    runtime::ParallelFor(
        0, num_jp, runtime::Grain(kc * kGemmNR * m),
        [&](int64_t jp0, int64_t jp1) {
          for (int64_t jp = jp0; jp < jp1; ++jp) {
            const float* bp = pb + jp * kc * kGemmNR;
            const int64_t j0 = jp * kGemmNR;
            const int64_t cols = std::min(kGemmNR, n - j0);
            for (int64_t t = 0; t < num_it; ++t) {
              const int64_t i0 = t * kGemmMR;
              MicroKernel(pa + t * kc * kGemmMR, bp, c + i0 * n + j0, n,
                          kc, first, std::min(kGemmMR, m - i0), cols);
            }
          }
        });
  }
}

}  // namespace

void GemmRowsNN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* ar = a + i * k;
    float* cr = c + i * n;
    int64_t j = 0;
    // 4-vector register block held across the whole k loop; each C
    // element is one k-ascending FMA chain.
    for (; j + 4 * kW <= n; j += 4 * kW) {
      Vec a0 = Vec::Zero();
      Vec a1 = Vec::Zero();
      Vec a2 = Vec::Zero();
      Vec a3 = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        const Vec av = Vec::Broadcast(ar[kk]);
        a0 = Vec::Fma(av, Vec::Load(bp), a0);
        a1 = Vec::Fma(av, Vec::Load(bp + kW), a1);
        a2 = Vec::Fma(av, Vec::Load(bp + 2 * kW), a2);
        a3 = Vec::Fma(av, Vec::Load(bp + 3 * kW), a3);
      }
      a0.Store(cr + j);
      a1.Store(cr + j + kW);
      a2.Store(cr + j + 2 * kW);
      a3.Store(cr + j + 3 * kW);
    }
    for (; j + kW <= n; j += kW) {
      Vec acc = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc = Vec::Fma(Vec::Broadcast(ar[kk]), Vec::Load(bp), acc);
      }
      acc.Store(cr + j);
    }
    if (j < n) {
      const int64_t rem = n - j;
      Vec acc = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc = Vec::Fma(Vec::Broadcast(ar[kk]), LoadPartial(bp, rem), acc);
      }
      StorePartial(acc, cr + j, rem);
    }
  }
}

void GemmRowsNT(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* ar = a + i * k;
    float* cr = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      // Fixed 4-vector lane accumulators combined in a fixed tree: the
      // lane a product lands in depends only on its k index.
      Vec a0 = Vec::Zero();
      Vec a1 = Vec::Zero();
      Vec a2 = Vec::Zero();
      Vec a3 = Vec::Zero();
      int64_t kk = 0;
      for (; kk + 4 * kW <= k; kk += 4 * kW) {
        a0 = Vec::Fma(Vec::Load(ar + kk), Vec::Load(br + kk), a0);
        a1 = Vec::Fma(Vec::Load(ar + kk + kW), Vec::Load(br + kk + kW), a1);
        a2 = Vec::Fma(Vec::Load(ar + kk + 2 * kW),
                      Vec::Load(br + kk + 2 * kW), a2);
        a3 = Vec::Fma(Vec::Load(ar + kk + 3 * kW),
                      Vec::Load(br + kk + 3 * kW), a3);
      }
      for (; kk + kW <= k; kk += kW) {
        a0 = Vec::Fma(Vec::Load(ar + kk), Vec::Load(br + kk), a0);
      }
      if (kk < k) {
        const int64_t rem = k - kk;
        // Zero pad lanes: fma(0, 0, acc) == acc exactly, so the tail
        // needs no mask.
        a0 = Vec::Fma(LoadPartial(ar + kk, rem), LoadPartial(br + kk, rem),
                      a0);
      }
      cr[j] = ReduceAdd(((a0 + a1) + (a2 + a3)));
    }
  }
}

void GemmRowsTN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t m, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    float* cr = c + i * n;
    int64_t j = 0;
    for (; j + 4 * kW <= n; j += 4 * kW) {
      Vec a0 = Vec::Zero();
      Vec a1 = Vec::Zero();
      Vec a2 = Vec::Zero();
      Vec a3 = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        const Vec av = Vec::Broadcast(a[kk * m + i]);
        a0 = Vec::Fma(av, Vec::Load(bp), a0);
        a1 = Vec::Fma(av, Vec::Load(bp + kW), a1);
        a2 = Vec::Fma(av, Vec::Load(bp + 2 * kW), a2);
        a3 = Vec::Fma(av, Vec::Load(bp + 3 * kW), a3);
      }
      a0.Store(cr + j);
      a1.Store(cr + j + kW);
      a2.Store(cr + j + 2 * kW);
      a3.Store(cr + j + 3 * kW);
    }
    for (; j + kW <= n; j += kW) {
      Vec acc = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc = Vec::Fma(Vec::Broadcast(a[kk * m + i]), Vec::Load(bp), acc);
      }
      acc.Store(cr + j);
    }
    if (j < n) {
      const int64_t rem = n - j;
      Vec acc = Vec::Zero();
      const float* bp = b + j;
      for (int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc = Vec::Fma(Vec::Broadcast(a[kk * m + i]), LoadPartial(bp, rem),
                       acc);
      }
      StorePartial(acc, cr + j, rem);
    }
  }
}

bool GemmUsesPackedPath(int64_t m, int64_t n, int64_t k) {
  return m >= kGemmMR && n >= kGemmNR && m * n * k >= kPackedMinFlops;
}

void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool trans_a, bool trans_b) {
  STWA_CHECK(!(trans_a && trans_b), "Gemm2D: TT is unsupported");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  if (GemmUsesPackedPath(m, n, k)) {
    GemmPacked(a, b, c, m, n, k, trans_a, trans_b);
    return;
  }
  runtime::ParallelFor(0, m, runtime::Grain(k * n),
                       [=](int64_t i0, int64_t i1) {
                         if (trans_a) {
                           GemmRowsTN(a, b, c, i0, i1, k, m, n);
                         } else if (trans_b) {
                           GemmRowsNT(a, b, c, i0, i1, k, n);
                         } else {
                           GemmRowsNN(a, b, c, i0, i1, k, n);
                         }
                       });
}

}  // namespace simd
}  // namespace stwa
