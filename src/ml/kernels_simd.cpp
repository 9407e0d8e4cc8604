// AVX2 bodies for the vectorized kernel tier. Compiled with -mavx2 (no
// -mfma) and -ffp-contract=off — see src/CMakeLists.txt. Every loop below
// vectorizes across independent output columns; the ascending-k reduction
// chain of each output element is never split, reordered, or contracted,
// which is the whole bitwise-identity argument (kernels_simd.hpp,
// DESIGN.md §10).
#include "ml/kernels_simd.hpp"

#if !defined(__AVX2__)

// Toolchain cannot emit AVX2 (src/CMakeLists.txt found no -mavx2): the tier
// reports unsupported and the panel bodies — which dispatch then never
// calls — become unreachable stubs.
namespace netshare::ml::kernels::simd {
bool cpu_supports_avx2() { return false; }
void matmul_trans_b_panel(const double*, std::size_t, const double*, double*,
                          std::size_t, std::size_t, std::size_t, std::size_t,
                          std::size_t) {}
void pack_transpose(const double*, std::size_t, std::size_t, std::size_t,
                    double*) {}
void gate_panel(const double*, std::size_t, const double*, std::size_t,
                const double*, std::size_t, const double*, std::size_t,
                const double*, int, double*, std::size_t, std::size_t,
                std::size_t, std::size_t, std::size_t, std::size_t) {}
}  // namespace netshare::ml::kernels::simd

#else  // __AVX2__

#include <immintrin.h>

#include <cmath>

#include "ml/matrix.hpp"

namespace netshare::ml::kernels::simd {
namespace {

// A·Bᵀ tiles over the packed transpose bt (stride C): the ascending-k loop
// reads contiguous lanes, so each of the 4*NV concurrent dot products is a
// plain scalar chain — no zero-skip, matching the scalar trans_b kernel.
template <int NV>
std::size_t tb_tiles(const double* a, std::size_t lda, const double* bt,
                     double* c, std::size_t ldc, std::size_t K, std::size_t C,
                     std::size_t j0, std::size_t r0, std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= C; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      __m256d acc[NV];
      for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < K; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        const double* bp = bt + k * C + j0;
        for (int v = 0; v < NV; ++v) {
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
        }
      }
      double* cp = c + i * ldc + j0;
      for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cp + 4 * v, acc[v]);
    }
  }
  return j0;
}

}  // namespace

bool cpu_supports_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

void matmul_trans_b_panel(const double* a, std::size_t lda, const double* bt,
                          double* c, std::size_t ldc, std::size_t K,
                          std::size_t C, std::size_t r0, std::size_t r1) {
  std::size_t j0 = tb_tiles<4>(a, lda, bt, c, ldc, K, C, 0, r0, r1);
  j0 = tb_tiles<1>(a, lda, bt, c, ldc, K, C, j0, r0, r1);
  for (; j0 < C; ++j0) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * lda;
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += arow[k] * bt[k * C + j0];
      c[i * ldc + j0] = acc;
    }
  }
}

void pack_transpose(const double* b, std::size_t rows, std::size_t cols,
                    std::size_t ldb, double* bt) {
  constexpr std::size_t TB = 32;  // cache-blocked scalar transpose
  for (std::size_t jj = 0; jj < rows; jj += TB) {
    const std::size_t jend = jj + TB < rows ? jj + TB : rows;
    for (std::size_t kk = 0; kk < cols; kk += TB) {
      const std::size_t kend = kk + TB < cols ? kk + TB : cols;
      for (std::size_t j = jj; j < jend; ++j) {
        const double* brow = b + j * ldb;
        for (std::size_t k = kk; k < kend; ++k) bt[k * rows + j] = brow[k];
      }
    }
  }
}

namespace {

// Fused-gate register tiles. Both product sums complete in registers (each
// its own ascending-k chain with the reference zero-skip), then the
// epilogue applies (sum_x + sum_h) + bias — the scalar tier's rounding
// sequence — before the activation. The sigmoid is decomposed exactly as
// detail::sigmoid1: e = exp(-v) (scalar libm, bit-identical to the scalar
// tier), then 1/(1+e) with a lane-wise IEEE add and divide.
template <int NV>
std::size_t gate_tiles(const double* x, std::size_t ldx, const double* wx,
                       std::size_t ldwx, const double* h, std::size_t ldh,
                       const double* wh, std::size_t ldwh, const double* bias,
                       int act, double* out, std::size_t ldo,
                       std::size_t in_dim, std::size_t h_dim,
                       std::size_t G, std::size_t j0, std::size_t r0,
                       std::size_t r1) {
  constexpr std::size_t JT = 4 * NV;
  for (; j0 + JT <= G; j0 += JT) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* xrow = x + i * ldx;
      __m256d ax[NV];
      for (int v = 0; v < NV; ++v) ax[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < in_dim; ++k) {
        const double xik = xrow[k];
        if (xik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(xik);
        const double* wp = wx + k * ldwx + j0;
        for (int v = 0; v < NV; ++v) {
          ax[v] = _mm256_add_pd(ax[v],
                                _mm256_mul_pd(av, _mm256_loadu_pd(wp + 4 * v)));
        }
      }
      const double* hrow = h + i * ldh;
      __m256d ah[NV];
      for (int v = 0; v < NV; ++v) ah[v] = _mm256_setzero_pd();
      for (std::size_t k = 0; k < h_dim; ++k) {
        const double hik = hrow[k];
        if (hik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(hik);
        const double* wp = wh + k * ldwh + j0;
        for (int v = 0; v < NV; ++v) {
          ah[v] = _mm256_add_pd(ah[v],
                                _mm256_mul_pd(av, _mm256_loadu_pd(wp + 4 * v)));
        }
      }
      double* op = out + i * ldo + j0;
      for (int v = 0; v < NV; ++v) {
        _mm256_storeu_pd(
            op + 4 * v,
            _mm256_add_pd(_mm256_add_pd(ax[v], ah[v]),
                          _mm256_loadu_pd(bias + j0 + 4 * v)));
      }
      if (act == 0) {
        double e[JT];
        for (std::size_t t = 0; t < JT; ++t) e[t] = std::exp(-op[t]);
        const __m256d one = _mm256_set1_pd(1.0);
        for (int v = 0; v < NV; ++v) {
          _mm256_storeu_pd(
              op + 4 * v,
              _mm256_div_pd(one,
                            _mm256_add_pd(one, _mm256_loadu_pd(e + 4 * v))));
        }
      } else {
        for (std::size_t t = 0; t < JT; ++t) op[t] = std::tanh(op[t]);
      }
    }
  }
  return j0;
}

}  // namespace

void gate_panel(const double* x, std::size_t ldx, const double* wx,
                std::size_t ldwx, const double* h, std::size_t ldh,
                const double* wh, std::size_t ldwh, const double* bias,
                int act, double* out, std::size_t ldo, std::size_t in_dim,
                std::size_t h_dim, std::size_t gate_dim, std::size_t r0,
                std::size_t r1) {
  std::size_t j0 = gate_tiles<4>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, act,
                                 out, ldo, in_dim, h_dim, gate_dim, 0, r0, r1);
  j0 = gate_tiles<1>(x, ldx, wx, ldwx, h, ldh, wh, ldwh, bias, act, out, ldo,
                     in_dim, h_dim, gate_dim, j0, r0, r1);
  for (; j0 < gate_dim; ++j0) {  // scalar tail, same chains and epilogue
    for (std::size_t i = r0; i < r1; ++i) {
      const double* xrow = x + i * ldx;
      double sx = 0.0;
      for (std::size_t k = 0; k < in_dim; ++k) {
        const double xik = xrow[k];
        if (xik == 0.0) continue;
        sx += xik * wx[k * ldwx + j0];
      }
      const double* hrow = h + i * ldh;
      double sh = 0.0;
      for (std::size_t k = 0; k < h_dim; ++k) {
        const double hik = hrow[k];
        if (hik == 0.0) continue;
        sh += hik * wh[k * ldwh + j0];
      }
      const double pre = (sx + sh) + bias[j0];
      out[i * ldo + j0] =
          act == 0 ? ml::detail::sigmoid1(pre) : std::tanh(pre);
    }
  }
}

}  // namespace netshare::ml::kernels::simd

#endif  // __AVX2__
