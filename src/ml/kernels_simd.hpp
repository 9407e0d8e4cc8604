// AVX2 panel bodies for the kernel layer — the explicitly vectorized tier
// behind the runtime dispatch in ml/kernels.cpp (DESIGN.md §10). Only A·Bᵀ
// and the fused GRU gate have one; the other ops run scalar on every tier.
//
// Determinism contract: every body below vectorizes across INDEPENDENT
// output columns only. For each output element the reduction over the inner
// dimension is one scalar chain in ascending-k order, one rounding per
// partial product (mul, then add — never an FMA), exactly as in the scalar
// kernels and the serial reference in matrix.cpp. Since _mm256_add_pd /
// _mm256_mul_pd / _mm256_div_pd are lane-wise IEEE-754 double ops with the
// same round-to-nearest-even behaviour as the corresponding scalar
// operators, every lane computes bit-for-bit the scalar result; the tier
// is therefore memcmp-identical to the scalar tier for all inputs. The
// translation unit is compiled with -mavx2 but WITHOUT -mfma and with
// -ffp-contract=off, so neither intrinsic selection nor the compiler can
// fuse the mul+add rounding steps away.
//
// The interface is raw pointers + strides (in doubles) so this header pulls
// in no SIMD headers and callers need no ISA flags; all functions here must
// only be CALLED after a runtime cpu_supports_avx2() check.
#pragma once

#include <cstddef>

namespace netshare::ml::kernels::simd {

// True when the CPU executing this process supports AVX2 (cached CPUID).
bool cpu_supports_avx2();

// Both panel bodies below walk the output columns in 16-wide register
// tiles (four 4-lane vectors), then one 4-wide tile, then a scalar tail.

// C[r0..r1) = A·Bᵀ where `bt` is the pre-packed transpose of B produced by
// pack_transpose below: bt[k*C + j] == B(j,k), so the ascending-k inner
// loop reads contiguous lanes. No zero-skip — matching the scalar trans_b
// kernel and the serial reference, which accumulate every partial product.
void matmul_trans_b_panel(const double* a, std::size_t lda, const double* bt,
                          double* c, std::size_t ldc, std::size_t K,
                          std::size_t C, std::size_t r0, std::size_t r1);

// bt[k*rows + j] = b[j*ldb + k] for j in [0,rows), k in [0,cols) — the
// packed/transposed B panel for matmul_trans_b_panel. Pure data movement
// (no FP arithmetic), so it cannot perturb any rounding.
void pack_transpose(const double* b, std::size_t rows, std::size_t cols,
                    std::size_t ldb, double* bt);

// Fused GRU gate, rows [r0..r1): out = act((x·wx + h·wh) + bias) with both
// products register-resident. Per element the rounding sequence is: full
// ascending-k sum of x·wx (zero-skip), full ascending-k sum of h·wh
// (zero-skip), one add of the two sums, one bias add, then the activation —
// identical to the scalar tier's matmul_into + matmul_into + fused epilogue.
// act: 0 = sigmoid (1/(1+exp(-v))), 1 = tanh. The transcendental itself is
// evaluated with the same scalar libm call as the scalar tier
// (detail::sigmoid1 / std::tanh); only the surrounding adds/divides are
// vectorized, which is lane-wise exact.
void gate_panel(const double* x, std::size_t ldx, const double* wx,
                std::size_t ldwx, const double* h, std::size_t ldh,
                const double* wh, std::size_t ldwh, const double* bias,
                int act, double* out, std::size_t ldo, std::size_t in_dim,
                std::size_t h_dim, std::size_t gate_dim, std::size_t r0,
                std::size_t r1);

}  // namespace netshare::ml::kernels::simd
