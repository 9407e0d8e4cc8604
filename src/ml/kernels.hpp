// Cache-blocked, thread-pool-parallel matmul kernels — the hot path under
// every GAN training step (GRU BPTT, MLP discriminators, baselines).
//
// Determinism contract (see DESIGN.md §5): for every output element the
// reduction over the inner dimension runs in ascending-k order with one
// rounding per partial product, exactly as in the serial reference kernels
// in matrix.cpp, and parallel workers write disjoint row panels of the
// output. Results are therefore bitwise identical to the serial reference
// for any thread count, any block size, and any row partition. The kernel
// translation unit is compiled without FP contraction so no FMA fuses the
// multiply-add rounding steps away.
#pragma once

#include <cstddef>

#include "ml/matrix.hpp"

namespace netshare::ml::kernels {

// Kernel tiers (DESIGN.md §10). Every tier writes bitwise-identical output
// — the tier choice is a speed decision, never a values decision. kAvx2
// selects the explicitly vectorized bodies in ml/kernels_simd.cpp (columns
// vectorized, k-chains untouched, no FMA) for the two ops where they win
// end to end: matmul_trans_b_into and gru_gate_into. matmul_into,
// matmul_bias_into and the two Aᵀ·B kernels run the blocked scalar code in
// this TU on every tier.
enum class SimdTier { kScalar = 0, kAvx2 = 1 };

// Fastest tier the executing CPU supports (cached CPUID probe).
SimdTier supported_tier();
// Tier the next kernel dispatch will actually use:
// min(KernelConfig::simd ceiling, NETSHARE_SIMD env cap, supported_tier()).
SimdTier active_tier();
// Re-reads the NETSHARE_SIMD environment variable (cached on first use;
// tests that setenv() at runtime call this to make the change visible).
// Recognized "off" spellings: "off", "scalar", "0".
void reload_simd_env();

// Process-wide kernel tuning. `threads == 0` resolves, in order, to the
// NETSHARE_KERNEL_THREADS environment variable and then to
// std::thread::hardware_concurrency(). Products whose flop count
// (2*rows*inner*cols) falls below `min_parallel_flops` run serially on the
// calling thread; parallelism never changes results, only wall-clock.
struct KernelConfig {
  std::size_t threads = 0;
  std::size_t min_parallel_flops = 1u << 20;
  std::size_t block_k = 64;   // inner-dimension tile (L1 reuse of the A row)
  std::size_t block_j = 256;  // output-column tile (L2 reuse of the B panel)
  // Requested tier ceiling: the dispatcher never exceeds it, and drops to
  // kScalar when the CPU or NETSHARE_SIMD says so. Identical results either
  // way (the property suite in tests/test_simd.cpp enforces this).
  SimdTier simd = SimdTier::kAvx2;
};

// Reads / replaces the process-wide config. Replacing the thread count lazily
// rebuilds the shared worker pool on the next parallel dispatch; in-flight
// kernels keep the pool they started with.
KernelConfig config();
void set_config(const KernelConfig& cfg);

// Thread count a parallel dispatch would use right now (>= 1).
std::size_t effective_threads();

// True when the calling thread is executing a kernel row-panel task (nested
// dispatches already run serially; callers higher up the stack can use this
// to avoid spawning further parallelism from inside a kernel).
bool in_kernel_task();

// RAII override of the process-wide config (tests, trainer thread budgeting).
class ConfigOverride {
 public:
  explicit ConfigOverride(const KernelConfig& cfg) : saved_(config()) {
    set_config(cfg);
  }
  ~ConfigOverride() { set_config(saved_); }
  ConfigOverride(const ConfigOverride&) = delete;
  ConfigOverride& operator=(const ConfigOverride&) = delete;

 private:
  KernelConfig saved_;
};

// Destination-passing kernels. `c` is reshaped to the product shape via
// Matrix::resize — after a one-iteration warm-up the reshape reuses capacity
// and the call performs no heap allocation. `c` must not alias an input.
// C = A (r×k) * B (k×c).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
// C = Aᵀ * B with A stored k×r (i.e. matmul(transpose(a), b)).
void matmul_trans_a_into(const Matrix& a, const Matrix& b, Matrix& c);
// C = A * Bᵀ.
void matmul_trans_b_into(const Matrix& a, const Matrix& b, Matrix& c);

// C = A·B + bias (bias is 1 × cols(b), broadcast to every row). Bitwise
// contract: per element, the full ascending-k product sum first, then one
// bias add — exactly matmul_into followed by add_row_broadcast_inplace,
// fused into one pass (Linear::forward's hot path).
void matmul_bias_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c);

// acc += Aᵀ·B without materializing the product. `acc` must already have
// the product shape (cols(a) × cols(b)) — it is a gradient accumulator, not
// a destination to reshape. Bitwise contract: per element, the full
// ascending-k product sum forms first, then folds into the existing value
// with one add — exactly matmul_trans_a_into into a temporary followed by
// `acc += tmp` (the backward-pass sequence this kernel replaces).
void matmul_trans_a_acc_into(const Matrix& a, const Matrix& b, Matrix& acc);

// Fused GRU gate: out = act(x·wx + h·wh + bias), written into caller-owned
// buffers (out and a same-shaped scratch for the second product) with no
// temporaries. On the SIMD tier both products stay register-resident and
// `scratch` is left untouched; its contents are unspecified after the call
// on every tier. Bitwise contract: the two products run through the blocked
// matmul kernels above (ascending-k reduction, one rounding per partial
// product); the epilogue then applies, per element, exactly the rounding
// sequence of the unfused composition
//   sigmoid/tanh(add_row_broadcast(matmul(x,wx) + matmul(h,wh), bias))
// — one add of the two products, one bias add, one activation — so the
// fused gate is memcmp-identical to the composed allocating path and to the
// ml::reference::* kernels at every thread count. Lives in this
// -ffp-contract=off translation unit because the two embedded matmuls need
// the per-partial-product rounding guarantee like every other kernel here
// (the adds-only epilogue has no mul+add pair to contract, but keeping the
// whole fused path under one flag regime makes the guarantee auditable).
enum class GateAct { kSigmoid, kTanh };
void gru_gate_into(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& scratch, Matrix& out);

}  // namespace netshare::ml::kernels
