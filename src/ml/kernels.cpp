// Blocked parallel matmul kernels. This translation unit is compiled with
// aggressive per-file optimization flags (see src/CMakeLists.txt) but with
// FP contraction disabled: every partial product is rounded (mul) and then
// accumulated (add) exactly like the serial reference in matrix.cpp, which
// is what makes the blocked/vectorized loops bitwise-reproducible.
#include "ml/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "ml/kernels_simd.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::ml::kernels {
namespace {

std::mutex g_mutex;
KernelConfig g_config;
std::shared_ptr<ThreadPool> g_pool;  // lazily sized to effective_threads - 1

// Set while a worker (or the caller) executes a panel; a kernel invoked from
// inside a kernel task must not re-enter the pool (its tasks would queue
// behind the panel that is waiting on them), so nested dispatch runs serial.
thread_local bool tl_in_kernel_task = false;

struct PanelFlag {
  PanelFlag() { tl_in_kernel_task = true; }
  ~PanelFlag() { tl_in_kernel_task = false; }
};

std::size_t env_threads() {
  static const std::size_t cached = [] {
    const char* s = std::getenv("NETSHARE_KERNEL_THREADS");
    if (s == nullptr) return std::size_t{0};
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    return end == s ? std::size_t{0} : static_cast<std::size_t>(v);
  }();
  return cached;
}

std::size_t resolve_threads(const KernelConfig& cfg) {
  if (cfg.threads > 0) return cfg.threads;
  if (env_threads() > 0) return env_threads();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Callers hold their own shared_ptr so a concurrent set_config resize can
// never destroy a pool that still has panels in flight.
std::shared_ptr<ThreadPool> acquire_pool(std::size_t workers) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_pool || g_pool->size() != workers) {
    g_pool = std::make_shared<ThreadPool>(workers);
  }
  return g_pool;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// Splits [0, rows) into contiguous panels and runs body(begin, end) on the
// calling thread plus the shared pool. body must touch only output rows
// [begin, end): that disjointness is the whole determinism argument — the
// partition can change with the thread count without changing any element's
// reduction order.
template <typename Body>
void run_row_panels(std::size_t rows, std::size_t flops, const Body& body) {
  if (rows == 0) return;
  std::size_t threads;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    threads = flops < g_config.min_parallel_flops ? 1
                                                  : resolve_threads(g_config);
  }
  if (tl_in_kernel_task) threads = 1;
  const std::size_t ntasks = std::min(threads, rows);
  if (ntasks <= 1) {
    TELEM_COUNT("kernels.dispatch_serial");
    body(std::size_t{0}, rows);
    return;
  }
  TELEM_COUNT("kernels.dispatch_parallel");
  auto pool = acquire_pool(ntasks - 1);
  const std::size_t chunk = (rows + ntasks - 1) / ntasks;
  std::vector<std::future<void>> futures;
  futures.reserve(ntasks - 1);
  for (std::size_t t = 1; t < ntasks; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(rows, begin + chunk);
    if (begin >= end) break;
    futures.push_back(pool->submit([&body, begin, end] {
      PanelFlag flag;
      body(begin, end);
    }));
  }
  {
    PanelFlag flag;
    body(std::size_t{0}, std::min(rows, chunk));
  }
  // Wait for every panel before returning (or rethrowing): the panels
  // reference stack state of this frame. Only the first exception can
  // propagate; later ones are reported through the diag channel instead of
  // vanishing silently.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      } else {
        try {
          std::rethrow_exception(std::current_exception());
        } catch (const std::exception& e) {
          TELEM_DIAG(::netshare::telemetry::Severity::kError,
                     "kernels.panel_exception_dropped",
                     "secondary panel exception not rethrown: %s", e.what());
        } catch (...) {
          TELEM_DIAG(::netshare::telemetry::Severity::kError,
                     "kernels.panel_exception_dropped",
                     "secondary non-std panel exception not rethrown");
        }
      }
    }
  }
  if (first) std::rethrow_exception(first);
}

// --- SIMD tier resolution --------------------------------------------------

// NETSHARE_SIMD cap: 1 = no cap, 0 = scalar only, -1 = not yet read.
std::atomic<int> g_simd_env_cap{-1};

int simd_env_cap() {
  int cap = g_simd_env_cap.load(std::memory_order_acquire);
  if (cap < 0) {
    reload_simd_env();
    cap = g_simd_env_cap.load(std::memory_order_acquire);
  }
  return cap;
}

SimdTier resolve_tier(const KernelConfig& cfg) {
  if (cfg.simd == SimdTier::kScalar) return SimdTier::kScalar;
  if (simd_env_cap() == 0) return SimdTier::kScalar;
  return supported_tier();
}

}  // namespace

SimdTier supported_tier() {
  return simd::cpu_supports_avx2() ? SimdTier::kAvx2 : SimdTier::kScalar;
}

SimdTier active_tier() { return resolve_tier(config()); }

void reload_simd_env() {
  const char* s = std::getenv("NETSHARE_SIMD");
  int cap = 1;
  if (s != nullptr &&
      (std::strcmp(s, "off") == 0 || std::strcmp(s, "scalar") == 0 ||
       std::strcmp(s, "0") == 0)) {
    cap = 0;
  }
  g_simd_env_cap.store(cap, std::memory_order_release);
}

KernelConfig config() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_config;
}

void set_config(const KernelConfig& cfg) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = cfg;
}

std::size_t effective_threads() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return resolve_threads(g_config);
}

bool in_kernel_task() { return tl_in_kernel_task; }

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "kernels::matmul: inner dimension mismatch");
  c.resize(a.rows(), b.cols());
  const KernelConfig cfg = config();
  c.fill(0.0);
  const std::size_t K = a.cols(), C = b.cols();
  const std::size_t KB = std::max<std::size_t>(1, cfg.block_k);
  const std::size_t JB = std::max<std::size_t>(1, cfg.block_j);
  run_row_panels(a.rows(), 2 * a.rows() * K * C,
                 [&](std::size_t r0, std::size_t r1) {
    for (std::size_t kk = 0; kk < K; kk += KB) {
      const std::size_t kend = std::min(K, kk + KB);
      for (std::size_t jj = 0; jj < C; jj += JB) {
        const std::size_t jend = std::min(C, jj + JB);
        for (std::size_t i = r0; i < r1; ++i) {
          double* crow = c.row_ptr(i);
          const double* arow = a.row_ptr(i);
          std::size_t k = kk;
          // Four k-steps per pass over the c row: each element still takes
          // its partial products one at a time in ascending-k order (mul
          // rounded, then add rounded), so results match the one-k-at-a-time
          // reference bitwise while c is loaded/stored 4x less often.
          for (; k + 4 <= kend; k += 4) {
            const double a0 = arow[k], a1 = arow[k + 1];
            const double a2 = arow[k + 2], a3 = arow[k + 3];
            if (a0 == 0.0 || a1 == 0.0 || a2 == 0.0 || a3 == 0.0) {
              // The reference skips zero multiplicands entirely (c + 0*inf
              // would differ); keep its per-k skip semantics on this block.
              for (std::size_t k2 = k; k2 < k + 4; ++k2) {
                const double aik = arow[k2];
                if (aik == 0.0) continue;
                const double* brow = b.row_ptr(k2);
                for (std::size_t j = jj; j < jend; ++j) {
                  crow[j] += aik * brow[j];
                }
              }
              continue;
            }
            const double* b0 = b.row_ptr(k);
            const double* b1 = b.row_ptr(k + 1);
            const double* b2 = b.row_ptr(k + 2);
            const double* b3 = b.row_ptr(k + 3);
            for (std::size_t j = jj; j < jend; ++j) {
              double t = crow[j];
              t += a0 * b0[j];
              t += a1 * b1[j];
              t += a2 * b2[j];
              t += a3 * b3[j];
              crow[j] = t;
            }
          }
          for (; k < kend; ++k) {
            const double aik = arow[k];
            if (aik == 0.0) continue;
            const double* brow = b.row_ptr(k);
            for (std::size_t j = jj; j < jend; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  });
}

void matmul_trans_a_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.rows() == b.rows(), "kernels::matmul_trans_a: row mismatch");
  c.resize(a.cols(), b.cols());
  const KernelConfig cfg = config();
  c.fill(0.0);
  const std::size_t K = a.rows(), C = b.cols();
  const std::size_t KB = std::max<std::size_t>(1, cfg.block_k);
  const std::size_t JB = std::max<std::size_t>(1, cfg.block_j);
  // Output rows are columns of A; a.row_ptr(k)[i] is contiguous in i, so the
  // panel loop still streams A rows.
  run_row_panels(a.cols(), 2 * K * a.cols() * C,
                 [&](std::size_t r0, std::size_t r1) {
    for (std::size_t kk = 0; kk < K; kk += KB) {
      const std::size_t kend = std::min(K, kk + KB);
      for (std::size_t jj = 0; jj < C; jj += JB) {
        const std::size_t jend = std::min(C, jj + JB);
        std::size_t k = kk;
        // Same 4-way k-unroll as matmul_into: per element the four partial
        // products still land one at a time in ascending-k order.
        for (; k + 4 <= kend; k += 4) {
          const double* ak0 = a.row_ptr(k);
          const double* ak1 = a.row_ptr(k + 1);
          const double* ak2 = a.row_ptr(k + 2);
          const double* ak3 = a.row_ptr(k + 3);
          const double* bk0 = b.row_ptr(k);
          const double* bk1 = b.row_ptr(k + 1);
          const double* bk2 = b.row_ptr(k + 2);
          const double* bk3 = b.row_ptr(k + 3);
          for (std::size_t i = r0; i < r1; ++i) {
            const double a0 = ak0[i], a1 = ak1[i], a2 = ak2[i], a3 = ak3[i];
            double* crow = c.row_ptr(i);
            if (a0 == 0.0 || a1 == 0.0 || a2 == 0.0 || a3 == 0.0) {
              for (std::size_t k2 = k; k2 < k + 4; ++k2) {
                const double aki = a.row_ptr(k2)[i];
                if (aki == 0.0) continue;
                const double* brow = b.row_ptr(k2);
                for (std::size_t j = jj; j < jend; ++j) {
                  crow[j] += aki * brow[j];
                }
              }
              continue;
            }
            for (std::size_t j = jj; j < jend; ++j) {
              double t = crow[j];
              t += a0 * bk0[j];
              t += a1 * bk1[j];
              t += a2 * bk2[j];
              t += a3 * bk3[j];
              crow[j] = t;
            }
          }
        }
        for (; k < kend; ++k) {
          const double* arow = a.row_ptr(k);
          const double* brow = b.row_ptr(k);
          for (std::size_t i = r0; i < r1; ++i) {
            const double aki = arow[i];
            if (aki == 0.0) continue;
            double* crow = c.row_ptr(i);
            for (std::size_t j = jj; j < jend; ++j) crow[j] += aki * brow[j];
          }
        }
      }
    }
  });
}

void matmul_trans_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.cols(), "kernels::matmul_trans_b: col mismatch");
  c.resize(a.rows(), b.rows());
  const KernelConfig cfg = config();
  const std::size_t K = a.cols(), C = b.rows();
  if (resolve_tier(cfg) == SimdTier::kAvx2 && a.rows() > 0 && C > 0) {
    // Pack Bᵀ once on the calling thread (pure data movement, before the
    // panel fan-out so workers only read it), then every inner loop streams
    // contiguous column lanes in ascending-k order. The pack buffer is
    // thread_local grow-only scratch: zero steady-state allocations.
    static thread_local std::vector<double> tl_bt;
    if (tl_bt.size() < K * C) tl_bt.resize(K * C);
    // Pin the packed panel's address on the calling thread: the lambda runs
    // on pool workers, whose own tl_bt is a different (empty) instance.
    const double* bt = tl_bt.data();
    if (K > 0) simd::pack_transpose(b.row_ptr(0), C, K, K, tl_bt.data());
    const std::size_t flops = 2 * a.rows() * K * C;
    TELEM_COUNT("kernels.tier_avx2");
    run_row_panels(a.rows(), flops, [&](std::size_t r0, std::size_t r1) {
      simd::matmul_trans_b_panel(a.row_ptr(0), K, bt, c.row_ptr(0), C, K, C,
                                 r0, r1);
    });
    return;
  }
  const std::size_t JB = std::max<std::size_t>(1, cfg.block_j);
  run_row_panels(a.rows(), 2 * a.rows() * K * C,
                 [&](std::size_t r0, std::size_t r1) {
    for (std::size_t jj = 0; jj < C; jj += JB) {
      const std::size_t jend = std::min(C, jj + JB);
      for (std::size_t i = r0; i < r1; ++i) {
        const double* arow = a.row_ptr(i);
        double* crow = c.row_ptr(i);
        std::size_t j = jj;
        // Register blocking over eight/four B rows: independent dot products
        // advance together, each still a plain ascending-k scalar reduction,
        // so every element matches the reference dot product bitwise. Eight
        // concurrent accumulator chains hide the FP-add latency that bounds
        // a single chain.
        for (; j + 8 <= jend; j += 8) {
          const double* b0 = b.row_ptr(j);
          const double* b1 = b.row_ptr(j + 1);
          const double* b2 = b.row_ptr(j + 2);
          const double* b3 = b.row_ptr(j + 3);
          const double* b4 = b.row_ptr(j + 4);
          const double* b5 = b.row_ptr(j + 5);
          const double* b6 = b.row_ptr(j + 6);
          const double* b7 = b.row_ptr(j + 7);
          double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
          double acc4 = 0.0, acc5 = 0.0, acc6 = 0.0, acc7 = 0.0;
          for (std::size_t k = 0; k < K; ++k) {
            const double ak = arow[k];
            acc0 += ak * b0[k];
            acc1 += ak * b1[k];
            acc2 += ak * b2[k];
            acc3 += ak * b3[k];
            acc4 += ak * b4[k];
            acc5 += ak * b5[k];
            acc6 += ak * b6[k];
            acc7 += ak * b7[k];
          }
          crow[j] = acc0;
          crow[j + 1] = acc1;
          crow[j + 2] = acc2;
          crow[j + 3] = acc3;
          crow[j + 4] = acc4;
          crow[j + 5] = acc5;
          crow[j + 6] = acc6;
          crow[j + 7] = acc7;
        }
        for (; j + 4 <= jend; j += 4) {
          const double* b0 = b.row_ptr(j);
          const double* b1 = b.row_ptr(j + 1);
          const double* b2 = b.row_ptr(j + 2);
          const double* b3 = b.row_ptr(j + 3);
          double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
          for (std::size_t k = 0; k < K; ++k) {
            const double ak = arow[k];
            acc0 += ak * b0[k];
            acc1 += ak * b1[k];
            acc2 += ak * b2[k];
            acc3 += ak * b3[k];
          }
          crow[j] = acc0;
          crow[j + 1] = acc1;
          crow[j + 2] = acc2;
          crow[j + 3] = acc3;
        }
        for (; j < jend; ++j) {
          const double* brow = b.row_ptr(j);
          double acc = 0.0;
          for (std::size_t k = 0; k < K; ++k) acc += arow[k] * brow[k];
          crow[j] = acc;
        }
      }
    }
  });
}

void matmul_bias_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                      Matrix& c) {
  require(a.cols() == b.rows(),
          "kernels::matmul_bias: inner dimension mismatch");
  require(bias.rows() == 1 && bias.cols() == b.cols(),
          "kernels::matmul_bias: bias must be 1 x cols(b)");
  matmul_into(a, b, c);
  add_row_broadcast_inplace(c, bias);
}

void matmul_trans_a_acc_into(const Matrix& a, const Matrix& b, Matrix& acc) {
  require(a.rows() == b.rows(), "kernels::matmul_trans_a_acc: row mismatch");
  require(acc.rows() == a.cols() && acc.cols() == b.cols(),
          "kernels::matmul_trans_a_acc: acc shape mismatch");
  // Materialize the product into thread-local scratch, then fold with one
  // add per element — the exact sequence the backward-pass call sites used
  // before this kernel existed. Grow-only warm-up alloc.
  static thread_local Matrix tl_prod;
  matmul_trans_a_into(a, b, tl_prod);
  acc += tl_prod;
}

void gru_gate_into(const Matrix& x, const Matrix& wx, const Matrix& h,
                   const Matrix& wh, const Matrix& bias, GateAct act,
                   Matrix& scratch, Matrix& out) {
  require(bias.rows() == 1 && bias.cols() == wx.cols(),
          "kernels::gru_gate: bias must be 1 x cols(wx)");
  require(wx.cols() == wh.cols(), "kernels::gru_gate: gate width mismatch");
  const KernelConfig cfg = config();
  if (resolve_tier(cfg) == SimdTier::kAvx2) {
    require(x.cols() == wx.rows(), "kernels::matmul: inner dimension mismatch");
    require(h.cols() == wh.rows(), "kernels::matmul: inner dimension mismatch");
    require(x.rows() == h.rows(), "kernels::gru_gate: x/h batch mismatch");
    out.resize(x.rows(), wx.cols());
    const std::size_t R = x.rows(), G = wx.cols();
    const std::size_t In = x.cols(), Hd = h.cols();
    const std::size_t flops = 2 * R * (In + Hd) * G;
    TELEM_COUNT("kernels.tier_avx2");
    run_row_panels(R, flops, [&](std::size_t r0, std::size_t r1) {
      simd::gate_panel(x.row_ptr(0), In, wx.row_ptr(0), G, h.row_ptr(0), Hd,
                       wh.row_ptr(0), G, bias.row_ptr(0),
                       act == GateAct::kSigmoid ? 0 : 1, out.row_ptr(0), G, In,
                       Hd, G, r0, r1);
    });
    return;  // scratch untouched: both products stayed register-resident
  }
  matmul_into(x, wx, out);      // out     = x · Wx
  matmul_into(h, wh, scratch);  // scratch = h · Wh
  require(scratch.rows() == out.rows(),
          "kernels::gru_gate: x/h batch mismatch");
  // Epilogue, per element: (out + scratch) rounded, + bias rounded, then the
  // activation — the exact rounding sequence of operator+ followed by
  // add_row_broadcast_inplace followed by sigmoid/tanh on the allocating
  // path, fused into one pass with no temporaries.
  const double* brow = bias.row_ptr(0);
  const std::size_t rows = out.rows(), cols = out.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    double* orow = out.row_ptr(i);
    const double* srow = scratch.row_ptr(i);
    if (act == GateAct::kSigmoid) {
      for (std::size_t j = 0; j < cols; ++j) {
        orow[j] = detail::sigmoid1((orow[j] + srow[j]) + brow[j]);
      }
    } else {
      for (std::size_t j = 0; j < cols; ++j) {
        orow[j] = std::tanh((orow[j] + srow[j]) + brow[j]);
      }
    }
  }
}

}  // namespace netshare::ml::kernels
