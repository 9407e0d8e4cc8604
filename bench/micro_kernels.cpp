// Micro-benchmark of the kernel layer: serial reference vs the dispatched
// kernel (plus the pinned scalar tier for A·Bᵀ, the one product op with an
// AVX2 body), the fused GRU gate, and end-to-end DoppelGANger training
// throughput. The thread sweep is clamped to hardware_concurrency — thread
// counts beyond the machine's cores measure oversubscription, not scaling —
// with the requested sweep and the clamp recorded in the JSON for
// transparency. Emits BENCH_kernels.json (path overridable via argv[1]);
// scripts/check_bench_regression gates it against the committed baseline,
// comparing only like-for-like thread counts.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"

using namespace netshare;
using bench::gflops;
using bench::time_best;
using ml::Matrix;

namespace {

const std::size_t kRequestedThreadCounts[] = {1, 2, 4, 8};

// The benched sweep: requested counts that fit in the machine (always at
// least {1}).
std::vector<std::size_t> clamped_thread_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw > 0 ? hw : 1;
  std::vector<std::size_t> counts;
  for (std::size_t t : kRequestedThreadCounts) {
    if (t <= cores) counts.push_back(t);
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

ml::kernels::KernelConfig tier_cfg(ml::kernels::SimdTier tier,
                                   std::size_t threads) {
  ml::kernels::KernelConfig cfg;
  cfg.threads = threads;
  cfg.min_parallel_flops = 0;
  cfg.simd = tier;
  return cfg;
}

// One throughput row: serial reference plus, per benched thread count, the
// dispatched tier ("kernel") and — for trans_b only — the pinned scalar tier
// ("scalar"). matmul and trans_a run the same scalar code on every tier.
struct TierRow {
  double reference = 0.0;
  std::vector<double> kernel;
  std::vector<double> scalar;
};

enum class Op { kMatmul, kTransA, kTransB };

TierRow bench_op(Op op, std::size_t n,
                 const std::vector<std::size_t>& threads) {
  Rng rng(op == Op::kMatmul ? 2 : 3);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  TierRow row;
  const auto run_ref = [&] {
    switch (op) {
      case Op::kMatmul: ml::reference::matmul(a, b); break;
      case Op::kTransA: ml::reference::matmul_trans_a(a, b); break;
      case Op::kTransB: ml::reference::matmul_trans_b(a, b); break;
    }
  };
  row.reference = gflops(n, n, n, time_best(run_ref));
  const auto run_kernel = [&] {
    switch (op) {
      case Op::kMatmul: ml::matmul(a, b); break;
      case Op::kTransA: ml::matmul_trans_a(a, b); break;
      case Op::kTransB: ml::matmul_trans_b(a, b); break;
    }
  };
  for (const std::size_t t : threads) {
    {
      ml::kernels::ConfigOverride guard(
          tier_cfg(ml::kernels::SimdTier::kAvx2, t));
      row.kernel.push_back(gflops(n, n, n, time_best(run_kernel)));
    }
    if (op == Op::kTransB) {
      ml::kernels::ConfigOverride guard(
          tier_cfg(ml::kernels::SimdTier::kScalar, t));
      row.scalar.push_back(gflops(n, n, n, time_best(run_kernel)));
    }
  }
  return row;
}

// End-to-end: DoppelGANger iterations/sec on a toy trace at each benched
// thread count, dispatched tier and pinned-scalar tier. Training is bitwise
// identical across every row; only wall-clock may differ.
gan::TimeSeriesDataset toy_data(std::size_t n) {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{ml::OutputSegment::Kind::kSoftmax, 3},
                             {ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 8;
  gan::TimeSeriesDataset data;
  data.spec = spec;
  data.attributes = Matrix(n, 4);
  data.features.assign(8, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
    data.attributes(i, cat) = 1.0;
    data.attributes(i, 3) = rng.uniform(0.2, 0.8);
    data.lengths[i] = 2 * cat + 1;
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) = rng.uniform(0.1, 0.9);
    }
  }
  return data;
}

struct DgResult {
  double iters_per_sec;
  double allocs_per_iter;  // steady-state Matrix allocations per iteration
};

DgResult bench_dg_iters_per_sec(ml::kernels::SimdTier tier,
                                std::size_t threads, int warmup,
                                int iterations) {
  ml::kernels::ConfigOverride guard(tier_cfg(tier, threads));
  const gan::TimeSeriesDataset data = toy_data(256);
  gan::DgConfig dg;  // paper-shaped defaults: rnn 48, disc {96,96}
  gan::DoppelGanger model(data.spec, dg, 99);
  // Warm-up iterations populate the workspace pools and module buffers so
  // the timed window measures steady state.
  model.fit(data, warmup);
  ml::alloc_counter::reset();
  Stopwatch sw;
  model.fit(data, iterations);
  const double s = sw.seconds();
  return {iterations / s,
          static_cast<double>(ml::alloc_counter::count()) / iterations};
}

// Fused GRU gate vs the unfused matmul + add + bias + activation
// composition, at the paper-shaped GRU step (batch 64, input 12, hidden 48).
// fused_scalar pins the scalar tier for the SIMD-vs-scalar delta.
double bench_gate(bool fused, ml::kernels::SimdTier tier) {
  ml::kernels::ConfigOverride guard(tier_cfg(tier, 1));
  Rng rng(5);
  const Matrix x = Matrix::randn(64, 12, rng);
  const Matrix wx = Matrix::randn(12, 48, rng);
  const Matrix h = Matrix::randn(64, 48, rng);
  const Matrix wh = Matrix::randn(48, 48, rng);
  const Matrix bias = Matrix::randn(1, 48, rng);
  Matrix scratch, out;
  const double sec = time_best([&] {
    if (fused) {
      ml::kernels::gru_gate_into(x, wx, h, wh, bias,
                                 ml::kernels::GateAct::kSigmoid, scratch, out);
    } else {
      Matrix u = ml::matmul(x, wx) + ml::matmul(h, wh);
      ml::add_row_broadcast_inplace(u, bias);
      ml::sigmoid_inplace(u);
    }
  });
  return 1.0 / sec;  // gates/sec
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_array(const std::vector<std::size_t>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%zu", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

const char* tier_name(ml::kernels::SimdTier t) {
  return t == ml::kernels::SimdTier::kAvx2 ? "avx2" : "scalar";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const int dg_warmup = 3;
  const int dg_iterations = 20;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::size_t> threads = clamped_thread_counts();
  std::size_t max_requested = 0;
  for (std::size_t t : kRequestedThreadCounts) {
    max_requested = std::max(max_requested, t);
  }
  // Bench honesty: the flag records that the requested sweep was clamped so
  // a reader of the JSON knows why thread columns are missing on small boxes.
  const bool clamped = hw > 0 && max_requested > hw;
  if (clamped) {
    std::printf("NOTE: clamping thread sweep to %zu count(s) on %u core(s); "
                "requested up to %zu\n",
                threads.size(), hw, max_requested);
  }
  const bool simd_supported =
      ml::kernels::supported_tier() == ml::kernels::SimdTier::kAvx2;
  const char* simd_active = tier_name(ml::kernels::active_tier());
  std::printf("simd: supported=%s active=%s\n",
              simd_supported ? "true" : "false", simd_active);

  const std::size_t mm_sizes[] = {128, 256, 512};
  std::vector<TierRow> mm;
  for (std::size_t n : mm_sizes) {
    mm.push_back(bench_op(Op::kMatmul, n, threads));
    std::printf("matmul %zu^3: ref %.2f, kernel@1t %.2f GFLOP/s\n", n,
                mm.back().reference, mm.back().kernel[0]);
  }
  const TierRow ta = bench_op(Op::kTransA, 256, threads);
  std::printf("matmul_trans_a 256: ref %.2f, kernel@1t %.2f GFLOP/s\n",
              ta.reference, ta.kernel[0]);
  const TierRow tb = bench_op(Op::kTransB, 256, threads);
  std::printf("matmul_trans_b 256: ref %.2f, scalar@1t %.2f, kernel@1t %.2f "
              "GFLOP/s (simd/scalar %.2fx, kernel/ref %.2fx)\n",
              tb.reference, tb.scalar[0], tb.kernel[0],
              tb.kernel[0] / tb.scalar[0], tb.kernel[0] / tb.reference);

  const double gate_unfused =
      bench_gate(false, ml::kernels::SimdTier::kAvx2);
  const double gate_fused = bench_gate(true, ml::kernels::SimdTier::kAvx2);
  const double gate_fused_scalar =
      bench_gate(true, ml::kernels::SimdTier::kScalar);
  std::printf("gru gate 64x12x48: unfused %.0f/s, fused %.0f/s (%.2fx), "
              "fused_scalar %.0f/s\n",
              gate_unfused, gate_fused, gate_fused / gate_unfused,
              gate_fused_scalar);

  std::vector<double> dg_ips, dg_allocs, dg_scalar_ips;
  for (const std::size_t t : threads) {
    const DgResult r = bench_dg_iters_per_sec(ml::kernels::SimdTier::kAvx2, t,
                                              dg_warmup, dg_iterations);
    const DgResult rs = bench_dg_iters_per_sec(
        ml::kernels::SimdTier::kScalar, t, dg_warmup, dg_iterations);
    dg_ips.push_back(r.iters_per_sec);
    dg_allocs.push_back(r.allocs_per_iter);
    dg_scalar_ips.push_back(rs.iters_per_sec);
    std::printf("doppelganger @%zu threads: %.2f iters/sec (scalar tier "
                "%.2f), %.1f allocs/iter\n",
                t, r.iters_per_sec, rs.iters_per_sec, r.allocs_per_iter);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"requested_thread_counts\": [1, 2, 4, 8],\n");
  std::fprintf(f, "  \"thread_counts\": %s,\n", json_array(threads).c_str());
  std::fprintf(f, "  \"thread_counts_exceed_cores\": %s,\n",
               clamped ? "true" : "false");
  std::fprintf(f, "  \"simd\": {\"supported\": %s, \"active\": \"%s\"},\n",
               simd_supported ? "true" : "false", simd_active);
  std::fprintf(f, "  \"matmul_gflops\": [\n");
  for (std::size_t i = 0; i < mm.size(); ++i) {
    std::fprintf(f,
                 "    {\"size\": %zu, \"reference\": %.3f, \"kernel\": %s}%s\n",
                 mm_sizes[i], mm[i].reference,
                 json_array(mm[i].kernel).c_str(),
                 i + 1 < mm.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"matmul_trans_a_256_gflops\": {\"reference\": %.3f, "
               "\"kernel\": %s},\n",
               ta.reference, json_array(ta.kernel).c_str());
  std::fprintf(f,
               "  \"matmul_trans_b_256_gflops\": {\"reference\": %.3f, "
               "\"kernel\": %s, \"scalar\": %s, "
               "\"simd_speedup_1t\": %.3f},\n",
               tb.reference, json_array(tb.kernel).c_str(),
               json_array(tb.scalar).c_str(), tb.kernel[0] / tb.scalar[0]);
  std::fprintf(f,
               "  \"gru_gate_per_sec\": {\"unfused\": %.1f, \"fused\": %.1f, "
               "\"fused_scalar\": %.1f},\n",
               gate_unfused, gate_fused, gate_fused_scalar);
  std::fprintf(f,
               "  \"doppelganger_iters_per_sec\": {\"iterations\": %d, "
               "\"warmup_iterations\": %d, \"kernel\": %s, \"scalar\": %s},\n",
               dg_iterations, dg_warmup, json_array(dg_ips).c_str(),
               json_array(dg_scalar_ips).c_str());
  std::fprintf(f, "  \"doppelganger_allocs_per_iter\": %s\n",
               json_array(dg_allocs).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
