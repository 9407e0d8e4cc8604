// Lockdown suite for the SIMD kernel tier (DESIGN.md §10): randomized
// ragged-shape property sweep against the scalar-tier oracle across every
// register-block candidate and thread count, forced-fallback equivalence
// (NETSHARE_SIMD=off env and KernelConfig::simd API), autotuner determinism
// (same shapes → same plan, global memo and Workspace snapshot), and a
// per-tier end-to-end DoppelGanger fit+sample bitwise check.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"

namespace netshare::ml {
namespace {

// memcmp, not double ==: even a -0.0 vs +0.0 divergence (a reduction-order
// or zero-skip tell) must fail.
void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() == 0) return;  // memcmp on an empty matrix's null data is UB
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.size() * sizeof(double)),
            0)
      << what << ": SIMD tier diverged from the scalar oracle";
}

bool simd_available() {
  return kernels::supported_tier() == kernels::SimdTier::kAvx2;
}

kernels::KernelConfig tier_cfg(kernels::SimdTier tier, std::size_t threads,
                               unsigned force_jtile = 0) {
  kernels::KernelConfig cfg;
  cfg.threads = threads;
  cfg.min_parallel_flops = threads > 1 ? 0 : cfg.min_parallel_flops;
  cfg.simd = tier;
  cfg.force_jtile = force_jtile;
  return cfg;
}

// Restores (or clears) an environment variable on scope exit, so a failing
// assertion can never leak NETSHARE_SIMD=off into unrelated tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
    kernels::reload_simd_env();
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// Random matrix with exact zeros sprinkled in, to drive the zero-skip
// branches through the same path on both tiers.
Matrix randn_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::randn(rows, cols, rng);
  for (auto& v : m.data()) {
    if (rng.bernoulli(0.15)) v = 0.0;
  }
  return m;
}

struct RaggedShape {
  std::size_t m, k, n;
};

// Ragged tails 1..17, primes, tile boundaries of every jtile candidate
// (8/16/32 plus the 4-wide and scalar column tails), and empty matrices.
std::vector<RaggedShape> ragged_shapes() {
  std::vector<RaggedShape> shapes = {
      {0, 5, 7}, {5, 0, 7},  {5, 7, 0},  {0, 0, 0},  {1, 1, 1},
      {1, 17, 1}, {2, 3, 5},  {7, 11, 13}, {17, 17, 17}, {3, 1, 31},
      {13, 29, 37}, {9, 16, 33}, {5, 8, 32}, {6, 64, 8}, {11, 5, 16},
      {4, 7, 41},  {23, 13, 64}, {8, 31, 24},
  };
  Rng rng(424242);
  for (int i = 0; i < 24; ++i) {  // randomized ragged sweep
    shapes.push_back(
        {static_cast<std::size_t>(rng.uniform_int(1, 70)),
         static_cast<std::size_t>(rng.uniform_int(1, 70)),
         static_cast<std::size_t>(rng.uniform_int(1, 70))});
  }
  return shapes;
}

// One shape's worth of operands plus the scalar-tier oracle outputs.
struct OracleCase {
  Matrix a, b, at, bt, bias, acc0;
  Matrix want_mm, want_bias, want_ta, want_acc, want_tb;
};

OracleCase make_oracle(const RaggedShape& s, Rng& rng) {
  OracleCase oc;
  oc.a = randn_with_zeros(s.m, s.k, rng);
  oc.b = randn_with_zeros(s.k, s.n, rng);
  oc.at = randn_with_zeros(s.k, s.m, rng);  // trans_a input (k × m)
  oc.bt = randn_with_zeros(s.n, s.k, rng);  // trans_b input (n × k)
  oc.bias = randn_with_zeros(1, s.n, rng);
  oc.acc0 = Matrix::randn(s.m, s.n, rng);   // pre-existing accumulator
  kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kScalar, 1));
  kernels::matmul_into(oc.a, oc.b, oc.want_mm);
  kernels::matmul_bias_into(oc.a, oc.b, oc.bias, oc.want_bias);
  kernels::matmul_trans_a_into(oc.at, oc.b, oc.want_ta);
  oc.want_acc = oc.acc0;
  kernels::matmul_trans_a_acc_into(oc.at, oc.b, oc.want_acc);
  kernels::matmul_trans_b_into(oc.a, oc.bt, oc.want_tb);
  return oc;
}

TEST(Simd, PropertySweepRaggedShapesMatchScalarOracle) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9001);
  Matrix got;
  for (const RaggedShape& s : ragged_shapes()) {
    const OracleCase oc = make_oracle(s, rng);
    // jtile 0 = autotuned path; 8/16/32 pin each register-block candidate.
    for (const unsigned jt : {0u, 8u, 16u, 32u}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        kernels::ConfigOverride guard(
            tier_cfg(kernels::SimdTier::kAvx2, threads, jt));
        SCOPED_TRACE("shape=" + std::to_string(s.m) + "x" +
                     std::to_string(s.k) + "x" + std::to_string(s.n) +
                     " jtile=" + std::to_string(jt) +
                     " threads=" + std::to_string(threads));
        kernels::matmul_into(oc.a, oc.b, got);
        expect_bitwise(got, oc.want_mm, "matmul_into");
        kernels::matmul_bias_into(oc.a, oc.b, oc.bias, got);
        expect_bitwise(got, oc.want_bias, "matmul_bias_into");
        kernels::matmul_trans_a_into(oc.at, oc.b, got);
        expect_bitwise(got, oc.want_ta, "matmul_trans_a_into");
        got = oc.acc0;
        kernels::matmul_trans_a_acc_into(oc.at, oc.b, got);
        expect_bitwise(got, oc.want_acc, "matmul_trans_a_acc_into");
        kernels::matmul_trans_b_into(oc.a, oc.bt, got);
        expect_bitwise(got, oc.want_tb, "matmul_trans_b_into");
      }
    }
  }
}

TEST(Simd, FusedGateMatchesScalarOracleAcrossCandidatesAndThreads) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9002);
  const RaggedShape gate_shapes[] = {
      {1, 1, 1}, {2, 3, 5}, {17, 13, 17}, {33, 7, 41}, {16, 16, 48},
      {5, 11, 19}, {13, 2, 37},
  };
  Matrix scratch, out, want;
  for (const RaggedShape& s : gate_shapes) {  // batch=m, in=k, hid=n
    const Matrix x = randn_with_zeros(s.m, s.k, rng);
    const Matrix wx = randn_with_zeros(s.k, s.n, rng);
    const Matrix h = randn_with_zeros(s.m, s.n, rng);
    const Matrix wh = randn_with_zeros(s.n, s.n, rng);
    const Matrix bias = randn_with_zeros(1, s.n, rng);
    for (const auto act :
         {kernels::GateAct::kSigmoid, kernels::GateAct::kTanh}) {
      {
        kernels::ConfigOverride guard(
            tier_cfg(kernels::SimdTier::kScalar, 1));
        kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, want);
      }
      for (const unsigned jt : {0u, 8u, 16u, 32u}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
          kernels::ConfigOverride guard(
              tier_cfg(kernels::SimdTier::kAvx2, threads, jt));
          SCOPED_TRACE("gate=" + std::to_string(s.m) + "x" +
                       std::to_string(s.k) + "x" + std::to_string(s.n) +
                       " jtile=" + std::to_string(jt) +
                       " threads=" + std::to_string(threads));
          kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, out);
          expect_bitwise(out, want, "gru_gate_into");
        }
      }
    }
  }
}

TEST(Simd, EnvForcedFallbackMatchesDispatchedPath) {
  Rng rng(9003);
  const Matrix a = randn_with_zeros(43, 29, rng);
  const Matrix b = randn_with_zeros(29, 37, rng);
  Matrix dispatched, fallback;
  kernels::matmul_into(a, b, dispatched);
  {
    ScopedEnv env("NETSHARE_SIMD", "off");
    kernels::reload_simd_env();
    EXPECT_EQ(kernels::active_tier(), kernels::SimdTier::kScalar)
        << "NETSHARE_SIMD=off must pin the scalar tier";
    kernels::matmul_into(a, b, fallback);
  }
  // ScopedEnv restored + reloaded: dispatch is back to the CPU's best tier.
  EXPECT_EQ(kernels::active_tier(), kernels::supported_tier());
  expect_bitwise(fallback, dispatched, "env-forced scalar fallback");
}

TEST(Simd, ApiForcedFallbackMatchesDispatchedPath) {
  Rng rng(9004);
  const Matrix a = randn_with_zeros(31, 41, rng);
  const Matrix b = randn_with_zeros(41, 23, rng);
  const Matrix bias = randn_with_zeros(1, 23, rng);
  Matrix dispatched, fallback;
  kernels::matmul_bias_into(a, b, bias, dispatched);
  {
    kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kScalar, 2));
    EXPECT_EQ(kernels::active_tier(), kernels::SimdTier::kScalar);
    kernels::matmul_bias_into(a, b, bias, fallback);
  }
  expect_bitwise(fallback, dispatched, "API-forced scalar fallback");
}

TEST(Simd, AutotunerDecidesDeterministicPlanAndWorkspaceCachesIt) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9005);
  // Unique prime dims so this test owns the memo entry regardless of what
  // other tests dispatched before it; flops are far above the tuning floor.
  const std::size_t m = 59, k = 61, n = 53;
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c;
  kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kAvx2, 1));
  // 3 candidates × 2 timing rounds: the 7th dispatch runs on a decided plan.
  for (int i = 0; i < 8; ++i) kernels::matmul_into(a, b, c);
  const kernels::TunePlan plan =
      kernels::tuned_plan(kernels::TuneOp::kMatmul, m, k, n);
  EXPECT_TRUE(plan.decided) << "autotuner should have converged";
  EXPECT_TRUE(plan.jtile == 8 || plan.jtile == 16 || plan.jtile == 32);
  // Same shapes → same plan: the memo is immutable once decided.
  for (int i = 0; i < 3; ++i) {
    const kernels::TunePlan again =
        kernels::tuned_plan(kernels::TuneOp::kMatmul, m, k, n);
    EXPECT_EQ(again.decided, plan.decided);
    EXPECT_EQ(again.jtile, plan.jtile);
  }
  // The per-model Workspace snapshot returns the same plan and memoizes it.
  Workspace ws;
  const kernels::TunePlan from_ws =
      ws.tune_plan(kernels::TuneOp::kMatmul, m, k, n);
  EXPECT_TRUE(from_ws.decided);
  EXPECT_EQ(from_ws.jtile, plan.jtile);
  EXPECT_EQ(ws.cached_plans(), 1u);
  const kernels::TunePlan cached =
      ws.tune_plan(kernels::TuneOp::kMatmul, m, k, n);
  EXPECT_EQ(cached.jtile, plan.jtile);
  EXPECT_EQ(ws.cached_plans(), 1u);
  // An undecided shape reports the default plan and is never cached stale.
  const kernels::TunePlan undecided =
      ws.tune_plan(kernels::TuneOp::kTransB, 997, 991, 983);
  EXPECT_FALSE(undecided.decided);
  EXPECT_EQ(ws.cached_plans(), 1u);
}

TEST(Simd, AutotunerConvergesForTheFusedGate) {
  if (!simd_available()) GTEST_SKIP() << "host has no AVX2";
  Rng rng(9006);
  const std::size_t batch = 43, in = 19, hid = 47;
  const Matrix x = Matrix::randn(batch, in, rng);
  const Matrix wx = Matrix::randn(in, hid, rng);
  const Matrix h = Matrix::randn(batch, hid, rng);
  const Matrix wh = Matrix::randn(hid, hid, rng);
  const Matrix bias = Matrix::randn(1, hid, rng);
  Matrix scratch, out;
  kernels::ConfigOverride guard(tier_cfg(kernels::SimdTier::kAvx2, 1));
  for (int i = 0; i < 6; ++i) {  // 2 gate candidates × 2 rounds, plus slack
    kernels::gru_gate_into(x, wx, h, wh, bias, kernels::GateAct::kSigmoid,
                           scratch, out);
  }
  const kernels::TunePlan plan =
      kernels::tuned_plan(kernels::TuneOp::kGate, batch, in + hid, hid);
  EXPECT_TRUE(plan.decided);
  EXPECT_TRUE(plan.jtile == 8 || plan.jtile == 16)
      << "gate competes only the 8/16 candidates (register pressure)";
}

// --- end-to-end: full DoppelGanger fit+sample per kernel tier -------------

gan::TimeSeriesSpec tiny_spec() {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{OutputSegment::Kind::kSoftmax, 3},
                             {OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

gan::TimeSeriesDataset tiny_data(std::size_t n) {
  gan::TimeSeriesDataset data;
  data.spec = tiny_spec();
  data.attributes = Matrix(n, 4);
  data.features.assign(4, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.5, 0.3, 0.2});
    data.attributes(i, cat) = 1.0;
    data.attributes(i, 3) = rng.uniform(0.2, 0.8);
    data.lengths[i] = cat + 1;
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) = rng.uniform(0.1, 0.9);
    }
  }
  return data;
}

std::vector<double> train_and_snapshot(kernels::SimdTier tier,
                                       std::size_t kernel_threads,
                                       gan::GeneratedSeries* sampled) {
  kernels::ConfigOverride guard(tier_cfg(tier, kernel_threads));
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  gan::DoppelGanger model(tiny_spec(), dg, 1234);
  model.fit(tiny_data(64), 25);
  Rng sample_rng(55);
  *sampled = model.sample(12, sample_rng);
  return model.snapshot();
}

TEST(Simd, DoppelGangerFitAndSampleBitwiseIdenticalAcrossTiers) {
  if (!simd_available()) {
    GTEST_SKIP() << "host has no AVX2: only the scalar tier exists";
  }
  gan::GeneratedSeries scalar_out, simd_out, simd_mt_out;
  const std::vector<double> scalar_snap =
      train_and_snapshot(kernels::SimdTier::kScalar, 1, &scalar_out);
  const std::vector<double> simd_snap =
      train_and_snapshot(kernels::SimdTier::kAvx2, 1, &simd_out);
  const std::vector<double> simd_mt_snap =
      train_and_snapshot(kernels::SimdTier::kAvx2, 8, &simd_mt_out);

  ASSERT_EQ(scalar_snap.size(), simd_snap.size());
  EXPECT_EQ(std::memcmp(scalar_snap.data(), simd_snap.data(),
                        scalar_snap.size() * sizeof(double)),
            0)
      << "SIMD-tier training changed the learned weights";
  EXPECT_EQ(std::memcmp(scalar_snap.data(), simd_mt_snap.data(),
                        scalar_snap.size() * sizeof(double)),
            0)
      << "SIMD-tier training is thread-count dependent";

  for (const gan::GeneratedSeries* out : {&simd_out, &simd_mt_out}) {
    expect_bitwise(out->attributes, scalar_out.attributes,
                   "sampled attributes");
    ASSERT_EQ(out->features.size(), scalar_out.features.size());
    for (std::size_t t = 0; t < scalar_out.features.size(); ++t) {
      expect_bitwise(out->features[t], scalar_out.features[t],
                     "sampled features");
    }
    EXPECT_EQ(out->lengths, scalar_out.lengths);
  }
}

}  // namespace
}  // namespace netshare::ml
