// Layer probes for train-caida: DoppelGanger::fit iterations per second on
// the seed-chunk dataset, and the ml::kernels entry points at the shapes a
// training step dispatches, both at 1 kernel thread and at the run's thread
// budget. Shapes are derived from the workload's DgConfig and
// TimeSeriesSpec, never hard-coded.
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/preprocess.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"

namespace perfbench {
namespace {

using namespace netshare;
namespace kn = ml::kernels;

constexpr std::size_t kFlagDims = 2;  // DoppelGanger's alive/done columns
constexpr int kFitIters = 40;
constexpr double kKernelWindowS = 0.08;

ml::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  ml::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform() - 0.5;
  }
  return m;
}

std::string shape_name(std::size_t r, std::size_t k, std::size_t n) {
  return std::to_string(r) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

// Calls `fn` until kKernelWindowS has passed (after 3 warm-up calls) and
// returns GFLOP/s.
double gflops(double flops_per_call, const std::function<void()>& fn) {
  for (int i = 0; i < 3; ++i) fn();
  std::size_t calls = 0;
  const double t0 = now_s();
  double el = 0.0;
  do {
    fn();
    ++calls;
    el = now_s() - t0;
  } while (el < kKernelWindowS || calls < 5);
  return flops_per_call * static_cast<double>(calls) / el / 1e9;
}

kn::KernelConfig with_threads(std::size_t threads) {
  kn::KernelConfig cfg = kn::config();
  cfg.threads = threads;
  return cfg;
}

}  // namespace

void probe_kernels(Run& run, const net::PacketTrace& real) {
  Tracer& tracer = *run.tracer;
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.max_seq_len = 16;
  cfg.threads = run.threads;
  core::PacketEncoder enc(cfg, nullptr);
  enc.fit(real);
  const auto datasets = enc.encode(real);
  const gan::TimeSeriesSpec spec = enc.spec();
  const gan::DgConfig& dg = cfg.dg;

  const std::vector<std::pair<std::string, std::size_t>> budgets = {
      {"t1", 1}, {"tN", run.threads}};

  // gan.fit_iters_per_s on the seed chunk (first non-empty one).
  std::size_t seed_c = 0;
  while (seed_c < datasets.size() && datasets[seed_c].num_samples() == 0) {
    ++seed_c;
  }
  run.check(seed_c < datasets.size(), "train-caida: no non-empty chunk");
  if (seed_c < datasets.size()) {
    for (const auto& [tag, threads] : budgets) {
      SpanScope s(tracer, "gan.fit." + tag);
      kn::ConfigOverride guard(with_threads(threads));
      gan::DoppelGanger model(spec, dg, cfg.seed);
      model.fit(datasets[seed_c], 2);  // warm pools and the autotuner
      const double t0 = now_s();
      model.fit(datasets[seed_c], kFitIters);
      run.layer["gan.fit_iters_per_s." + tag] = {kFitIters / (now_s() - t0),
                                                 "1/s"};
    }
  }

  // Training shapes: batch B, GRU input noise+A -> hidden H, critic input
  // A + T*(F+2) -> first hidden width D1 over the stacked 4B batch.
  const std::size_t B = dg.batch_size;
  const std::size_t A = spec.attribute_dim();
  const std::size_t X = dg.feat_noise_dim + A;
  const std::size_t H = dg.rnn_hidden;
  const std::size_t Din = A + spec.max_len * (spec.feature_dim() + kFlagDims);
  const std::size_t D1 = dg.disc_hidden.empty() ? 1 : dg.disc_hidden.front();
  const std::size_t R4 = 4 * B;

  Rng rng(run.seed ^ 0x6b65726e656c73ULL);
  // Operand sets: {a, b, bias} for the product named r x k x n.
  struct Case {
    std::string op;
    std::size_t r, k, n;
    double flops;
    std::function<void()> fn;
  };
  std::vector<Case> cases;
  std::vector<std::unique_ptr<ml::Matrix>> keep;
  const auto mat = [&](std::size_t r, std::size_t c) -> ml::Matrix& {
    keep.push_back(std::make_unique<ml::Matrix>(random_matrix(r, c, rng)));
    return *keep.back();
  };
  const auto fl = [](std::size_t r, std::size_t k, std::size_t n) {
    return 2.0 * static_cast<double>(r) * static_cast<double>(k) *
           static_cast<double>(n);
  };
  for (const auto& [r, k, n] : {std::array<std::size_t, 3>{B, X, H},
                               std::array<std::size_t, 3>{R4, Din, D1}}) {
    ml::Matrix& a = mat(r, k);
    ml::Matrix& b = mat(k, n);
    ml::Matrix& bias = mat(1, n);
    ml::Matrix& c = mat(r, n);
    cases.push_back({"matmul", r, k, n, fl(r, k, n),
                     [&a, &b, &c] { kn::matmul_into(a, b, c); }});
    cases.push_back({"bias", r, k, n, fl(r, k, n),
                     [&a, &b, &bias, &c] { kn::matmul_bias_into(a, b, bias, c); }});
    // Weight gradient: (k x r)^T-free form, A stored r x k, dY r x n.
    ml::Matrix& dy = mat(r, n);
    ml::Matrix& g = mat(k, n);
    cases.push_back({"trans_a", k, r, n, fl(k, r, n),
                     [&a, &dy, &g] { kn::matmul_trans_a_into(a, dy, g); }});
    cases.push_back({"trans_a_acc", k, r, n, fl(k, r, n),
                     [&a, &dy, &g] { kn::matmul_trans_a_acc_into(a, dy, g); }});
    // Input gradient: dY (r x n) times W^T (W is k x n).
    ml::Matrix& dx = mat(r, k);
    cases.push_back({"trans_b", r, n, k, fl(r, n, k),
                     [&dy, &b, &dx] { kn::matmul_trans_b_into(dy, b, dx); }});
  }
  {
    ml::Matrix& x = mat(B, X);
    ml::Matrix& wx = mat(X, H);
    ml::Matrix& h = mat(B, H);
    ml::Matrix& wh = mat(H, H);
    ml::Matrix& bias = mat(1, H);
    ml::Matrix& scratch = mat(B, H);
    ml::Matrix& out = mat(B, H);
    cases.push_back({"gru_gate", B, X, H, fl(B, X, H) + fl(B, H, H),
                     [&] {
                       kn::gru_gate_into(x, wx, h, wh, bias,
                                         kn::GateAct::kSigmoid, scratch, out);
                     }});
  }

  SpanScope s(tracer, "ml.kernels");
  for (const auto& [tag, threads] : budgets) {
    kn::ConfigOverride guard(with_threads(threads));
    for (const Case& c : cases) {
      run.layer["ml.kernels." + c.op + "." + shape_name(c.r, c.k, c.n) +
                ".gflops." + tag] = {gflops(c.flops, c.fn), "GFLOP/s"};
    }
  }
}

}  // namespace perfbench
