// Tests for the DoppelGANger time-series GAN: shape contracts, determinism,
// snapshot/restore, end-to-end learning on a small synthetic dataset, and
// the training-step schedule (helper-thread forwards are bitwise inline).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "gan/doppelganger.hpp"
#include "ml/health.hpp"
#include "ml/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::gan {
namespace {

using ml::Matrix;
using ml::OutputSegment;

// Toy dataset: attribute = categorical(3) one-hot with skew {0.6,0.3,0.1} +
// one continuous in [0,1] centered per category; feature = one continuous
// whose level tracks the attribute category; length grows with category.
TimeSeriesSpec toy_spec() {
  TimeSeriesSpec spec;
  spec.attribute_segments = {{OutputSegment::Kind::kSoftmax, 3},
                             {OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

TimeSeriesDataset toy_data(std::size_t n, std::uint64_t seed) {
  TimeSeriesDataset data;
  data.spec = toy_spec();
  data.attributes = Matrix(n, 4);
  data.features.assign(4, Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cat = rng.categorical({0.6, 0.3, 0.1});
    data.attributes(i, cat) = 1.0;
    const double level = 0.2 + 0.3 * static_cast<double>(cat);
    data.attributes(i, 3) = level + rng.normal(0.0, 0.03);
    data.lengths[i] = cat + 1;  // 1..3
    for (std::size_t t = 0; t < data.lengths[i]; ++t) {
      data.features[t](i, 0) =
          std::clamp(level + rng.normal(0.0, 0.05), 0.0, 1.0);
    }
  }
  return data;
}

DgConfig small_config() {
  DgConfig cfg;
  cfg.attr_noise_dim = 4;
  cfg.feat_noise_dim = 4;
  cfg.attr_hidden = {24};
  cfg.rnn_hidden = 24;
  cfg.disc_hidden = {32, 32};
  cfg.aux_hidden = {16};
  cfg.iterations = 120;
  cfg.batch_size = 32;
  return cfg;
}

TEST(DoppelGanger, SampleShapesMatchSpec) {
  DoppelGanger gan(toy_spec(), small_config(), 1);
  Rng rng(2);
  const GeneratedSeries s = gan.sample(10, rng);
  EXPECT_EQ(s.attributes.rows(), 10u);
  EXPECT_EQ(s.attributes.cols(), 4u);
  ASSERT_EQ(s.features.size(), 4u);
  EXPECT_EQ(s.features[0].rows(), 10u);
  EXPECT_EQ(s.features[0].cols(), 1u);
  for (std::size_t len : s.lengths) {
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 4u);
  }
}

TEST(DoppelGanger, OutputsRespectHeadRanges) {
  DoppelGanger gan(toy_spec(), small_config(), 3);
  Rng rng(4);
  const GeneratedSeries s = gan.sample(32, rng);
  for (std::size_t i = 0; i < 32; ++i) {
    double softmax_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      const double p = s.attributes(i, j);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      softmax_sum += p;
    }
    EXPECT_NEAR(softmax_sum, 1.0, 1e-9);
    EXPECT_GE(s.attributes(i, 3), 0.0);
    EXPECT_LE(s.attributes(i, 3), 1.0);
  }
}

TEST(DoppelGanger, FitRejectsBadInputs) {
  DoppelGanger gan(toy_spec(), small_config(), 5);
  TimeSeriesDataset empty;
  empty.spec = toy_spec();
  empty.attributes = Matrix(0, 4);
  EXPECT_THROW(gan.fit(empty), std::invalid_argument);

  TimeSeriesDataset wrong = toy_data(8, 6);
  wrong.features.pop_back();
  EXPECT_THROW(gan.fit(wrong), std::invalid_argument);
}

TEST(DoppelGanger, SnapshotRestoreReproducesSamples) {
  DoppelGanger a(toy_spec(), small_config(), 7);
  a.fit(toy_data(64, 8), 10);
  DoppelGanger b(toy_spec(), small_config(), 99);
  b.restore(a.snapshot());
  Rng ra(11), rb(11);
  const GeneratedSeries sa = a.sample(8, ra);
  const GeneratedSeries sb = b.sample(8, rb);
  EXPECT_EQ(sa.attributes, sb.attributes);
  EXPECT_EQ(sa.lengths, sb.lengths);
}

TEST(DoppelGanger, TrainingTracksCpuTime) {
  DoppelGanger gan(toy_spec(), small_config(), 12);
  EXPECT_DOUBLE_EQ(gan.train_cpu_seconds(), 0.0);
  gan.fit(toy_data(64, 13), 5);
  EXPECT_GT(gan.train_cpu_seconds(), 0.0);
}

TEST(DoppelGanger, LearnsToyDistribution) {
  const TimeSeriesDataset data = toy_data(400, 14);
  DoppelGanger gan(toy_spec(), small_config(), 15);
  gan.fit(data);
  Rng rng(16);
  const GeneratedSeries s = gan.sample(400, rng);

  // Category marginal: majority class should dominate in the synthetic data.
  std::vector<double> cat_freq(3, 0.0);
  for (std::size_t i = 0; i < s.attributes.rows(); ++i) {
    std::size_t arg = 0;
    for (std::size_t j = 1; j < 3; ++j) {
      if (s.attributes(i, j) > s.attributes(i, arg)) arg = j;
    }
    cat_freq[arg] += 1.0 / 400.0;
  }
  EXPECT_GT(cat_freq[0], cat_freq[2]);

  // Continuous attribute mean within a loose band of the real mean (~0.33).
  double syn_mean = 0.0, real_mean = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    syn_mean += s.attributes(i, 3) / 400.0;
    real_mean += data.attributes(i, 3) / 400.0;
  }
  EXPECT_NEAR(syn_mean, real_mean, 0.15);

  // Mean series length in a sane band around the real mean (~1.5).
  double syn_len = 0.0, real_len = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    syn_len += static_cast<double>(s.lengths[i]) / 400.0;
    real_len += static_cast<double>(data.lengths[i]) / 400.0;
  }
  EXPECT_NEAR(syn_len, real_len, 1.0);
}

TEST(DoppelGanger, FineTuningFromSnapshotPreservesFit) {
  // Warm start (Insight 3): restoring a trained seed and fine-tuning briefly
  // on the same distribution must not destroy the learned fit.
  const TimeSeriesDataset data = toy_data(300, 17);
  DgConfig cfg = small_config();
  cfg.iterations = 150;
  DoppelGanger seed(toy_spec(), cfg, 18);
  seed.fit(data);

  auto attr_mean_err = [&](DoppelGanger& g) {
    Rng rng(20);
    const GeneratedSeries s = g.sample(300, rng);
    double real_mean = 0.0, syn_mean = 0.0;
    for (std::size_t i = 0; i < 300; ++i) {
      real_mean += data.attributes(i, 3) / 300.0;
      syn_mean += s.attributes(i, 3) / 300.0;
    }
    return std::fabs(real_mean - syn_mean);
  };
  const double seed_err = attr_mean_err(seed);

  DoppelGanger warm(toy_spec(), cfg, 19);
  warm.restore(seed.snapshot());
  warm.fit(data, 30);
  EXPECT_LE(attr_mean_err(warm), seed_err + 0.12);
}

TEST(DoppelGanger, DpModeRunsAndCountsSteps) {
  DgConfig cfg = small_config();
  cfg.iterations = 3;
  cfg.batch_size = 8;
  cfg.dp = true;
  cfg.dp_config = {1.0, 1.0};
  DoppelGanger gan(toy_spec(), cfg, 21);
  gan.fit(toy_data(32, 22));
  EXPECT_EQ(gan.dp_steps(), 3u * 2u);  // iterations * d_steps_per_g
  Rng rng(23);
  const GeneratedSeries s = gan.sample(4, rng);
  EXPECT_EQ(s.attributes.rows(), 4u);
}

// Generator forwards run on helper threads so far in this process (0 when
// telemetry is compiled out or disabled).
std::uint64_t helper_forwards() {
  for (const auto& [name, value] : telemetry::snapshot_metrics().counters) {
    if (name == "gan.train.helper_forwards") return value;
  }
  return 0;
}

struct FitResult {
  std::vector<double> snapshot;
  double cpu_seconds = 0.0;
  int rollbacks = 0;
};

// Fits a fresh model at `kernel_threads`: 1 runs the schedule inline, 4
// gives fit() two helper threads.
FitResult fit_at(std::size_t kernel_threads, const DgConfig& cfg,
                 const TimeSeriesDataset& data, int iterations) {
  ml::kernels::KernelConfig kc;
  kc.threads = kernel_threads;
  ml::kernels::ConfigOverride guard(kc);
  DoppelGanger gan(toy_spec(), cfg, 31);
  gan.fit(data, iterations);
  return {gan.snapshot(), gan.train_cpu_seconds(),
          gan.health_stats().rollbacks};
}

void expect_same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": helper-thread training diverged from inline training";
}

TEST(DoppelGangerSchedule, HelpersMatchInlineBitwise) {
  // 96 samples take the full batch; 10 samples take the min(batch_size, n)
  // critic batch while the generator step stays at batch_size.
  for (const std::size_t n : {std::size_t{96}, std::size_t{10}}) {
    const TimeSeriesDataset data = toy_data(n, 30);
    for (const int d : {1, 2, 3}) {
      DgConfig cfg = small_config();
      cfg.d_steps_per_g = d;
      const std::string what =
          "n=" + std::to_string(n) + " d_steps_per_g=" + std::to_string(d);
      const std::uint64_t before = helper_forwards();
      const FitResult serial = fit_at(1, cfg, data, 12);
      EXPECT_EQ(helper_forwards(), before)
          << what << ": one kernel thread must train inline";
      const FitResult helped = fit_at(4, cfg, data, 12);
      if (telemetry::kCompiledIn && telemetry::enabled()) {
        EXPECT_GT(helper_forwards(), before) << what << ": helpers unused";
      }
      expect_same_bytes(serial.snapshot, helped.snapshot, what);
    }
  }
}

TEST(DoppelGangerSchedule, RollbackResyncsTheMirror) {
  // A NaN injected after step 7 is caught by the step-10 check and rolled
  // back to the step-5 checkpoint. The mirror then held NaN weights; unless
  // it is re-synced from the restored generator, the helpers' critic
  // forwards would differ from the inline run's.
  DgConfig cfg = small_config();
  cfg.health.check_every = 5;
  cfg.health.checkpoint_every = 5;
  ml::health::FaultPlan plan;
  plan.nan_at_step = 7;
  const TimeSeriesDataset data = toy_data(96, 32);
  FitResult serial, helped;
  {
    ml::health::ScopedFaultPlan arm(plan);
    serial = fit_at(1, cfg, data, 20);
  }
  {
    ml::health::ScopedFaultPlan arm(plan);
    helped = fit_at(4, cfg, data, 20);
  }
  EXPECT_EQ(serial.rollbacks, 1);
  EXPECT_EQ(helped.rollbacks, 1);
  expect_same_bytes(serial.snapshot, helped.snapshot, "rollback at step 10");
}

TEST(DoppelGangerSchedule, CpuSecondsIncludeHelperTasks) {
  // The forwards moved to helper threads still count toward
  // train_cpu_seconds() (Fig. 4's cost axis).
  const TimeSeriesDataset data = toy_data(96, 33);
  const FitResult serial = fit_at(1, small_config(), data, 60);
  const FitResult helped = fit_at(4, small_config(), data, 60);
  EXPECT_GE(helped.cpu_seconds, 0.75 * serial.cpu_seconds)
      << "inline " << serial.cpu_seconds << " s vs helpers "
      << helped.cpu_seconds << " s";
}

}  // namespace
}  // namespace netshare::gan
