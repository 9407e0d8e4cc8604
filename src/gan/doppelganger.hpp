// DoppelGANger-style time-series GAN (Lin et al., IMC 2020), configured per
// the paper's Appendix C: MLP metadata (attribute) generator, GRU
// measurement generator with 2-way softmax generation flags, Wasserstein
// loss, auxiliary discriminator on attributes, [0,1] normalization, no
// packing, no auto-normalization.
//
// Substitution note (DESIGN.md): the WGAN-GP gradient penalty is replaced by
// a two-point Lipschitz penalty on pairs of random interpolates, which
// penalizes the same constraint without second-order backprop.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gan/timeseries.hpp"
#include "ml/gru.hpp"
#include "ml/health.hpp"
#include "ml/mlp.hpp"
#include "ml/optim.hpp"
#include "ml/workspace.hpp"
#include "privacy/dp_sgd.hpp"

namespace netshare::gan {

struct DgConfig {
  std::size_t attr_noise_dim = 8;
  std::size_t feat_noise_dim = 8;
  std::vector<std::size_t> attr_hidden = {64, 64};
  std::size_t rnn_hidden = 48;
  std::vector<std::size_t> disc_hidden = {96, 96};
  std::vector<std::size_t> aux_hidden = {48};

  int iterations = 300;
  std::size_t batch_size = 64;
  int d_steps_per_g = 2;
  double lr = 1e-3;
  double lipschitz_weight = 10.0;
  double aux_weight = 1.0;
  double grad_clip = 5.0;

  // Differentially-private training: DP-SGD on the discriminators (the only
  // components touching real data; generator updates are post-processing).
  bool dp = false;
  privacy::DpSgdConfig dp_config;

  // Numeric health guard + rollback-and-retry policy (DESIGN.md §9). On a
  // healthy run the guard only reads, so determinism and the zero-allocation
  // steady state are unchanged; health.enabled = false removes even that.
  ml::health::HealthConfig health;
};

class DoppelGanger {
 public:
  DoppelGanger(TimeSeriesSpec spec, DgConfig config, std::uint64_t seed);
  // Pinned: the model's own sampler refers to gen_.
  DoppelGanger(const DoppelGanger&) = delete;
  DoppelGanger& operator=(const DoppelGanger&) = delete;

  // Trains (or, when called on a restored model, fine-tunes) for
  // config.iterations on `data`. Above one kernel thread, each iteration's
  // generator forwards run on up to two helper threads taken from the
  // kernel thread budget (DESIGN.md §15); the result is bitwise the same
  // at any thread count.
  void fit(const TimeSeriesDataset& data);
  // Same, with an explicit iteration count (fine-tuning uses fewer).
  void fit(const TimeSeriesDataset& data, int iterations);

  // Samples n synthetic series.
  GeneratedSeries sample(std::size_t n, Rng& rng);

  // Batched zero-allocation sampling into caller-owned buffers (the
  // generation twin of the DESIGN.md §6 training hot path). Series
  // `first_series + i` draws its noise from the counter-based stream
  // (stream_seed, first_series + i), and every stage of the generator
  // forward pass is row-wise, so each output row is a pure function of its
  // own stream: results are bitwise independent of the batch size, of how
  // callers partition [0, n) across calls, of the kernel thread count, and
  // of which Sampler runs them. After a warm-up call with the same n,
  // repeated calls perform zero Matrix heap allocations (asserted in
  // tests/test_generate.cpp). Runs on the model's own sampler, so it is not
  // thread-safe per model instance; concurrent callers each use a Sampler
  // from make_sampler().
  // The fast path is length-adaptive: the generator is stepped one RNN step
  // at a time and series whose alive flag has dropped leave the batch, so
  // compute is proportional to the total emitted length rather than
  // n * max_len (generated series are usually much shorter than max_len).
  void sample_into(std::size_t n, std::uint64_t stream_seed,
                   std::size_t first_series, GeneratedSeries& out);

  // Reference sampler: the training-path full unroll (every series runs all
  // max_len steps through Generator::forward, then lengths are read off
  // the alive flags). Bitwise identical to sample_into — steps at or past a
  // series' length were computed and discarded here, skipped there — and
  // kept as the oracle for tests and the serial baseline for
  // bench/pipeline_e2e. Same stream/zero-allocation contract as
  // sample_into.
  void sample_reference_into(std::size_t n, std::uint64_t stream_seed,
                             std::size_t first_series, GeneratedSeries& out);

  // Caller-owned sampling state (DESIGN.md §7): a forward-only copy of the
  // generator's weights taken now, plus every buffer sampling writes.
  // Samplers made from one model sample concurrently and equal sample_into
  // bitwise. make_sampler only reads the model, so several threads may call
  // it at once; nobody may train the model while it runs or while a sampler
  // made from it is in use.
  class Sampler;
  std::unique_ptr<Sampler> make_sampler();

  // Warm-start support (Insights 3 and 4).
  std::vector<double> snapshot();
  void restore(const std::vector<double>& snapshot);

  // Cumulative CPU-seconds spent inside fit() (Fig. 4's scalability axis):
  // the calling thread's plus every helper task's thread CPU.
  double train_cpu_seconds() const { return train_cpu_seconds_; }
  // Number of DP-SGD steps taken so far (for the accountant).
  std::size_t dp_steps() const { return dp_steps_; }

  // Health-guard counters accumulated across fit() calls (all zero when the
  // guard is disabled or fit() has not run).
  ml::health::TrainHealthStats health_stats() const {
    return monitor_ ? monitor_->stats() : ml::health::TrainHealthStats{};
  }

  const TimeSeriesSpec& spec() const { return spec_; }
  const DgConfig& config() const { return config_; }

 private:
  struct GenOutput {
    ml::Matrix attributes;             // B x A
    std::vector<ml::Matrix> features;  // T of B x (F+2), incl. gen flags
  };

  // The four generator modules plus the buffers one forward pass through
  // them needs. The trained generator is one; when fit() has helper
  // threads, a forward-only mirror holding a copy of its weights runs the
  // critic steps' forwards (DESIGN.md §15), and every Sampler from
  // make_sampler() holds another such copy (DESIGN.md §7).
  struct Generator {
    Generator(const TimeSeriesSpec& spec, const DgConfig& config, Rng& rng);
    std::vector<ml::Parameter*> parameters();
    // Copies src's weights into this generator (reads src only).
    void copy_weights_from(Generator& src);
    // Attribute MLP, per-step concat, GRU unroll, MixedHead: consumes `za`
    // and the per-step noise `zts`, keeps the caches backward needs, and
    // writes into `out` (persistent buffers, so steady-state calls reuse
    // capacity). Shared by training and the reference sampler.
    void forward(const ml::Matrix& za, const std::vector<ml::Matrix>& zts,
                 GenOutput& out);

    std::unique_ptr<ml::Mlp> attr;
    std::unique_ptr<ml::Gru> rnn;
    std::unique_ptr<ml::Linear> out_linear;
    std::unique_ptr<ml::MixedHead> out_head;
    ml::Workspace ws;             // reset by every forward()
    std::vector<ml::Matrix> xs;   // RNN inputs [z_t | attr]
  };

  // Everything one critic or generator step draws from rng_, staged before
  // any of the iteration's forwards run, plus the fakes its forward makes.
  struct StepBatch {
    std::vector<std::size_t> rows;           // critic: real minibatch rows
    ml::Matrix za;                           // attribute noise
    std::vector<ml::Matrix> zts;             // per-step feature noise
    std::vector<double> interp, aux_interp;  // critic: (e1, e2) per row
    GenOutput fake;
  };

  struct Helpers;  // one fit() call's helper threads (doppelganger.cpp)

  // Backprop through the generator given dLoss/d(attr) and dLoss/d(features).
  void generator_backward(const ml::Matrix& attr_grad,
                          const std::vector<ml::Matrix>& feature_grads);

  // Flattens (attr, features) into the discriminator input [B, A + T*(F+2)],
  // assembling each output row directly (no intermediate concatenations).
  void disc_input_into(const ml::Matrix& attr,
                       const std::vector<ml::Matrix>& feats,
                       ml::Matrix& x) const;
  // Builds a real minibatch (with gen flags appended) from the dataset.
  void real_batch_into(const TimeSeriesDataset& data,
                       const std::vector<std::size_t>& rows,
                       GenOutput& out) const;

  // One training iteration (DESIGN.md §15): stage every draw, run the
  // generator forwards (on `helpers` when given, else inline), apply the
  // critic updates as their fakes become ready, then the generator update.
  void train_iteration(const TimeSeriesDataset& data, Helpers* helpers);
  // Draws za then every z_t for a batch of `batch` rows.
  void stage_noise(std::size_t batch, StepBatch& s);
  void critic_update(const TimeSeriesDataset& data, const StepBatch& s);
  void critic_update_dp(const TimeSeriesDataset& data, StepBatch& s);
  void generator_update(const StepBatch& s);

  std::size_t flag_offset() const;  // column of the alive flag within a step

  TimeSeriesSpec spec_;
  DgConfig config_;
  std::uint64_t seed_;  // construction seed; fault injection filters on it
  Rng rng_;

  Generator gen_;
  // Forward-only copy of gen_'s weights for the critic steps' forwards on a
  // helper thread; built by the first fit() that has helpers and kept with
  // the model, so a later fit() allocates nothing (DESIGN.md §6, §15).
  std::unique_ptr<Generator> mirror_;
  std::unique_ptr<ml::Mlp> disc_;
  std::unique_ptr<ml::Mlp> aux_disc_;

  std::unique_ptr<ml::Adam> g_opt_;
  std::unique_ptr<ml::Adam> d_opt_;
  std::unique_ptr<privacy::DpSgdAggregator> dp_agg_;

  // Per-model allocation arena (DESIGN.md §6): reset at the top of every
  // training update; owned by the model so chunk-parallel fine-tuning
  // (core/train.cpp) never shares buffers across threads.
  ml::Workspace ws_;
  // Persistent batch buffers reused across iterations.
  std::vector<StepBatch> steps_;    // d_steps_per_g critic steps, then G
  GenOutput real_;
  std::vector<ml::Matrix> ghs_;     // per-step hidden-state gradients
  std::vector<ml::Matrix> fgrads_;  // per-step feature gradients
  ml::Matrix xr_, xf_, x1_, x2_, a1_, a2_, fa_row_;
  std::vector<double> dist_, adist_, dp_interp_;
  std::vector<std::size_t> row1_;
  // The model's own sampler (sample_into, sample_reference_into): runs on
  // gen_ itself, made on first use.
  std::unique_ptr<Sampler> sampler_;
  Sampler& own_sampler();

  double train_cpu_seconds_ = 0.0;
  std::size_t dp_steps_ = 0;

  // Health guard (DESIGN.md §9): per-model monitor plus the most recent
  // losses / post-clip gradient norms the update functions record for it.
  std::unique_ptr<ml::health::HealthMonitor> monitor_;
  double last_d_loss_ = 0.0;
  double last_g_loss_ = 0.0;
  double last_d_grad_norm_ = 0.0;
  double last_g_grad_norm_ = 0.0;

  std::vector<ml::Parameter*> generator_params();
  std::vector<ml::Parameter*> discriminator_params();
  std::vector<ml::Parameter*> all_params();
};

class DoppelGanger::Sampler {
 public:
  // Same contract as DoppelGanger::sample_into.
  void sample_into(std::size_t n, std::uint64_t stream_seed,
                   std::size_t first_series, GeneratedSeries& out);

 private:
  friend class DoppelGanger;
  // Samples through `gen` (the model's own generator, or copy_).
  Sampler(const DoppelGanger& model, Generator& gen);
  Sampler(const DoppelGanger& model, std::unique_ptr<Generator> copy);

  void sample_reference_into(std::size_t n, std::uint64_t stream_seed,
                             std::size_t first_series, GeneratedSeries& out);
  // Builds one batch of per-series counter-based noise streams (noise_),
  // fills za (a ws_ cursor) with each series' attribute noise, and returns
  // za. Draw order per series is fixed — attribute noise, then z_0, z_1,
  // ... — so the adaptive sampler (which draws z_t lazily, only for series
  // still alive at step t) sees exactly the same prefix of each stream as
  // the reference sampler (which drains all max_len steps).
  ml::Matrix& stage_attr_noise(std::size_t b, std::uint64_t stream_seed,
                               std::size_t first_series);

  const TimeSeriesSpec& spec_;
  const DgConfig& config_;
  std::unique_ptr<Generator> copy_;  // null for the model's own sampler
  Generator& gen_;
  ml::Workspace ws_;  // reset per batch
  std::vector<NoiseStream> noise_;  // per-series streams for one batch
  // Length-adaptive state (sample_into): compacting double buffers for the
  // live sub-batch's hidden state and attribute rows, the per-step RNN
  // input, and the surviving series' original batch indices.
  ml::Matrix h_, h_next_, x_, attr_, attr_next_;
  std::vector<std::size_t> live_;
  // Reference-sampler noise z_t and output.
  std::vector<ml::Matrix> zts_;
  GenOutput fake_;
};

}  // namespace netshare::gan
