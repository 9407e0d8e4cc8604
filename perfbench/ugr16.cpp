// generate-ugr16 and serve-ugr16: a NetFlow model on the kUgr16 preset with
// IP2Vec port encoding, fitted during set-up.
//
// generate-ugr16 times one offline export: NetShare::generate_flows of
// kGenerateFlows flows, then remap_ips / retrain_dst_ports /
// repair_flow_fields and write_netflow_csv into memory. No training is
// timed, so a training-only change should leave it unchanged.
//
// serve-ugr16 puts the same model behind an in-process serve::Service and
// drives it three ways: closed bursts (e2e_s, records_per_s), an open loop
// of seeded Poisson arrivals at a nominal rate with one registry hot-swap
// (latency percentiles), and a ladder of fixed absolute rates (the highest
// rate meeting the p99 limit without a growing backlog).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/netshare.hpp"
#include "core/postprocess.hpp"
#include "core/preprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "metrics/field_metrics.hpp"
#include "ml/workspace.hpp"
#include "net/netflow_io.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using namespace netshare;
namespace fs = std::filesystem;

constexpr std::size_t kUgrFlows = 3000;        // real trace size
constexpr std::size_t kGenerateFlows = 250000;  // offline export size
constexpr int kSetupRepeats = 3;
const std::string kModelId = "ugr16";

// serve-ugr16 load shape.
constexpr std::size_t kBurstJobs = 100;
constexpr int kBursts = 3;
// Nominal open-loop rate, about 15% of capacity. It is not a measured user
// load: it was chosen because the latency median is steady there. At this
// load the median job finds the service idle, so scheduling (DRR,
// coalescing) shows in the tail and in the ladder, not in the median.
constexpr double kNominalRate = 12.0;  // jobs/s
// The open loop takes this share of --seconds; the bursts and the ladder,
// which run to completion, take about the rest.
constexpr double kNominalShare = 0.55;
constexpr std::size_t kMinNominalJobs = 200;  // p95 with 10 samples beyond
constexpr std::size_t kOracleEvery = 16;   // seeded 1-in-16 served jobs
// Tail-latency limit of the ladder: about 4x the large job's service time,
// so it is crossed where latency climbs steeply toward saturation, not at
// moderate load where one cluster of large jobs decides the rung. Rungs
// last long enough (kRungSeconds) for a 20% overload to queue up more than
// the limit.
constexpr double kTailLimitMs = 500.0;
// Ladder of absolute rates: rung k offers kLadderBase * kLadderStep^k jobs/s.
constexpr double kLadderBase = 20.0;
constexpr double kLadderStep = 1.04;
constexpr int kCoarseRungs = 2;            // rungs per coarse step
constexpr int kMaxRung = 200;
constexpr double kRungSeconds = 3.0;
constexpr std::size_t kRungMinJobs = 80;

// IP2Vec ports and the default DG model; the chunked schedule is cut to
// 100 seed / 30 fine-tune iterations so that set-up, which runs three times
// per run, stays short. Training cost is measured by train-caida.
core::NetShareConfig ugr16_config(const Run& run) {
  core::NetShareConfig cfg;
  cfg.seed_iterations = 100;
  cfg.finetune_iterations = 30;
  cfg.threads = run.threads;
  return cfg;
}

// A fitted model.
struct Ugr16Model {
  core::NetShareConfig cfg;
  net::FlowTrace real;
  std::shared_ptr<embed::Ip2Vec> ip2vec;
  std::unique_ptr<core::NetShare> net;
  double ip2vec_s = 0.0;
  double fit_s = 0.0;
};

// Set-up: dataset synthesis, IP2Vec on the public trace, then
// NetShare::fit. With `ckpt_dir` the fit also writes the chunk checkpoints
// the model registry publishes and ChunkProbe resumes from.
std::unique_ptr<Ugr16Model> fit_model(Run& run, Tracer& tracer,
                                      const std::string& ckpt_dir) {
  auto m = std::make_unique<Ugr16Model>();
  m->cfg = ugr16_config(run);
  m->cfg.checkpoint_dir = ckpt_dir;
  {
    SpanScope s(tracer, "datagen.synthesize");
    m->real = datagen::make_dataset(datagen::DatasetId::kUgr16, kUgrFlows,
                                    kTraceSeed).flows;
  }
  {
    SpanScope s(tracer, "embed.ip2vec_train");
    const double t0 = now_s();
    m->ip2vec = core::make_public_ip2vec_for(m->cfg);
    m->ip2vec_s = now_s() - t0;
  }
  {
    SpanScope s(tracer, "core.train");
    const double t0 = now_s();
    m->net = std::make_unique<core::NetShare>(m->cfg, m->ip2vec);
    m->net->fit(m->real);
    m->fit_s = now_s() - t0;
  }
  const core::TrainReport& report = m->net->train_report();
  run.attempted += report.chunks.size();
  run.failed += report.count(core::ChunkTrainReport::Status::kSeedFallback);
  return m;
}

std::string fresh_dir(const Run& run, const std::string& name) {
  const fs::path p = fs::path(run.workdir) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------- generate

struct GenRep {
  double seconds = 0.0;
  double postprocess_s = 0.0;
  double export_s = 0.0;
  std::size_t csv_bytes = 0;
  std::uint64_t digest = 0;
  double jsd = 0.0;
  std::size_t shortfall = 0;  // requested minus generated flows
};

GenRep generate_rep(Run& run, Tracer& tracer, Ugr16Model& m, bool fidelity) {
  GenRep rep;
  const std::size_t n = kGenerateFlows;
  const double t0 = now_s();
  SpanScope root(tracer, "generate-ugr16");
  net::FlowTrace flows;
  {
    SpanScope s(tracer, "core.generate", root.id());
    Rng rng(run.seed + 1);
    flows = m.net->generate_flows(n, rng);
  }
  const double t1 = now_s();
  net::FlowTrace post;
  {
    SpanScope s(tracer, "core.postprocess", root.id());
    post = core::remap_ips(flows, core::IpRemapConfig{}, m.cfg.threads);
    Rng rng(run.seed + 2);
    post = core::retrain_dst_ports(post, {{80, 0.5}, {443, 0.4}, {53, 0.1}},
                                   rng, m.cfg.threads);
    core::repair_flow_fields(post, m.cfg.threads);
  }
  const double t2 = now_s();
  std::string csv;
  {
    SpanScope s(tracer, "net.export", root.id());
    std::ostringstream os;
    net::write_netflow_csv(post, os);
    csv = std::move(os).str();
  }
  root.close();
  const double t3 = now_s();
  rep.seconds = t3 - t0;
  rep.postprocess_s = t2 - t1;
  rep.export_s = t3 - t2;
  rep.csv_bytes = csv.size();
  rep.digest = fnv1a(csv);

  rep.shortfall = n - std::min(n, flows.size());
  run.count_records(n, flows.size(), "generate-ugr16: generated flows");
  run.check(post.size() == flows.size(),
            "generate-ugr16: postprocessed flow count");
  const auto lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  run.check(lines == flows.size() + 1, "generate-ugr16: csv row count");
  if (fidelity) rep.jsd = metrics::compare_flows(m.real, flows).mean_jsd();
  return rep;
}

// ------------------------------------------------------------------- serve

struct JobRec {
  std::size_t records = 0;
  std::uint64_t seed = 0;
  double due = 0.0;     // absolute now_s() the job was due
  double submit = 0.0;  // when submit() returned
  double first = -1.0;  // first on_chunk
  double done = -1.0;   // on_done / on_error
  bool ok = false;
  std::uint64_t delivered = 0;
  bool keep = false;    // parts kept for the oracle comparison
  std::vector<net::FlowTrace> parts;
  std::uint64_t span = 0;
};

// Tracks one phase's jobs until all have settled.
class Phase {
 public:
  // keep_all keeps every job's parts (for the output digest); otherwise a
  // seeded 1-in-kOracleEvery subset is kept for the oracle comparison.
  explicit Phase(std::size_t jobs, bool keep_all = false)
      : keep_all_(keep_all), recs_(jobs) {}
  std::vector<JobRec>& recs() { return recs_; }
  bool keep_all() const { return keep_all_; }

  serve::JobCallbacks callbacks(std::size_t i, Tracer& tracer) {
    JobRec* r = &recs_[i];
    serve::JobCallbacks cbs;
    cbs.on_chunk = [this, r](std::size_t c, net::FlowTrace part) {
      const double t = now_s();
      std::lock_guard<std::mutex> lock(mu_);
      if (r->first < 0) r->first = t;
      if (r->keep) {
        if (r->parts.size() <= c) r->parts.resize(c + 1);
        auto& dst = r->parts[c].records;
        dst.insert(dst.end(), part.records.begin(), part.records.end());
      }
    };
    cbs.on_done = [this, r, &tracer](std::uint64_t records, std::uint64_t) {
      const double t = now_s();
      tracer.end(r->span);
      std::lock_guard<std::mutex> lock(mu_);
      r->done = t;
      r->ok = true;
      r->delivered = records;
      ++settled_;
      cv_.notify_all();
    };
    cbs.on_error = [this, r, &tracer](serve::ErrorCode, const std::string&) {
      const double t = now_s();
      tracer.end(r->span);
      std::lock_guard<std::mutex> lock(mu_);
      r->done = t;
      ++settled_;
      cv_.notify_all();
    };
    return cbs;
  }

  // A job that was never admitted settles at once.
  void shed(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_[i].done = now_s();
    ++settled_;
    cv_.notify_all();
  }

  std::size_t settled() {
    std::lock_guard<std::mutex> lock(mu_);
    return settled_;
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return settled_ == recs_.size(); });
  }

 private:
  const bool keep_all_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t settled_ = 0;
  std::vector<JobRec> recs_;
};

struct PhaseResult {
  std::vector<double> latency_ms;     // due -> done, admitted jobs
  std::vector<double> first_part_ms;  // due -> first part
  std::vector<double> lateness_ms;    // due -> submit returned
  std::size_t failed = 0;
  std::size_t backlog_at_last_due = 0;
  double wall_s = 0.0;                // first due -> last settled
  std::uint64_t records = 0;
  std::uint64_t digest = 0;  // kept jobs' merged outputs, in job order
};

struct Server {
  Ugr16Model* model = nullptr;
  serve::ModelRegistry* registry = nullptr;
  serve::Service* service = nullptr;
  std::string ckpt_dir;
};

// Sends `jobs` at absolute due times (open loop from this thread; all at
// once when `due` is empty) and waits for every job to settle. `on_due`
// runs after submit i, e.g. to trigger the hot-swap.
PhaseResult run_phase(Run& run, Tracer& tracer, Server& srv,
                      const std::vector<JobSpec>& jobs,
                      const std::vector<double>& due, std::uint64_t job_seed,
                      std::uint64_t parent, Phase& phase,
                      const std::function<void(std::size_t)>& on_due = {}) {
  auto& recs = phase.recs();
  const std::shared_ptr<serve::LoadedModel> model =
      srv.registry->acquire(kModelId);
  std::uint64_t st = job_seed;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    recs[i].records = jobs[i].records;
    recs[i].seed = splitmix64(st);
    recs[i].keep = splitmix64(st) % kOracleEvery == 0 || phase.keep_all();
  }
  PhaseResult res;
  const double start = now_s() + 0.002;
  std::size_t backlog = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobRec& r = recs[i];
    r.due = start + (due.empty() ? 0.0 : due[i]);
    const double wait = r.due - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    r.span = tracer.begin("serve.job", parent);
    serve::GenerateJob job{kModelId, "tenant" + std::to_string(jobs[i].tenant),
                           r.records, r.seed, 0};
    const serve::SubmitResult sr =
        srv.service->submit(std::move(job), phase.callbacks(i, tracer));
    r.submit = now_s();
    if (!sr.accepted) {
      tracer.end(r.span);
      phase.shed(i);
    }
    if (on_due) on_due(i);
    if (i + 1 == jobs.size()) backlog = i + 1 - phase.settled();
  }
  phase.wait_all();
  res.backlog_at_last_due = backlog;
  double last = start;
  for (const JobRec& r : recs) {
    last = std::max(last, r.done);
    res.lateness_ms.push_back(1e3 * (r.submit - r.due));
    // A failed job delivered none of its records.
    run.count_records(r.records, r.ok ? r.delivered : 0,
                      "serve-ugr16: served records");
    if (!r.ok) {
      ++res.failed;
      continue;
    }
    res.records += r.delivered;
    res.latency_ms.push_back(1e3 * (r.done - r.due));
    if (r.first >= 0) res.first_part_ms.push_back(1e3 * (r.first - r.due));
  }
  res.wall_s = last - start;
  if (phase.keep_all()) {
    res.digest = fnv1a("");
    for (JobRec& r : recs) {
      if (!r.ok) continue;
      r.parts.resize(model->num_chunks());
      std::ostringstream os;
      net::write_netflow_csv(core::merge_flow_chunk_parts(r.parts, r.records), os);
      res.digest = fnv1a(os.str(), res.digest);
    }
  }
  return res;
}

// Compares every kept job's streamed parts with the offline chunk-part
// oracle (a separate LoadedModel on the same snapshot).
std::size_t check_oracle(Run& run, Server& srv, Phase& phase,
                         net::FlowTrace* concat) {
  serve::ModelSpec spec{srv.model->cfg, srv.model->real, srv.model->ip2vec};
  spec.config.checkpoint_dir.clear();
  serve::LoadedModel oracle(spec, srv.ckpt_dir, 0);
  std::size_t checked = 0;
  for (JobRec& r : phase.recs()) {
    if (!r.keep || !r.ok) continue;
    const net::FlowTrace want = oracle.generate(r.records, r.seed);
    r.parts.resize(oracle.num_chunks());
    const net::FlowTrace got = core::merge_flow_chunk_parts(r.parts, r.records);
    ++run.attempted;
    run.check(got.records == want.records,
              "serve-ugr16: served job differs from the offline oracle");
    if (concat) {
      concat->records.insert(concat->records.end(), got.records.begin(),
                             got.records.end());
    }
    ++checked;
  }
  run.check(checked > 0, "serve-ugr16: no served job was oracle-checked");
  return checked;
}

double rung_rate(int k) { return kLadderBase * std::pow(kLadderStep, k); }

// One ladder rung: pass = no failures, tail latency within the limit, and
// no growing backlog (outstanding jobs at the last arrival within what the
// offered rate would queue up over the latency limit).
bool run_rung(Run& run, Server& srv, int k, std::uint64_t seed) {
  Tracer& off = untraced_tracer();
  const double rate = rung_rate(k);
  const std::size_t count = std::max<std::size_t>(
      kRungMinJobs, static_cast<std::size_t>(rate * kRungSeconds));
  const std::vector<JobSpec> jobs = job_mix(count, seed);
  const std::vector<double> due = open_loop_schedule(rate, count, seed);
  Phase phase(count);
  const PhaseResult res = run_phase(run, off, srv, jobs, due, seed, 0, phase);
  const TailPick tail = tail_percentile(res.latency_ms);
  const double allowed_backlog =
      std::max(8.0, rate * kTailLimitMs / 1e3);
  return res.failed == 0 && tail.value <= kTailLimitMs &&
         static_cast<double>(res.backlog_at_last_due) <= allowed_backlog;
}

struct ServeSetup {
  std::unique_ptr<Ugr16Model> model;
  std::unique_ptr<serve::ModelRegistry> registry;
  double publish_s = 0.0;
};

ServeSetup serve_setup(Run& run, Tracer& tracer, const std::string& dir) {
  ServeSetup s;
  s.model = fit_model(run, tracer, dir);
  s.registry = std::make_unique<serve::ModelRegistry>();
  serve::ModelSpec spec{s.model->cfg, s.model->real, s.model->ip2vec};
  spec.config.checkpoint_dir.clear();
  s.registry->define(kModelId, spec);
  SpanScope span(tracer, "serve.publish");
  const double t0 = now_s();
  s.registry->publish(kModelId, dir);
  s.publish_s = now_s() - t0;
  return s;
}

serve::ServiceConfig service_config(const Run& run) {
  serve::ServiceConfig scfg;
  scfg.workers = std::min<std::size_t>(scfg.workers, run.threads);
  scfg.queue_capacity = 4096;
  scfg.tenant_inflight_cap = 4096;
  return scfg;
}

void record_service_info(Run& run, const serve::ServiceConfig& scfg) {
  run.info["service_workers"] = std::to_string(scfg.workers);
  run.info["service_max_coalesce"] = std::to_string(scfg.max_coalesce);
  run.info["ladder_limit_ms"] = std::to_string(kTailLimitMs);
  run.info["nominal_rate_per_s"] = std::to_string(kNominalRate);
}

// Closed burst: kBurstJobs of the mix submitted at once; wall seconds until
// the last settles.
PhaseResult burst(Run& run, Tracer& tracer, Server& srv, std::uint64_t seed) {
  const std::vector<JobSpec> jobs = job_mix(kBurstJobs, seed);
  Phase phase(jobs.size(), /*keep_all=*/true);
  SpanScope root(tracer, "serve.burst");
  return run_phase(run, tracer, srv, jobs, {}, seed, root.id(), phase);
}

std::size_t nominal_jobs(const Run& run) {
  return std::max(kMinNominalJobs, static_cast<std::size_t>(
                                       kNominalRate * kNominalShare * run.seconds));
}

// The nominal open-loop phase over phase.recs().size() jobs, with the
// hot-swap publish issued from its own thread when the middle job is due.
struct NominalResult {
  PhaseResult res;
  double publish_s = 0.0;
  std::size_t queue_depth_max = 0;
  serve::ServiceStatsSnapshot stats;
};

NominalResult nominal(Run& run, Tracer& tracer, Server& srv, Phase& phase,
                      bool poll) {
  NominalResult out;
  const std::size_t count = phase.recs().size();
  const std::vector<JobSpec> jobs = job_mix(count, run.seed);
  const std::vector<double> due = open_loop_schedule(kNominalRate, count, run.seed);
  std::thread publisher;
  std::atomic<bool> stop_poll{false};
  std::thread poller;
  if (poll) {
    poller = std::thread([&] {
      while (!stop_poll.load()) {
        out.queue_depth_max =
            std::max(out.queue_depth_max, srv.service->stats().queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  SpanScope root(tracer, "serve.nominal");
  out.res = run_phase(run, tracer, srv, jobs, due, run.seed ^ 0x6e6f6d, root.id(),
                      phase, [&](std::size_t i) {
                        if (i != count / 2) return;
                        publisher = std::thread([&] {
                          SpanScope s(tracer, "serve.publish", root.id());
                          const double t0 = now_s();
                          try {
                            srv.registry->publish(kModelId, srv.ckpt_dir);
                          } catch (const std::exception&) {
                            out.publish_s = -1.0;
                            return;
                          }
                          out.publish_s = now_s() - t0;
                        });
                      });
  if (publisher.joinable()) publisher.join();
  stop_poll = true;
  if (poller.joinable()) poller.join();
  run.check(out.publish_s > 0, "serve-ugr16: hot-swap publish failed");
  out.stats = srv.service->stats();
  return out;
}

}  // namespace

// ------------------------------------------------------------ entry points

void run_generate_ugr16(Run& run) {
  Tracer& off = untraced_tracer();
  std::vector<double> setups;
  std::unique_ptr<Ugr16Model> model;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    auto m = fit_model(run, off, "");
    setups.push_back(now_s() - t0);
    if (!model) model = std::move(m);
  }
  std::vector<double> secs;
  std::vector<std::uint64_t> digests;
  double jsd = 0.0;
  std::size_t shortfall = 0;
  const double start = now_s();
  while (secs.size() < 2 || now_s() - start < run.seconds) {
    const GenRep rep = generate_rep(run, off, *model, secs.empty());
    if (secs.empty()) jsd = rep.jsd;
    shortfall = rep.shortfall;
    secs.push_back(rep.seconds);
    digests.push_back(rep.digest);
  }
  for (const std::uint64_t d : digests) {
    run.check(d == digests.front(),
              "generate-ugr16: csv digest differs across repetitions");
  }
  const double e2e = median(secs);
  std::vector<double> ms;
  for (const double s : secs) ms.push_back(1e3 * s);
  const TailPick tail = tail_percentile(ms);
  run.e2e["setup_s"] = {median(setups), "s"};
  run.e2e["e2e_s"] = {e2e, "s"};
  run.e2e["records_per_s"] = {static_cast<double>(kGenerateFlows) / e2e, "1/s"};
  run.e2e["latency_p50_ms"] = {median(ms), "ms"};
  run.e2e["latency_tail_ms"] = {tail.value, "ms"};
  run.e2e["max_jobs_per_s"] = {1.0 / e2e, "1/s"};
  run.e2e["fidelity_jsd"] = {jsd, "jsd"};
  run.info["repetitions"] = std::to_string(secs.size());
  run.info["setup_ip2vec_s"] = std::to_string(model->ip2vec_s);
  run.info["setup_fit_s"] = std::to_string(model->fit_s);
  run.info["records_per_job"] = std::to_string(kGenerateFlows);
  run.info["generate_shortfall_records"] = std::to_string(shortfall);
  run.info["latency_tail_percentile"] = std::to_string(tail.percentile);
}

void trace_generate_ugr16(Run& run, bool overhead) {
  Tracer& tracer = *run.tracer;
  auto m = fit_model(run, tracer, fresh_dir(run, "ckpt-generate"));
  run.layer["embed.ip2vec_train_s"] = {m->ip2vec_s, "s"};
  // The first export of a process is cold (first-touch pages, pools), so
  // the overhead comparison starts after one discarded untraced export.
  double untraced_s = 0.0;
  if (overhead) {
    generate_rep(run, untraced_tracer(), *m, false);
    untraced_s = generate_rep(run, untraced_tracer(), *m, false).seconds;
  }
  const GenRep rep = generate_rep(run, tracer, *m, false);
  if (overhead) {
    run.layer["trace.overhead_frac"] = {rep.seconds / untraced_s - 1.0, "frac"};
  }
  const double n = static_cast<double>(kGenerateFlows);
  run.layer["core.postprocess_records_per_s"] = {n / rep.postprocess_s, "1/s"};
  run.layer["net.export_mb_per_s"] = {
      static_cast<double>(rep.csv_bytes) / 1e6 / rep.export_s, "MB/s"};

  // NetShare keeps its encoder and chunk models private, so the sampler
  // and decode probes run on a FlowEncoder + ChunkedTrainer of the same
  // config whose fit resumes every chunk from the model's checkpoints.
  core::FlowEncoder enc(m->cfg, m->ip2vec.get());
  enc.fit(m->real);
  core::ChunkedTrainer trainer(enc.spec(), m->cfg);
  trainer.fit(enc.encode(m->real));
  run.check(trainer.report().count(core::ChunkTrainReport::Status::kTrained) == 0,
            "generate-ugr16: probe chunk models did not resume from checkpoints");

  // Sampler: ChunkedTrainer::sample_chunks on every chunk model.
  const auto& chunks = enc.chunks();
  std::vector<std::size_t> counts(chunks.size(), 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (trainer.has_model(c)) counts[c] = 20000;
  }
  std::vector<gan::GeneratedSeries> series;
  {
    SpanScope s(tracer, "gan.sample_chunks");
    const double t0 = now_s();
    trainer.sample_chunks(counts, run.seed + 3, series);
    std::size_t total = 0;
    for (const std::size_t k : counts) total += k;
    run.layer["gan.sample_series_per_s"] = {
        static_cast<double>(total) / (now_s() - t0), "1/s"};
  }
  // Encoder decode of those series back into flow records.
  {
    SpanScope s(tracer, "core.decode");
    const double t0 = now_s();
    std::size_t records = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (counts[c] == 0) continue;
      records += enc.decode(series[c], c).size();
    }
    run.layer["core.decode_records_per_s"] = {
        static_cast<double>(records) / (now_s() - t0), "1/s"};
  }
  // IP2Vec nearest-neighbour port decode on seeded queries.
  {
    SpanScope s(tracer, "embed.nearest_batch");
    const std::size_t q = 20000;
    ml::Matrix queries(q, m->ip2vec->dim());
    Rng rng(run.seed + 4);
    for (std::size_t i = 0; i < q; ++i) {
      for (std::size_t j = 0; j < queries.cols(); ++j) {
        queries(i, j) = rng.uniform() * 2.0 - 1.0;
      }
    }
    std::vector<embed::Token> out(q);
    ml::Workspace ws;
    m->ip2vec->nearest_batch(queries, embed::TokenKind::kPort, {}, out, ws);
    const double t0 = now_s();
    m->ip2vec->nearest_batch(queries, embed::TokenKind::kPort, {}, out, ws);
    run.layer["embed.decode_us_per_query"] = {
        1e6 * (now_s() - t0) / static_cast<double>(q), "us"};
  }
}

void run_serve_ugr16(Run& run) {
  Tracer& off = untraced_tracer();
  std::vector<double> setups;
  ServeSetup setup;
  std::string dir;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string d = fresh_dir(run, "ckpt" + std::to_string(i));
    const double t0 = now_s();
    ServeSetup s = serve_setup(run, off, d);
    setups.push_back(now_s() - t0);
    if (!setup.model) {
      setup = std::move(s);
      dir = d;
    }
  }
  ml::kernels::KernelConfig kcfg = ml::kernels::config();
  kcfg.threads = run.threads;
  ml::kernels::ConfigOverride kernel_budget(kcfg);
  const serve::ServiceConfig scfg = service_config(run);
  record_service_info(run, scfg);
  serve::Service service(*setup.registry, scfg);
  Server srv{setup.model.get(), setup.registry.get(), &service, dir};

  // Identical bursts: their served outputs must digest identically.
  std::vector<double> bursts;
  std::uint64_t burst_records = 0;
  std::uint64_t burst_digest = 0;
  for (int b = 0; b < kBursts; ++b) {
    const PhaseResult r = burst(run, off, srv, run.seed + 100);
    bursts.push_back(r.wall_s);
    burst_records = r.records;
    if (b == 0) burst_digest = r.digest;
    run.check(r.digest == burst_digest,
              "serve-ugr16: burst output digest differs across repetitions");
  }

  Phase nom_phase(nominal_jobs(run));
  const NominalResult nom = nominal(run, off, srv, nom_phase, false);
  net::FlowTrace served;
  check_oracle(run, srv, nom_phase, &served);

  // Ladder: from the rung just below 85% of the burst throughput, climb
  // kCoarseRungs rungs at a time while rungs pass, then one rung at a time
  // from the last pass up to the first failure. If the starting rung fails,
  // step down until one passes.
  const double burst_jobs_per_s = static_cast<double>(kBurstJobs) / median(bursts);
  const int start_rung = std::max(0, static_cast<int>(std::floor(
                                    std::log(0.85 * burst_jobs_per_s / kLadderBase) /
                                    std::log(kLadderStep))));
  std::uint64_t rung_seed = run.seed ^ 0x6c6164646572ULL;
  const auto rung = [&](int k) { return run_rung(run, srv, k, rung_seed++); };
  int best = -1;
  int failed = start_rung;
  for (int k = start_rung; k < kMaxRung; k += kCoarseRungs) {
    if (!rung(k)) {
      failed = k;
      break;
    }
    best = k;
  }
  for (int k = failed - 1; best < 0 && k >= 0; --k) {
    if (rung(k)) {
      best = k;
      failed = k + 1;
    }
  }
  for (int k = best + 1; best >= 0 && k < failed && rung(k); ++k) best = k;
  service.begin_drain();
  service.drain();
  run.info["ladder_top_rung"] = std::to_string(best);

  const TailPick tail = tail_percentile(nom.res.latency_ms);
  const TailPick first = tail_percentile(nom.res.first_part_ms);
  const double e2e = median(bursts);
  run.e2e["setup_s"] = {median(setups), "s"};
  run.e2e["e2e_s"] = {e2e, "s"};
  run.e2e["records_per_s"] = {static_cast<double>(burst_records) / e2e, "1/s"};
  run.e2e["latency_p50_ms"] = {median(nom.res.latency_ms), "ms"};
  run.e2e["latency_tail_ms"] = {tail.value, "ms"};
  run.e2e["max_jobs_per_s"] = {
      best >= 0 ? rung_rate(best) : rung_rate(0) / kLadderStep, "1/s"};
  run.e2e["fidelity_jsd"] = {
      metrics::compare_flows(setup.model->real, served).mean_jsd(), "jsd"};
  run.info["latency_samples"] = std::to_string(tail.samples);
  run.info["latency_tail_percentile"] = std::to_string(tail.percentile);
  run.info["first_part_tail_ms"] = std::to_string(first.value);
  run.info["lateness_tail_ms"] =
      std::to_string(tail_percentile(nom.res.lateness_ms).value);
  run.info["hot_swap_publish_s"] = std::to_string(nom.publish_s);
}

void trace_serve_ugr16(Run& run, bool overhead) {
  Tracer& tracer = *run.tracer;
  const std::string dir = fresh_dir(run, "ckpt-trace");
  ServeSetup setup = serve_setup(run, tracer, dir);
  run.layer["serve.publish_s"] = {setup.publish_s, "s"};
  ml::kernels::KernelConfig kcfg = ml::kernels::config();
  kcfg.threads = run.threads;
  ml::kernels::ConfigOverride kernel_budget(kcfg);
  const serve::ServiceConfig scfg = service_config(run);
  record_service_info(run, scfg);
  serve::Service service(*setup.registry, scfg);
  Server srv{setup.model.get(), setup.registry.get(), &service, dir};

  // As for generate-ugr16, one discarded burst warms the service first.
  double untraced_s = 0.0;
  if (overhead) {
    burst(run, untraced_tracer(), srv, run.seed + 100);
    untraced_s = burst(run, untraced_tracer(), srv, run.seed + 100).wall_s;
  }
  const double traced_s = burst(run, tracer, srv, run.seed + 100).wall_s;
  if (overhead) {
    run.layer["trace.overhead_frac"] = {traced_s / untraced_s - 1.0, "frac"};
  }

  Phase phase(nominal_jobs(run));
  const NominalResult nom = nominal(run, tracer, srv, phase, true);
  service.begin_drain();
  service.drain();
  check_oracle(run, srv, phase, nullptr);
  const serve::ServiceStatsSnapshot& st = nom.stats;
  run.layer["serve.jobs_per_batch"] = {
      st.batches ? static_cast<double>(st.completed) / st.batches : 0.0, "jobs"};
  run.layer["serve.queue_depth_max"] = {static_cast<double>(nom.queue_depth_max),
                                        "jobs"};
  run.layer["serve.shed_frac"] = {
      st.submitted ? static_cast<double>(st.shed_overloaded + st.shed_draining +
                                         st.shed_rate_limited) /
                         static_cast<double>(st.submitted)
                   : 0.0,
      "frac"};
  run.layer["serve.first_part_p99_ms"] = {
      tail_percentile(nom.res.first_part_ms).value, "ms"};
  run.layer["serve.lateness_p99_ms"] = {
      tail_percentile(nom.res.lateness_ms).value, "ms"};

  // Sample + export per job-size class with no scheduler, on a separate
  // LoadedModel of the same snapshot.
  serve::ModelSpec spec{setup.model->cfg, setup.model->real, setup.model->ip2vec};
  spec.config.checkpoint_dir.clear();
  serve::LoadedModel direct(spec, dir, 0);
  std::vector<net::FlowTrace> parts;
  {
    SpanScope s(tracer, "serve.sample_export");
    for (int cls = 0; cls < 3; ++cls) {
      const std::size_t n = kJobClassRecords[cls];
      const std::vector<std::size_t> targets = direct.record_targets(n);
      std::vector<double> ms;
      for (int rep = 0; rep < 5; ++rep) {
        const double t0 = now_s();
        std::vector<net::FlowTrace> job(direct.num_chunks());
        for (std::size_t c = 0; c < job.size(); ++c) {
          if (targets[c] == 0 || !direct.has_chunk_model(c)) continue;
          direct.sample_part(c, targets[c], run.seed + 200 + rep, job[c]);
        }
        ms.push_back(1e3 * (now_s() - t0));
        if (cls == 2 && rep == 0) parts = std::move(job);
      }
      run.layer[std::string("serve.sample_export_ms.") + kJobClassNames[cls]] = {
          median(ms), "ms"};
    }
  }
  // Wire cost: encode the parts as kChunk frames, split and decode them.
  {
    SpanScope s(tracer, "serve.protocol");
    std::vector<std::uint8_t> wire;
    std::size_t records = 0;
    const double t0 = now_s();
    for (int rep = 0; rep < 20; ++rep) {
      wire.clear();
      for (std::size_t c = 0; c < parts.size(); ++c) {
        serve::encode_chunk_frames(1, static_cast<std::uint32_t>(c), parts[c],
                                   wire);
      }
      serve::FrameReader reader;
      reader.feed(wire.data(), wire.size());
      records = 0;
      while (auto body = reader.next()) {
        records += serve::decode_chunk(*body).part.size();
      }
    }
    const double el = now_s() - t0;
    std::size_t want = 0;
    for (const auto& p : parts) want += p.size();
    run.check(records == want, "serve-ugr16: frame round-trip record count");
    run.layer["serve.protocol.frame_mb_per_s"] = {
        20.0 * static_cast<double>(wire.size()) / 1e6 / el, "MB/s"};
  }
}

}  // namespace perfbench
