// train-caida: a user fits NetShare on a private PCAP trace and exports a
// synthetic one. fit -> generate_packets -> postprocess -> write_pcap into
// memory, on the kCaida preset with the default chunked schedule. Training
// dominates the wall time, so this loads core/train, gan and ml/kernels and
// bypasses embed (bit-encoded ports) and serve.
#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/netshare.hpp"
#include "core/postprocess.hpp"
#include "core/preprocess.hpp"
#include "datagen/presets.hpp"
#include "metrics/field_metrics.hpp"
#include "net/checksum.hpp"
#include "net/pcap_io.hpp"

namespace perfbench {
namespace {

using namespace netshare;

constexpr std::size_t kCaidaPackets = 3000;
constexpr int kSetupRepeats = 5;

core::NetShareConfig caida_config(const Run& run) {
  core::NetShareConfig cfg;  // default DG schedule: 250 seed / 80 fine-tune
  cfg.use_ip2vec_ports = false;
  cfg.max_seq_len = 16;
  cfg.threads = run.threads;
  return cfg;
}

// The user's private trace as the benchmark hands it over: synthesized,
// then serialized to a pcap image and parsed back, as a trace read from a
// capture file would be.
net::PacketTrace make_real(std::uint64_t* digest = nullptr) {
  const net::PacketTrace synth =
      datagen::make_dataset(datagen::DatasetId::kCaida, kCaidaPackets,
                            kTraceSeed).packets;
  std::stringstream img;
  net::write_pcap(synth, img);
  if (digest) *digest = fnv1a(img.str());
  return net::read_pcap(img);
}

// Walks a LINKTYPE_RAW pcap image; returns the number of packet records and
// counts records whose IPv4 header checksum does not verify.
std::size_t scan_pcap(const std::string& img, std::size_t& bad_checksums) {
  bad_checksums = 0;
  const auto le32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, img.data() + at, 4);
    return v;
  };
  std::size_t at = 24;  // global header
  std::size_t records = 0;
  while (at + 16 <= img.size()) {
    const std::size_t incl = le32(at + 8);
    at += 16;
    if (at + incl > img.size() || incl < 20) {
      ++bad_checksums;
      break;
    }
    const auto* ip = reinterpret_cast<const std::uint8_t*>(img.data() + at);
    const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
    if (ihl < 20 || ihl > incl || net::internet_checksum(ip, ihl) != 0) {
      ++bad_checksums;
    }
    at += incl;
    ++records;
  }
  return records;
}

struct CaidaRep {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  double jsd = 0.0;
  std::size_t seed_fallbacks = 0;
  std::size_t chunks = 0;
  std::size_t rollbacks = 0;
  double fit_s = 0.0;
  double seed_s = 0.0;
  double finetune_max_s = 0.0;
  double train_cpu_s = 0.0;
  std::size_t shortfall = 0;  // requested minus generated packets
};

// One unit of work. Spans go to `tracer` (a no-op when it is disabled).
CaidaRep caida_rep(Run& run, Tracer& tracer, const net::PacketTrace& real,
                   bool fidelity) {
  const core::NetShareConfig cfg = caida_config(run);
  const std::size_t n = real.size();
  CaidaRep rep;
  const double t0 = now_s();
  SpanScope root(tracer, "train-caida");
  core::NetShare model(cfg, nullptr);
  {
    SpanScope s(tracer, "core.fit", root.id());
    const double f0 = now_s();
    model.fit(real);
    rep.fit_s = now_s() - f0;
  }
  net::PacketTrace synth;
  {
    SpanScope s(tracer, "core.generate", root.id());
    Rng rng(run.seed + 1);
    synth = model.generate_packets(n, rng);
  }
  net::PacketTrace post;
  core::RepairStats repair;
  {
    SpanScope s(tracer, "core.postprocess", root.id());
    post = core::remap_ips(synth, core::IpRemapConfig{}, cfg.threads);
    Rng rng(run.seed + 2);
    post = core::retrain_dst_ports(post, {{80, 0.6}, {443, 0.3}, {53, 0.1}},
                                   rng, cfg.threads);
    repair = core::repair_packet_headers(post, cfg.threads);
  }
  std::string pcap;
  {
    SpanScope s(tracer, "net.export", root.id());
    std::ostringstream os;
    net::write_pcap(post, os);
    pcap = std::move(os).str();
  }
  root.close();
  rep.seconds = now_s() - t0;

  // Correctness: counts equal the request (each missing packet is a failed
  // operation), zero checksum failures.
  rep.shortfall = n - std::min(n, synth.size());
  run.count_records(n, synth.size(), "train-caida: generated packets");
  run.check(post.size() == synth.size(),
            "train-caida: postprocessed packet count");
  run.check(repair.checksum_failures == 0,
            "train-caida: repair_packet_headers checksum failures");
  std::size_t bad = 0;
  const std::size_t in_pcap = scan_pcap(pcap, bad);
  run.check(in_pcap == synth.size(), "train-caida: pcap record count");
  run.check(bad == 0, "train-caida: pcap IPv4 checksum failures");
  rep.digest = fnv1a(pcap);

  const core::TrainReport& report = model.train_report();
  rep.chunks = report.chunks.size();
  rep.seed_fallbacks =
      report.count(core::ChunkTrainReport::Status::kSeedFallback);
  for (const auto& c : report.chunks) {
    rep.rollbacks += static_cast<std::size_t>(c.rollbacks);
    if (c.is_seed) {
      rep.seed_s = c.train_sec;
    } else {
      rep.finetune_max_s = std::max(rep.finetune_max_s, c.train_sec);
    }
  }
  rep.train_cpu_s = model.train_cpu_seconds();
  if (fidelity) rep.jsd = metrics::compare_packets(real, synth).mean_jsd();
  return rep;
}

// Warm-up, part of set-up: a short fit settles lazy process state (kernel
// autotuner plans, thread pools) that a user pays once per process, not
// once per fit. Without it the first timed fit ran about 25% slower on a
// 4-vCPU AVX2 virtual machine.
void warm_up(const Run& run, const net::PacketTrace& real) {
  core::NetShareConfig cfg = caida_config(run);
  cfg.seed_iterations = 10;
  cfg.finetune_iterations = 5;
  core::NetShare model(cfg, nullptr);
  model.fit(real);
}

}  // namespace

void run_train_caida(Run& run) {
  std::vector<double> setups;
  net::PacketTrace real;
  std::uint64_t real_digest = 0;
  // Set-up: the trace handed over as a pcap image, then the warm-up fit.
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::uint64_t d = 0;
    const double t0 = now_s();
    net::PacketTrace r = make_real(&d);
    warm_up(run, r);
    setups.push_back(now_s() - t0);
    if (i == 0) {
      real = std::move(r);
      real_digest = d;
    }
    run.check(d == real_digest, "train-caida: dataset synthesis digest");
  }

  std::vector<double> secs;
  std::vector<std::uint64_t> digests;
  double jsd = 0.0;
  std::size_t shortfall = 0;
  const double start = now_s();
  while (secs.size() < 2 || now_s() - start < run.seconds) {
    const CaidaRep rep = caida_rep(run, untraced_tracer(), real, secs.empty());
    if (secs.empty()) jsd = rep.jsd;
    shortfall = rep.shortfall;
    secs.push_back(rep.seconds);
    digests.push_back(rep.digest);
    run.attempted += rep.chunks;
    run.failed += rep.seed_fallbacks;
  }
  for (const std::uint64_t d : digests) {
    run.check(d == digests.front(),
              "train-caida: pcap digest differs across repetitions");
  }

  const double e2e = median(secs);
  std::vector<double> ms;
  for (const double s : secs) ms.push_back(1e3 * s);
  const TailPick tail = tail_percentile(ms);
  run.e2e["setup_s"] = {median(setups), "s"};
  run.e2e["e2e_s"] = {e2e, "s"};
  run.e2e["records_per_s"] = {static_cast<double>(real.size()) / e2e, "1/s"};
  run.e2e["latency_p50_ms"] = {median(ms), "ms"};
  run.e2e["latency_tail_ms"] = {tail.value, "ms"};
  run.e2e["max_jobs_per_s"] = {1.0 / e2e, "1/s"};
  run.e2e["fidelity_jsd"] = {jsd, "jsd"};
  run.info["repetitions"] = std::to_string(secs.size());
  std::string all;
  for (const double x : secs) {
    if (!all.empty()) all += ' ';
    all += std::to_string(x);
  }
  run.info["rep_seconds"] = all;
  run.info["records_per_job"] = std::to_string(real.size());
  run.info["generate_shortfall_records"] = std::to_string(shortfall);
  run.info["latency_tail_percentile"] = std::to_string(tail.percentile);
}

void trace_train_caida(Run& run, bool overhead) {
  Tracer& tracer = *run.tracer;
  net::PacketTrace real;
  {
    SpanScope s(tracer, "datagen.synthesize");
    real = make_real();
  }
  warm_up(run, real);
  const double untraced_s =
      overhead ? caida_rep(run, untraced_tracer(), real, false).seconds : 0.0;
  const CaidaRep rep = caida_rep(run, tracer, real, false);
  run.attempted += rep.chunks;
  run.failed += rep.seed_fallbacks;
  if (overhead) {
    run.layer["trace.overhead_frac"] = {rep.seconds / untraced_s - 1.0, "frac"};
  }

  run.layer["core.train.fit_s"] = {rep.fit_s, "s"};
  run.layer["core.train.seed_s"] = {rep.seed_s, "s"};
  run.layer["core.train.finetune_max_s"] = {rep.finetune_max_s, "s"};
  run.layer["core.train.cpu_util"] = {
      rep.train_cpu_s / (rep.fit_s * static_cast<double>(run.threads)), "frac"};
  run.layer["core.train.rollbacks"] = {
      static_cast<double>(rep.rollbacks + rep.seed_fallbacks), "count"};

  // Encoder probe: PacketEncoder::fit + encode on the same trace.
  const core::NetShareConfig cfg = caida_config(run);
  {
    SpanScope s(tracer, "core.preprocess.encode");
    const double t0 = now_s();
    core::PacketEncoder enc(cfg, nullptr);
    enc.fit(real);
    const auto datasets = enc.encode(real);
    run.layer["core.preprocess.encode_s"] = {now_s() - t0, "s"};
    run.check(!datasets.empty(), "train-caida: encoder produced no chunks");
  }
  probe_kernels(run, real);
}

}  // namespace perfbench
