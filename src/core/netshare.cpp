#include "core/netshare.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "core/parallel.hpp"
#include "datagen/presets.hpp"
#include "net/ports.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::core {

std::shared_ptr<embed::Ip2Vec> make_public_ip2vec(std::uint64_t seed,
                                                  std::size_t records,
                                                  std::size_t dim,
                                                  embed::VocabConfig vocab,
                                                  std::size_t workers) {
  const auto pub = datagen::make_dataset(datagen::DatasetId::kCaidaPub,
                                         records, seed);
  auto sentences = embed::sentences_from_packets(pub.packets);
  // The paper's Insight 2 relies on the public trace covering "almost every
  // possible port number and protocol". Guarantee coverage of the well-known
  // (port, protocol) pairs and ICMP regardless of the sampled trace.
  for (const auto& [port, proto] : net::common_port_protocol_pairs()) {
    sentences.push_back(
        {{embed::TokenKind::kPort, port},
         {embed::TokenKind::kProtocol, static_cast<std::uint32_t>(proto)}});
  }
  sentences.push_back(
      {{embed::TokenKind::kProtocol,
        static_cast<std::uint32_t>(net::Protocol::kIcmp)}});
  auto model = std::make_shared<embed::Ip2Vec>();
  embed::Ip2Vec::Config cfg;
  cfg.dim = dim;
  cfg.epochs = 3;
  cfg.vocab = vocab;
  cfg.workers = workers;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  model->train(sentences, cfg, rng);
  return model;
}

std::shared_ptr<embed::Ip2Vec> make_public_ip2vec_for(
    const NetShareConfig& config, std::uint64_t seed, std::size_t records) {
  embed::VocabConfig vocab;
  vocab.max_ip_slots = config.ip2vec_max_ip_slots;
  vocab.ip_tail_buckets = config.ip2vec_tail_buckets;
  return make_public_ip2vec(seed, records, config.ip2vec_dim, vocab,
                            config.ip2vec_workers);
}

NetShare::NetShare(NetShareConfig config, std::shared_ptr<embed::Ip2Vec> ip2vec)
    : config_(std::move(config)), ip2vec_(std::move(ip2vec)) {
  if (config_.use_ip2vec_ports && !ip2vec_) {
    throw std::invalid_argument(
        "NetShare: use_ip2vec_ports requires an IP2Vec model "
        "(see make_public_ip2vec)");
  }
}

void NetShare::fit(const net::FlowTrace& trace) {
  flow_encoder_.emplace(config_, ip2vec_.get());
  flow_encoder_->fit(trace);
  trainer_ = std::make_unique<ChunkedTrainer>(flow_encoder_->spec(), config_);
  trainer_->fit(flow_encoder_->encode(trace));
}

void NetShare::fit(const std::vector<net::FlowTrace>& epochs) {
  fit(net::FlowTrace::merge(epochs));
}

void NetShare::fit(const net::PacketTrace& trace) {
  packet_encoder_.emplace(config_, ip2vec_.get());
  packet_encoder_->fit(trace);
  trainer_ = std::make_unique<ChunkedTrainer>(packet_encoder_->spec(), config_);
  trainer_->fit(packet_encoder_->encode(trace));
}

void NetShare::fit(const std::vector<net::PacketTrace>& epochs) {
  fit(net::PacketTrace::merge(epochs));
}

// Largest-remainder apportionment: each chunk gets the floor of its exact
// share, and the records the floors leave over go one each to the chunks
// with the largest remainders (ties to the lower chunk index).
std::vector<std::size_t> chunk_record_targets(
    const std::vector<ChunkInfo>& chunks, std::size_t n) {
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.real_records;
  std::vector<std::size_t> targets(chunks.size(), 0);
  if (total == 0) return targets;
  std::vector<std::size_t> remainders(chunks.size());
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::size_t share = n * chunks[c].real_records;
    targets[c] = share / total;
    remainders[c] = share % total;
    assigned += targets[c];
  }
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainders[a] > remainders[b];
                   });
  for (std::size_t i = 0; assigned + i < n; ++i) ++targets[order[i]];
  return targets;
}

namespace {

// Expected records per sampled flow in a chunk (>= 1).
double records_per_flow(const ChunkInfo& c) {
  if (c.real_flows == 0) return 1.0;
  return std::max(1.0, static_cast<double>(c.real_records) /
                           static_cast<double>(c.real_flows));
}

// Number of flows to request in one deficit-loop round. The first round
// sizes by the real records-per-flow ratio; later rounds request one flow
// per missing record (each sample yields >= 1 record), guaranteeing
// completion.
std::size_t round_flows(std::size_t deficit, double rpf, bool first) {
  return first ? std::max<std::size_t>(
                     8, static_cast<std::size_t>(
                            static_cast<double>(deficit) / rpf) + 1)
               : std::max<std::size_t>(8, deficit);
}

// Records per flow the deficit loop plans with for chunk c.
double planned_records_per_flow(const ChunkInfo& c,
                                const NetShareConfig& config) {
  return std::min(records_per_flow(c), static_cast<double>(config.max_seq_len));
}

// Deficit-loop sampling + decode for one chunk. The result is a pure
// function of (chunk index, target, seed) — the sampler draws from
// counter-based per-(chunk, series) streams and the decoder is const — so
// generate_trace at any worker count and the serving layer's coalesced
// passes produce bitwise-identical sub-traces.
template <typename TraceT, typename RecordsOf, typename DecodeFn>
void sample_chunk_part(const std::vector<ChunkInfo>& chunks, std::size_t c,
                       std::size_t target, std::uint64_t seed,
                       const NetShareConfig& config, ChunkedTrainer& trainer,
                       const RecordsOf& records_of, const DecodeFn& decode,
                       TraceT& out) {
  Stopwatch sw;
  TELEM_SPAN("generate.chunk", {"chunk", static_cast<long long>(c)});
  out = TraceT{};
  const double rpf = planned_records_per_flow(chunks[c], config);
  bool first = true;
  std::size_t series_at = 0;  // keeps stream indices unique across rounds
  gan::GeneratedSeries series;
  while (out.size() < target) {
    const std::size_t flows = round_flows(target - out.size(), rpf, first);
    first = false;
    trainer.sample_chunk_into(c, flows, seed, series_at, series);
    series_at += flows;
    const TraceT decoded = decode(series, c);
    records_of(out).insert(records_of(out).end(), records_of(decoded).begin(),
                           records_of(decoded).end());
  }
  trainer.note_generate_seconds(c, sw.seconds());
}

// Export step for one chunk: order its sub-trace and trim the deficit-loop
// overshoot down to the target.
template <typename TraceT, typename RecordsOf>
void export_chunk_part(std::size_t target, const RecordsOf& records_of,
                       TraceT& part) {
  part.sort_by_time();
  if (part.size() > target) records_of(part).resize(target);
}

// Final merge: concatenate the per-chunk sub-traces in chunk order, order
// globally, trim to n.
template <typename TraceT, typename RecordsOf>
TraceT merge_chunk_parts(std::vector<TraceT>& parts, std::size_t n,
                         const RecordsOf& records_of) {
  TraceT out;
  records_of(out).reserve(n + 64);
  for (auto& part : parts) {
    records_of(out).insert(records_of(out).end(), records_of(part).begin(),
                           records_of(part).end());
  }
  out.sort_by_time();
  if (out.size() > n) records_of(out).resize(n);
  return out;
}

// Series per sampling task in generate_trace: 64 batches of the default
// 64. Fixed, so the task list is the same at any worker count.
constexpr std::size_t kBlockSeries = 4096;

// Fills each target chunk's sub-trace with the deficit loop of
// sample_chunk_part, run for all chunks at once: each round's series range
// of every short chunk is cut into blocks of kBlockSeries consecutive series
// indices, and the blocks of all chunks form one task list over the phase's
// workers. A worker samples each block of a split chunk on its own sampler
// for that chunk (a chunk in one block uses its model's own, as the serial
// path does) and decodes it in the same task. The decoded blocks are appended in series
// order, and export's stable sort orders them as it orders one decode of the
// whole round (decode is per series, then stably sorted), so the trace is
// bitwise the one sample_chunk_part gives, at any worker count (DESIGN.md
// §7).
template <typename TraceT, typename RecordsOf, typename DecodeFn>
TraceT generate_trace(const std::vector<ChunkInfo>& chunks,
                      const std::vector<std::size_t>& targets, std::size_t n,
                      std::uint64_t seed, const NetShareConfig& config,
                      ChunkedTrainer& trainer, const RecordsOf& records_of,
                      const DecodeFn& decode) {
  struct ChunkRun {
    std::size_t series_at = 0;  // next unused stream index
    double seconds = 0.0;       // summed block task time
  };
  struct Block {
    std::size_t chunk, first, count;
    bool split;  // the chunk's round has more than one block
  };
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (targets[c] > 0 && trainer.has_model(c)) active.push_back(c);
  }
  std::vector<TraceT> parts(chunks.size());
  std::vector<ChunkRun> runs(chunks.size());
  const std::size_t budget =
      parallel_phase_budget(std::max<std::size_t>(1, config.threads));
  // Worker slot w's sampler for chunk c is samplers[w * chunks + c], made
  // on first use and kept across rounds.
  std::vector<std::unique_ptr<gan::DoppelGanger::Sampler>> samplers(
      budget * chunks.size());
  std::vector<Block> blocks;
  std::vector<TraceT> decoded;
  std::vector<double> seconds;
  for (bool first = true;; first = false) {
    blocks.clear();
    for (const std::size_t c : active) {
      const std::size_t have = parts[c].size();
      if (have >= targets[c]) continue;
      ChunkRun& run = runs[c];
      const std::size_t flows = round_flows(
          targets[c] - have, planned_records_per_flow(chunks[c], config),
          first);
      for (std::size_t at = 0; at < flows; at += kBlockSeries) {
        blocks.push_back({c, run.series_at + at,
                          std::min(kBlockSeries, flows - at),
                          flows > kBlockSeries});
      }
      run.series_at += flows;
    }
    if (blocks.empty()) break;
    decoded.assign(blocks.size(), TraceT{});
    seconds.assign(blocks.size(), 0.0);
    const PhaseBudget split =
        split_phase_budget(budget, blocks.size(), config.kernels);
    ml::kernels::ConfigOverride guard(split.kernel_cfg);
    std::atomic<std::size_t> next{0};
    run_parallel_tasks(split.workers, split.workers, [&](std::size_t w) {
      gan::GeneratedSeries series;
      for (std::size_t i; (i = next.fetch_add(1)) < blocks.size();) {
        const Block& b = blocks[i];
        Stopwatch sw;
        TELEM_SPAN("generate.block",
                   {"chunk", static_cast<long long>(b.chunk)});
        if (b.split) {
          auto& sampler = samplers[w * chunks.size() + b.chunk];
          if (!sampler) sampler = trainer.make_chunk_sampler(b.chunk);
          trainer.sample_chunk_into(b.chunk, *sampler, b.count, seed, b.first,
                                    series);
        } else {  // no other task samples this chunk: use its model's own
          trainer.sample_chunk_into(b.chunk, b.count, seed, b.first, series);
        }
        decoded[i] = decode(series, b.chunk);
        seconds[i] = sw.seconds();
      }
    });
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      auto& dst = records_of(parts[blocks[i].chunk]);
      auto& src = records_of(decoded[i]);
      if (dst.empty()) {
        dst.swap(src);
      } else {
        dst.insert(dst.end(), src.begin(), src.end());
      }
      decoded[i] = TraceT{};
      runs[blocks[i].chunk].seconds += seconds[i];
    }
  }
  const PhaseBudget split =
      split_phase_budget(budget, active.size(), config.kernels);
  run_parallel_tasks(split.workers, active.size(), [&](std::size_t ai) {
    const std::size_t c = active[ai];
    export_chunk_part(targets[c], records_of, parts[c]);
    trainer.note_generate_seconds(c, runs[c].seconds);
  });
  return merge_chunk_parts(parts, n, records_of);
}

}  // namespace

void sample_flow_chunk_part(const std::vector<ChunkInfo>& chunks,
                            std::size_t c, std::size_t target,
                            std::uint64_t seed, const NetShareConfig& config,
                            ChunkedTrainer& trainer,
                            const FlowEncoder& encoder, net::FlowTrace& out) {
  sample_chunk_part(chunks, c, target, seed, config, trainer,
                    [](auto& trace) -> auto& { return trace.records; },
                    [&](const gan::GeneratedSeries& series, std::size_t cc) {
                      return encoder.decode(series, cc);
                    },
                    out);
}

void export_flow_chunk_part(std::size_t target, net::FlowTrace& part) {
  export_chunk_part(target, [](auto& trace) -> auto& { return trace.records; },
                    part);
}

net::FlowTrace merge_flow_chunk_parts(std::vector<net::FlowTrace>& parts,
                                      std::size_t n) {
  return merge_chunk_parts(parts, n,
                           [](auto& trace) -> auto& { return trace.records; });
}

net::FlowTrace NetShare::generate_flows(std::size_t n, Rng& rng) {
  if (!flow_encoder_ || !trainer_) {
    throw std::logic_error("NetShare::generate_flows: fit a flow trace first");
  }
  const auto& chunks = flow_encoder_->chunks();
  return generate_trace<net::FlowTrace>(
      chunks, chunk_record_targets(chunks, n), n, rng.engine()(), config_,
      *trainer_,
      [](auto& trace) -> auto& { return trace.records; },
      [&](const gan::GeneratedSeries& series, std::size_t c) {
        return flow_encoder_->decode(series, c);
      });
}

net::PacketTrace NetShare::generate_packets(std::size_t n, Rng& rng) {
  if (!packet_encoder_ || !trainer_) {
    throw std::logic_error(
        "NetShare::generate_packets: fit a packet trace first");
  }
  const auto& chunks = packet_encoder_->chunks();
  return generate_trace<net::PacketTrace>(
      chunks, chunk_record_targets(chunks, n), n, rng.engine()(), config_,
      *trainer_,
      [](auto& trace) -> auto& { return trace.packets; },
      [&](const gan::GeneratedSeries& series, std::size_t c) {
        return packet_encoder_->decode(series, c);
      });
}

double NetShare::train_cpu_seconds() const {
  return trainer_ ? trainer_->train_cpu_seconds() : 0.0;
}

const TrainReport& NetShare::train_report() const {
  if (!trainer_) {
    throw std::logic_error("NetShare::train_report: fit a trace first");
  }
  return trainer_->report();
}

std::vector<double> NetShare::snapshot() {
  if (!trainer_) throw std::logic_error("NetShare::snapshot: not trained");
  return trainer_->seed_snapshot();
}

std::size_t NetShare::dp_steps() const {
  return trainer_ ? trainer_->total_dp_steps() : 0;
}

}  // namespace netshare::core
