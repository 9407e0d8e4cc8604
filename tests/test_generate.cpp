// Tests of the parallel zero-allocation generation path (DESIGN.md §7):
// batched sampling must be bitwise identical to per-series sampling, to any
// partition of the series range, and to any worker / kernel-thread count;
// steady-state batched sampling must perform zero Matrix heap allocations;
// and the parallel postprocess passes must match their serial results while
// enforcing the header-validity invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "core/netshare.hpp"
#include "core/parallel.hpp"
#include "core/postprocess.hpp"
#include "core/train.hpp"
#include "datagen/presets.hpp"
#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "serve/model_registry.hpp"

namespace netshare {
namespace {

bool matrix_eq(const ml::Matrix& a, const ml::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;  // bitwise: exact compare
    }
  }
  return true;
}

bool series_eq(const gan::GeneratedSeries& a, const gan::GeneratedSeries& b) {
  if (!matrix_eq(a.attributes, b.attributes)) return false;
  if (a.features.size() != b.features.size()) return false;
  for (std::size_t t = 0; t < a.features.size(); ++t) {
    if (!matrix_eq(a.features[t], b.features[t])) return false;
  }
  return a.lengths == b.lengths;
}

gan::TimeSeriesSpec tiny_spec() {
  gan::TimeSeriesSpec spec;
  spec.attribute_segments = {{ml::OutputSegment::Kind::kSoftmax, 3},
                             {ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.feature_segments = {{ml::OutputSegment::Kind::kSigmoid, 1}};
  spec.max_len = 4;
  return spec;
}

gan::TimeSeriesDataset tiny_data(std::size_t n, std::uint64_t seed) {
  gan::TimeSeriesDataset data;
  data.spec = tiny_spec();
  data.attributes = ml::Matrix(n, 4);
  data.features.assign(4, ml::Matrix(n, 1));
  data.lengths.resize(n);
  Rng rng(seed);
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

gan::DgConfig tiny_dg() {
  gan::DgConfig dg;
  dg.attr_noise_dim = 4;
  dg.feat_noise_dim = 4;
  dg.attr_hidden = {16};
  dg.rnn_hidden = 16;
  dg.disc_hidden = {24};
  dg.aux_hidden = {12};
  dg.batch_size = 16;
  return dg;
}

gan::DoppelGanger& tiny_trained_model() {
  static gan::DoppelGanger* model = [] {
    auto* m = new gan::DoppelGanger(tiny_spec(), tiny_dg(), 4321);
    m->fit(tiny_data(64, 78), 3);
    return m;
  }();
  return *model;
}

TEST(SampleInto, BatchedEqualsPerSeriesBitwise) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries batched, one;
  model.sample_into(24, 99, 0, batched);
  ASSERT_EQ(batched.attributes.rows(), 24u);
  for (std::size_t i = 0; i < 24; ++i) {
    model.sample_into(1, 99, i, one);
    EXPECT_EQ(one.lengths[0], batched.lengths[i]) << "series " << i;
    for (std::size_t c = 0; c < batched.attributes.cols(); ++c) {
      EXPECT_EQ(one.attributes(0, c), batched.attributes(i, c))
          << "series " << i << " attr " << c;
    }
    for (std::size_t t = 0; t < batched.features.size(); ++t) {
      for (std::size_t c = 0; c < batched.features[t].cols(); ++c) {
        EXPECT_EQ(one.features[t](0, c), batched.features[t](i, c))
            << "series " << i << " step " << t;
      }
    }
  }
}

TEST(SampleInto, AdaptiveMatchesFullUnrollReferenceBitwise) {
  // The length-adaptive fast path must reproduce the training-path full
  // unroll exactly: the reference computes every step for every series and
  // discards those at or past the sampled length, the fast path skips them.
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries fast, reference;
  for (std::uint64_t seed : {3u, 99u, 1234u}) {
    model.sample_into(37, seed, 0, fast);
    model.sample_reference_into(37, seed, 0, reference);
    EXPECT_TRUE(series_eq(fast, reference)) << "seed " << seed;
  }
}

TEST(SampleInto, PartitionInvariant) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries whole, head, tail;
  model.sample_into(5, 7, 0, whole);
  model.sample_into(3, 7, 0, head);
  model.sample_into(2, 7, 3, tail);
  for (std::size_t i = 0; i < 5; ++i) {
    const gan::GeneratedSeries& part = i < 3 ? head : tail;
    const std::size_t j = i < 3 ? i : i - 3;
    EXPECT_EQ(part.lengths[j], whole.lengths[i]);
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      EXPECT_EQ(part.attributes(j, c), whole.attributes(i, c));
    }
  }
}

TEST(SampleInto, KernelThreadCountInvariant) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries serial, parallel;
  {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 1;
    ml::kernels::ConfigOverride guard(cfg);
    model.sample_into(32, 5, 0, serial);
  }
  {
    ml::kernels::KernelConfig cfg;
    cfg.threads = 4;
    cfg.min_parallel_flops = 0;
    ml::kernels::ConfigOverride guard(cfg);
    model.sample_into(32, 5, 0, parallel);
  }
  EXPECT_TRUE(series_eq(serial, parallel));
}

TEST(SampleInto, ZeroSteadyStateAllocations) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ml::kernels::KernelConfig cfg;
    cfg.threads = threads;
    cfg.min_parallel_flops = 0;
    ml::kernels::ConfigOverride guard(cfg);
    gan::DoppelGanger& model = tiny_trained_model();
    gan::GeneratedSeries out;
    model.sample_into(32, 11, 0, out);  // warm-up populates pools
    ml::alloc_counter::reset();
    model.sample_into(32, 11, 0, out);
    model.sample_into(32, 12, 0, out);
    EXPECT_EQ(ml::alloc_counter::count(), 0u)
        << "batched sampling allocated Matrix storage in steady state at "
        << threads << " kernel thread(s)";
  }
}

TEST(SampleInto, ZeroSeriesYieldsEmptyOutput) {
  gan::DoppelGanger& model = tiny_trained_model();
  gan::GeneratedSeries out;
  model.sample_into(0, 1, 0, out);
  EXPECT_EQ(out.attributes.rows(), 0u);
  EXPECT_EQ(out.lengths.size(), 0u);
  ASSERT_EQ(out.features.size(), tiny_spec().max_len);
  for (const auto& step : out.features) EXPECT_EQ(step.rows(), 0u);
}

TEST(Sampler, ConcurrentSamplersOnOneModelEqualSerialSampleInto) {
  // Two threads share one model's series range, each on its own sampler;
  // together they must reproduce the model's own serial output.
  gan::DoppelGanger& model = tiny_trained_model();
  constexpr std::size_t kSeries = 96, kHalf = 48;
  gan::GeneratedSeries whole;
  model.sample_into(kSeries, 2024, 0, whole);
  gan::GeneratedSeries halves[2];
  std::vector<std::thread> threads;
  for (std::size_t h = 0; h < 2; ++h) {
    threads.emplace_back([&model, &halves, h] {
      const auto sampler = model.make_sampler();
      for (int rep = 0; rep < 3; ++rep) {
        sampler->sample_into(kHalf, 2024, h * kHalf, halves[h]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kSeries; ++i) {
    const gan::GeneratedSeries& part = halves[i / kHalf];
    const std::size_t j = i % kHalf;
    ASSERT_EQ(part.lengths[j], whole.lengths[i]) << "series " << i;
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      ASSERT_EQ(part.attributes(j, c), whole.attributes(i, c))
          << "series " << i << " attr " << c;
    }
    for (std::size_t t = 0; t < whole.features.size(); ++t) {
      for (std::size_t c = 0; c < whole.features[t].cols(); ++c) {
        ASSERT_EQ(part.features[t](j, c), whole.features[t](i, c))
            << "series " << i << " step " << t;
      }
    }
  }
}

core::NetShareConfig tiny_config() {
  core::NetShareConfig cfg;
  cfg.use_ip2vec_ports = false;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 4;
  cfg.finetune_iterations = 2;
  cfg.threads = 4;
  cfg.dg = tiny_dg();
  return cfg;
}

core::ChunkedTrainer& tiny_trainer_with_empty_chunk() {
  static core::ChunkedTrainer* trainer = [] {
    core::NetShareConfig cfg = tiny_config();
    auto* t = new core::ChunkedTrainer(tiny_spec(), cfg);
    // Chunk 1 is empty: its dataset has zero samples and gets no model.
    std::vector<gan::TimeSeriesDataset> chunks{
        tiny_data(40, 78), tiny_data(0, 79), tiny_data(32, 80)};
    t->fit(chunks);
    return t;
  }();
  return *trainer;
}

TEST(SampleChunks, BitwiseEqualAcrossWorkerCounts) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  const std::vector<std::size_t> counts{20, 0, 17};
  std::vector<gan::GeneratedSeries> baseline;
  trainer.sample_chunks(counts, 424242, baseline, 1);
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_EQ(baseline[0].attributes.rows(), 20u);
  EXPECT_EQ(baseline[1].attributes.rows(), 0u);
  EXPECT_EQ(baseline[2].attributes.rows(), 17u);
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::vector<gan::GeneratedSeries> out;
    trainer.sample_chunks(counts, 424242, out, workers);
    ASSERT_EQ(out.size(), baseline.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      EXPECT_TRUE(series_eq(out[c], baseline[c]))
          << "chunk " << c << " differs at " << workers << " workers";
    }
  }
}

TEST(SampleChunks, ChunkWithoutModelYieldsEmptySeries) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  EXPECT_FALSE(trainer.has_model(1));
  gan::GeneratedSeries out;
  trainer.sample_chunk_into(1, 10, 7, 0, out);
  EXPECT_EQ(out.attributes.rows(), 0u);
  EXPECT_EQ(out.lengths.size(), 0u);
}

TEST(SampleChunks, RejectsCountSizeMismatch) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  std::vector<gan::GeneratedSeries> out;
  EXPECT_THROW(trainer.sample_chunks({1, 2}, 7, out), std::invalid_argument);
}

TEST(SampleChunks, ChunkStreamPartitionInvariant) {
  core::ChunkedTrainer& trainer = tiny_trainer_with_empty_chunk();
  gan::GeneratedSeries whole, head, tail;
  trainer.sample_chunk_into(2, 5, 31, 0, whole);
  trainer.sample_chunk_into(2, 3, 31, 0, head);
  trainer.sample_chunk_into(2, 2, 31, 3, tail);
  for (std::size_t i = 0; i < 5; ++i) {
    const gan::GeneratedSeries& part = i < 3 ? head : tail;
    const std::size_t j = i < 3 ? i : i - 3;
    EXPECT_EQ(part.lengths[j], whole.lengths[i]);
    for (std::size_t c = 0; c < whole.attributes.cols(); ++c) {
      EXPECT_EQ(part.attributes(j, c), whole.attributes(i, c));
    }
  }
}

TEST(GeneratePackets, RepeatDeterministicWithSameSeed) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCaida, 300, 21);
  core::NetShare model(tiny_config(), nullptr);
  model.fit(bundle.packets);
  Rng rng_a(5), rng_b(5);
  const net::PacketTrace a = model.generate_packets(120, rng_a);
  const net::PacketTrace b = model.generate_packets(120, rng_b);
  EXPECT_EQ(a.size(), 120u);
  EXPECT_EQ(a.packets, b.packets);
}

// generate_trace cuts each chunk's series range into 4096-series blocks, so
// these traces are sized for several blocks per chunk.
constexpr std::size_t kManyBlockFlows = 40000;

// CIDDS flows squeezed into the first and last 30% of their time span: with
// 3 chunks the middle one holds no record and trains no model.
net::FlowTrace flows_with_empty_middle_chunk() {
  net::FlowTrace trace =
      datagen::make_dataset(datagen::DatasetId::kCidds, 250, 22).flows;
  const double start = trace.start_time();
  const double span = trace.end_time() - start;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::FlowRecord& r = trace.records[i];
    const double squeezed = (r.start_time - start) * 0.3;
    r.start_time = start + (i % 2 == 0 ? squeezed : 0.7 * span + squeezed);
  }
  trace.sort_by_time();
  return trace;
}

core::NetShareConfig chunked_config(std::size_t chunks, std::size_t threads) {
  core::NetShareConfig cfg = tiny_config();
  cfg.num_chunks = chunks;
  cfg.threads = threads;
  return cfg;
}

TEST(GenerateTrace, FlowsBitwiseEqualAtAnyWorkerCount) {
  const net::FlowTrace five_chunk_data =
      datagen::make_dataset(datagen::DatasetId::kCidds, 250, 22).flows;
  const net::FlowTrace empty_chunk_data = flows_with_empty_middle_chunk();
  const struct {
    const net::FlowTrace* data;
    std::size_t chunks;
  } cases[] = {{&five_chunk_data, 5}, {&empty_chunk_data, 3}};
  for (const auto& cs : cases) {
    net::FlowTrace baseline;
    for (std::size_t workers : {1, 2, 3, 4, 8}) {
      core::NetShare model(chunked_config(cs.chunks, workers), nullptr);
      model.fit(*cs.data);
      if (cs.chunks == 3) {
        ASSERT_EQ(model.train_report().chunks[1].status,
                  core::ChunkTrainReport::Status::kEmpty);
      }
      Rng rng(8);
      const net::FlowTrace out = model.generate_flows(kManyBlockFlows, rng);
      ASSERT_EQ(out.size(), kManyBlockFlows);
      if (workers == 1) {
        baseline = out;
        continue;
      }
      EXPECT_EQ(out.records, baseline.records)
          << cs.chunks << " chunks, " << workers << " workers";
    }
  }
}

TEST(GenerateTrace, PacketsBitwiseEqualAtAnyWorkerCount) {
  // Series of at most 2 packets, so each chunk's first round spans several
  // blocks.
  constexpr std::size_t kPackets = 60000;
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCaida, 300, 21);
  net::PacketTrace baseline;
  for (std::size_t workers : {1, 2, 3, 4, 8}) {
    core::NetShareConfig cfg = chunked_config(5, workers);
    cfg.max_seq_len = 2;
    core::NetShare model(cfg, nullptr);
    model.fit(bundle.packets);
    Rng rng(9);
    const net::PacketTrace out = model.generate_packets(kPackets, rng);
    ASSERT_EQ(out.size(), kPackets);
    if (workers == 1) {
      baseline = out;
      continue;
    }
    EXPECT_EQ(out.packets, baseline.packets) << workers << " workers";
  }
}

TEST(GenerateTrace, FlowsEqualTheServingLayersSerialPerChunkPath) {
  // serve::LoadedModel::generate samples each chunk's deficit loop whole, in
  // chunk order, on the model's own sampler: the oracle for the block
  // schedule. Same snapshot and seed, so the traces must match bitwise.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("netshare_generate_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(dir);
  for (const std::size_t chunks : {5, 3}) {
    const net::FlowTrace data =
        chunks == 3
            ? flows_with_empty_middle_chunk()
            : datagen::make_dataset(datagen::DatasetId::kCidds, 250, 22).flows;
    core::NetShareConfig cfg = chunked_config(chunks, 4);
    cfg.checkpoint_dir = dir + "/" + std::to_string(chunks);
    fs::create_directories(cfg.checkpoint_dir);
    core::NetShare model(cfg, nullptr);
    model.fit(data);
    serve::LoadedModel loaded({cfg, data, nullptr}, cfg.checkpoint_dir, 1);
    Rng rng(7);
    const std::uint64_t seed = Rng(7).engine()();
    const net::FlowTrace offline = model.generate_flows(kManyBlockFlows, rng);
    const net::FlowTrace serial = loaded.generate(kManyBlockFlows, seed);
    ASSERT_EQ(offline.size(), serial.size()) << chunks << " chunks";
    EXPECT_EQ(offline.records, serial.records) << chunks << " chunks";
  }
  fs::remove_all(dir);
}

TEST(ParallelPhaseBudget, ClampsToOneInsideWorkerThread) {
  // At top level the budget is capped only by the physical core count.
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t expected = cores == 0 ? 4u : std::min<std::size_t>(4, cores);
  EXPECT_EQ(core::parallel_phase_budget(4), expected);
  ThreadPool pool(2);
  std::vector<std::size_t> got(2, 0);
  pool.parallel_for(2, [&](std::size_t i) {
    got[i] = core::parallel_phase_budget(4);
  });
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[1], 1u);
}

net::PacketTrace dirty_packets() {
  net::PacketTrace trace;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    net::PacketRecord p;
    p.timestamp = i * 0.01;
    p.key.src_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 24)));
    p.key.dst_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 24)));
    p.key.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    p.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const int proto = static_cast<int>(rng.uniform_int(0, 2));
    p.key.protocol = proto == 0 ? net::Protocol::kTcp
                     : proto == 1 ? net::Protocol::kUdp
                                  : net::Protocol::kIcmp;
    p.size = static_cast<std::uint32_t>(rng.uniform_int(0, 70000));
    p.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    trace.packets.push_back(p);
  }
  return trace;
}

TEST(Postprocess, RepairPacketHeadersEnforcesInvariants) {
  net::PacketTrace trace = dirty_packets();
  const core::RepairStats stats = core::repair_packet_headers(trace, 4);
  EXPECT_GT(stats.size_clamped, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  for (const auto& p : trace.packets) {
    EXPECT_GE(p.size, net::min_packet_size(p.key.protocol));
    EXPECT_LE(p.size, net::kMaxPacketSize);
    EXPECT_GE(p.ttl, 1);
    if (p.key.protocol == net::Protocol::kIcmp) {
      EXPECT_EQ(p.key.src_port, 0);
      EXPECT_EQ(p.key.dst_port, 0);
    }
  }
}

TEST(Postprocess, RepairMatchesSerialAtAnyThreadCount) {
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    net::PacketTrace serial = dirty_packets();
    net::PacketTrace parallel = dirty_packets();
    const core::RepairStats s1 = core::repair_packet_headers(serial, 1);
    const core::RepairStats sn = core::repair_packet_headers(parallel, threads);
    EXPECT_EQ(serial.packets, parallel.packets) << threads << " threads";
    EXPECT_EQ(s1.size_clamped, sn.size_clamped);
    EXPECT_EQ(s1.ttl_fixed, sn.ttl_fixed);
    EXPECT_EQ(s1.ports_zeroed, sn.ports_zeroed);
    EXPECT_EQ(s1.checksum_failures, sn.checksum_failures);
  }
}

TEST(Postprocess, RepairFlowFieldsEnforcesInvariants) {
  net::FlowTrace trace;
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    net::FlowRecord r;
    r.start_time = i * 0.1;
    r.duration = rng.uniform(-1.0, 2.0);
    r.packets = static_cast<std::uint64_t>(rng.uniform_int(0, 50));
    r.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 200));
    r.key.protocol =
        rng.uniform_int(0, 1) == 0 ? net::Protocol::kTcp : net::Protocol::kIcmp;
    r.key.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    r.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    trace.records.push_back(r);
  }
  net::FlowTrace parallel = trace;
  const core::RepairStats s1 = core::repair_flow_fields(trace, 1);
  const core::RepairStats s4 = core::repair_flow_fields(parallel, 4);
  EXPECT_EQ(trace.records, parallel.records);
  EXPECT_EQ(s1.total_repairs(), s4.total_repairs());
  EXPECT_GT(s1.duration_fixed, 0u);
  for (const auto& r : trace.records) {
    EXPECT_GE(r.packets, 1u);
    EXPECT_GE(r.bytes, r.packets * net::min_packet_size(r.key.protocol));
    EXPECT_GE(r.duration, 0.0);
    if (r.key.protocol == net::Protocol::kIcmp) {
      EXPECT_EQ(r.key.src_port, 0);
      EXPECT_EQ(r.key.dst_port, 0);
    }
  }
}

TEST(Postprocess, RemapAndRetrainThreadInvariant) {
  net::PacketTrace trace = dirty_packets();
  const core::IpRemapConfig remap_cfg;
  const net::PacketTrace m1 = core::remap_ips(trace, remap_cfg, 1);
  const net::PacketTrace m4 = core::remap_ips(trace, remap_cfg, 4);
  EXPECT_EQ(m1.packets, m4.packets);
  const std::map<std::uint16_t, double> dist{{80, 0.7}, {443, 0.3}};
  Rng rng_a(31), rng_b(31);
  const net::PacketTrace p1 = core::retrain_dst_ports(m1, dist, rng_a, 1);
  const net::PacketTrace p4 = core::retrain_dst_ports(m4, dist, rng_b, 4);
  EXPECT_EQ(p1.packets, p4.packets);
}

}  // namespace
}  // namespace netshare
