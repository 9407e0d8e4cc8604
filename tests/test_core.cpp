// Tests for the NetShare core pipeline: tuple codec, encoders (including the
// encode -> decode round-trip invariant), chunk grid, chunked trainer, and
// postprocessing privacy extensions.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/netshare.hpp"
#include "core/postprocess.hpp"
#include "datagen/presets.hpp"
#include "metrics/field_metrics.hpp"
#include "net/ports.hpp"

namespace netshare::core {
namespace {

std::shared_ptr<embed::Ip2Vec> shared_ip2vec() {
  static std::shared_ptr<embed::Ip2Vec> model =
      make_public_ip2vec(2015, 2500, 8);
  return model;
}

NetShareConfig tiny_config() {
  NetShareConfig cfg;
  cfg.max_seq_len = 4;
  cfg.num_chunks = 3;
  cfg.seed_iterations = 60;
  cfg.finetune_iterations = 25;
  cfg.threads = 3;
  cfg.dg.attr_hidden = {32};
  cfg.dg.rnn_hidden = 24;
  cfg.dg.disc_hidden = {48, 48};
  cfg.dg.aux_hidden = {16};
  cfg.dg.batch_size = 32;
  return cfg;
}

TEST(ChunkGrid, CoversRangeEvenly) {
  const auto chunks = make_chunk_grid(10.0, 40.0, 3);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_DOUBLE_EQ(chunks[0].start_time, 10.0);
  EXPECT_DOUBLE_EQ(chunks[1].start_time, 20.0);
  EXPECT_DOUBLE_EQ(chunks[2].start_time, 30.0);
  EXPECT_DOUBLE_EQ(chunks[0].duration, 10.0);
}

TEST(ChunkGrid, DegenerateRangeIsSafe) {
  const auto chunks = make_chunk_grid(5.0, 5.0, 4);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_GT(chunks[0].duration, 0.0);
}

TEST(TupleCodec, BitModeRoundTripsExactly) {
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  TupleCodec codec(cfg, nullptr);
  net::FiveTuple key{net::Ipv4Address(42, 1, 2, 3), net::Ipv4Address(8, 8, 8, 8),
                     51514, 443, net::Protocol::kTcp};
  std::vector<double> buf(codec.dim(false), 0.0);
  codec.encode(key, buf.data());
  EXPECT_EQ(codec.decode(buf.data()), key);
}

TEST(TupleCodec, Ip2VecModeRoundTripsVocabPorts) {
  NetShareConfig cfg = tiny_config();
  TupleCodec codec(cfg, shared_ip2vec().get());
  for (std::uint16_t port : {std::uint16_t{53}, std::uint16_t{80},
                             std::uint16_t{443}}) {
    net::FiveTuple key{net::Ipv4Address(10, 1, 2, 3),
                       net::Ipv4Address(10, 4, 5, 6), 30000, port,
                       *net::well_known_port_protocol(port) == net::Protocol::kUdp
                           ? net::Protocol::kUdp
                           : net::Protocol::kTcp};
    std::vector<double> buf(codec.dim(false), 0.0);
    codec.encode(key, buf.data());
    const net::FiveTuple back = codec.decode(buf.data());
    EXPECT_EQ(back.dst_port, port);
    EXPECT_EQ(back.src_ip, key.src_ip);
    EXPECT_EQ(back.dst_ip, key.dst_ip);
    EXPECT_EQ(back.protocol, key.protocol);
  }
}

TEST(TupleCodec, IcmpZeroesPorts) {
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  TupleCodec codec(cfg, nullptr);
  net::FiveTuple key{net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2),
                     0, 0, net::Protocol::kIcmp};
  std::vector<double> buf(codec.dim(false), 0.0);
  codec.encode(key, buf.data());
  const auto back = codec.decode(buf.data());
  EXPECT_EQ(back.protocol, net::Protocol::kIcmp);
  EXPECT_EQ(back.src_port, 0);
  EXPECT_EQ(back.dst_port, 0);
}

TEST(FlowEncoder, EncodeDecodeRoundTripPreservesRecords) {
  // Feed the encoder's own encoding back through decode: records must come
  // back with the right keys, counts, and approximate values.
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 600, 51);
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;  // exact port round-trip
  FlowEncoder enc(cfg, nullptr);
  enc.fit(bundle.flows);
  const auto chunks = enc.encode(bundle.flows);
  ASSERT_EQ(chunks.size(), 3u);

  std::size_t encoded_records = 0;
  net::FlowTrace decoded_all;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t len : chunks[c].lengths) encoded_records += len;
    const net::FlowTrace dec = enc.decode(chunks[c], c);
    decoded_all.records.insert(decoded_all.records.end(), dec.records.begin(),
                               dec.records.end());
  }
  // All records survive (up to per-flow truncation at max_seq_len).
  EXPECT_EQ(decoded_all.size(), encoded_records);
  EXPECT_LE(decoded_all.size(), bundle.flows.size());
  EXPECT_GT(decoded_all.size(), bundle.flows.size() * 9 / 10);

  // Distributions of the decoded trace match the original closely.
  decoded_all.sort_by_time();
  const auto rep = metrics::compare_flows(bundle.flows, decoded_all);
  EXPECT_LT(rep.jsd.at("DP"), 0.05);
  EXPECT_LT(rep.jsd.at("PR"), 0.05);
  EXPECT_LT(rep.jsd.at("SA"), 0.10);
}

TEST(FlowEncoder, AttackLabelsSurviveRoundTrip) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kTon, 800, 52);
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  FlowEncoder enc(cfg, nullptr);
  enc.fit(bundle.flows);
  const auto chunks = enc.encode(bundle.flows);
  std::size_t real_attacks = 0, decoded_attacks = 0;
  for (const auto& r : bundle.flows.records) real_attacks += r.is_attack;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (const auto& r : enc.decode(chunks[c], c).records) {
      decoded_attacks += r.is_attack;
    }
  }
  // Within truncation losses.
  EXPECT_NEAR(static_cast<double>(decoded_attacks),
              static_cast<double>(real_attacks), real_attacks * 0.25 + 5.0);
}

TEST(PacketEncoder, EncodeDecodeRoundTripPreservesPackets) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 1500, 53);
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  cfg.max_seq_len = 6;
  PacketEncoder enc(cfg, nullptr);
  enc.fit(bundle.packets);
  const auto chunks = enc.encode(bundle.packets);

  net::PacketTrace decoded_all;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const auto dec = enc.decode(chunks[c], c);
    decoded_all.packets.insert(decoded_all.packets.end(), dec.packets.begin(),
                               dec.packets.end());
  }
  EXPECT_LE(decoded_all.size(), bundle.packets.size());
  // Truncation at max_seq_len drops packets of elephant flows (documented
  // scale-down); the bulk must survive.
  EXPECT_GT(decoded_all.size(), bundle.packets.size() / 3);
  decoded_all.sort_by_time();
  const auto rep = metrics::compare_packets(bundle.packets, decoded_all);
  EXPECT_LT(rep.jsd.at("DP"), 0.05);
  EXPECT_LT(rep.jsd.at("PR"), 0.05);
}

TEST(PacketEncoder, ChunkCountsAreConsistent) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCaida, 1000, 54);
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  PacketEncoder enc(cfg, nullptr);
  enc.fit(bundle.packets);
  std::size_t records = 0;
  for (const auto& c : enc.chunks()) records += c.real_records;
  EXPECT_EQ(records, bundle.packets.size());
}

std::vector<ChunkInfo> chunks_of(std::vector<std::size_t> records) {
  std::vector<ChunkInfo> chunks(records.size());
  for (std::size_t c = 0; c < records.size(); ++c) {
    chunks[c].real_records = records[c];
  }
  return chunks;
}

TEST(ChunkRecordTargets, LargestRemainderSumsToExactlyN) {
  using Targets = std::vector<std::size_t>;
  // Rounding each equal third on its own would give 33 + 33 + 33 = 99.
  EXPECT_EQ(chunk_record_targets(chunks_of({10, 10, 10}), 100),
            (Targets{34, 33, 33}));
  // ... and 1 + 1 = 2 here.
  EXPECT_EQ(chunk_record_targets(chunks_of({5, 5}), 1), (Targets{1, 0}));
  // Leftovers go to the largest remainders, not the lowest index.
  EXPECT_EQ(chunk_record_targets(chunks_of({1, 2, 4}), 10),
            (Targets{1, 3, 6}));
  EXPECT_EQ(chunk_record_targets(chunks_of({0, 7, 0}), 5), (Targets{0, 5, 0}));
  EXPECT_EQ(chunk_record_targets(chunks_of({0, 0}), 5), (Targets{0, 0}));

  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> records(1 + rng.engine()() % 8);
    std::size_t total = 0;
    for (auto& r : records) {
      r = rng.engine()() % 50;
      total += r;
    }
    if (total == 0) continue;
    const std::size_t n = rng.engine()() % 5000;
    const Targets t = chunk_record_targets(chunks_of(records), n);
    std::size_t sum = 0;
    for (std::size_t c = 0; c < t.size(); ++c) {
      sum += t[c];
      const double exact = static_cast<double>(n) *
                           static_cast<double>(records[c]) /
                           static_cast<double>(total);
      EXPECT_LT(std::abs(static_cast<double>(t[c]) - exact), 1.0);
    }
    EXPECT_EQ(sum, n);
  }
}

TEST(ChunkRecordTargets, GeneratePacketsReturnsExactlyN) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCaida, 300, 63);
  NetShareConfig cfg = tiny_config();
  cfg.use_ip2vec_ports = false;
  cfg.seed_iterations = 8;
  cfg.finetune_iterations = 4;
  PacketEncoder encoder(cfg, nullptr);
  encoder.fit(bundle.packets);
  // Pick an n whose per-chunk shares, each rounded on its own, sum to less
  // than n: the case that used to come back short.
  std::size_t total = 0;
  for (const auto& c : encoder.chunks()) total += c.real_records;
  std::size_t n = 0;
  for (std::size_t cand = 50; cand < 200 && n == 0; ++cand) {
    std::size_t rounded = 0;
    for (const auto& c : encoder.chunks()) {
      rounded += (cand * c.real_records + total / 2) / total;
    }
    if (rounded < cand) n = cand;
  }
  ASSERT_NE(n, 0u);
  NetShare model(cfg, nullptr);
  model.fit(bundle.packets);
  Rng rng(64);
  EXPECT_EQ(model.generate_packets(n, rng).size(), n);
}

TEST(NetShareEndToEnd, FlowPathProducesFaithfulTrace) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 800, 55);
  NetShareConfig cfg = tiny_config();
  cfg.seed_iterations = 120;
  cfg.finetune_iterations = 40;
  NetShare model(cfg, shared_ip2vec());
  model.fit(bundle.flows);
  EXPECT_GT(model.train_cpu_seconds(), 0.0);

  Rng rng(56);
  const net::FlowTrace syn = model.generate_flows(800, rng);
  ASSERT_EQ(syn.size(), 800u);
  // Timestamps within the (extended) trace horizon, sorted.
  for (std::size_t i = 1; i < syn.size(); ++i) {
    EXPECT_LE(syn.records[i - 1].start_time, syn.records[i].start_time);
  }
  for (const auto& r : syn.records) {
    EXPECT_GE(r.packets, 1u);
    EXPECT_GE(r.bytes, 1u);
  }
  // Learned structure: protocol mix nearly exact, destination-port mass on
  // real service ports, and start times spread over the trace horizon.
  const auto rep_syn = metrics::compare_flows(bundle.flows, syn);
  EXPECT_LT(rep_syn.jsd.at("PR"), 0.20);
  EXPECT_LT(rep_syn.jsd.at("DP"), 0.75);
  const double real_span =
      bundle.flows.end_time() - bundle.flows.start_time();
  const double syn_span = syn.records.back().start_time -
                          syn.records.front().start_time;
  EXPECT_GT(syn_span, 0.3 * real_span);
}

TEST(NetShareEndToEnd, PacketPathProducesPackets) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kDc, 1200, 58);
  NetShareConfig cfg = tiny_config();
  cfg.max_seq_len = 6;
  cfg.seed_iterations = 100;
  cfg.finetune_iterations = 30;
  NetShare model(cfg, shared_ip2vec());
  model.fit(bundle.packets);

  Rng rng(59);
  const net::PacketTrace syn = model.generate_packets(1000, rng);
  ASSERT_EQ(syn.size(), 1000u);
  for (const auto& p : syn.packets) {
    EXPECT_GE(p.size, net::min_packet_size(p.key.protocol));
    EXPECT_LE(p.size, 1500u);
    EXPECT_GE(p.ttl, 1);
  }
  // NetShare's flow split should produce some multi-packet flows — the
  // capability every per-packet baseline lacks (Fig. 1b).
  const auto aggs = net::aggregate_flows(syn);
  std::size_t multi = 0;
  for (const auto& a : aggs) multi += a.packets > 1;
  EXPECT_GT(multi, 0u);
}

TEST(NetShareEndToEnd, GenerateBeforeFitThrows) {
  NetShare model(tiny_config(), shared_ip2vec());
  Rng rng(60);
  EXPECT_THROW(model.generate_flows(10, rng), std::logic_error);
  EXPECT_THROW(model.generate_packets(10, rng), std::logic_error);
}

TEST(NetShareEndToEnd, V0UsesSingleChunk) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 400, 61);
  NetShareConfig cfg = tiny_config();
  cfg.netshare_v0 = true;
  cfg.seed_iterations = 40;
  NetShare model(cfg, shared_ip2vec());
  model.fit(bundle.flows);
  Rng rng(62);
  const auto syn = model.generate_flows(200, rng);
  EXPECT_EQ(syn.size(), 200u);
}

TEST(NetShareEndToEnd, EpochMergeOverloadMatchesMerged) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 400, 63);
  const auto epochs = bundle.flows.split_epochs(120.0);
  NetShareConfig cfg = tiny_config();
  cfg.seed_iterations = 30;
  cfg.finetune_iterations = 10;
  NetShare model(cfg, shared_ip2vec());
  EXPECT_NO_THROW(model.fit(epochs));
}

TEST(NetShareEndToEnd, PublicPretrainSnapshotTransfers) {
  // Insight 4 mechanics: snapshot from a public model loads into a private
  // model with the same spec and DP training runs.
  const auto pub = datagen::make_dataset(datagen::DatasetId::kDcPub, 500, 64);
  NetShareConfig cfg = tiny_config();
  cfg.netshare_v0 = true;
  cfg.max_seq_len = 4;
  cfg.seed_iterations = 30;
  NetShare public_model(cfg, shared_ip2vec());
  public_model.fit(pub.packets);

  const auto priv = datagen::make_dataset(datagen::DatasetId::kDc, 500, 65);
  NetShareConfig dp_cfg = cfg;
  dp_cfg.dp = true;
  dp_cfg.dp_config = {1.0, 1.0};
  dp_cfg.seed_iterations = 5;
  dp_cfg.public_snapshot = public_model.snapshot();
  NetShare private_model(dp_cfg, shared_ip2vec());
  private_model.fit(priv.packets);
  EXPECT_GT(private_model.dp_steps(), 0u);
  Rng rng(66);
  EXPECT_EQ(private_model.generate_packets(100, rng).size(), 100u);
}

TEST(Postprocess, IpRemapMovesIntoSubnetPreservingStructure) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 400, 67);
  IpRemapConfig remap;
  const net::FlowTrace mapped = remap_ips(bundle.flows, remap);
  ASSERT_EQ(mapped.size(), bundle.flows.size());
  std::set<std::uint32_t> orig_srcs, mapped_srcs;
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    const auto& m = mapped.records[i];
    EXPECT_EQ(m.key.src_ip.octet(0), 10);
    EXPECT_TRUE(m.key.dst_ip.is_private());
    // Non-key fields untouched.
    EXPECT_EQ(m.packets, bundle.flows.records[i].packets);
    orig_srcs.insert(bundle.flows.records[i].key.src_ip.value());
    mapped_srcs.insert(m.key.src_ip.value());
  }
  // Distinctness preserved.
  EXPECT_EQ(orig_srcs.size(), mapped_srcs.size());
}

TEST(Postprocess, RetrainDstPortsMatchesTargetDistribution) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 2000, 68);
  Rng rng(69);
  const std::map<std::uint16_t, double> dist{{8080, 0.75}, {9090, 0.25}};
  const auto out = retrain_dst_ports(bundle.flows, dist, rng);
  std::size_t c8080 = 0;
  for (const auto& r : out.records) {
    EXPECT_TRUE(r.key.dst_port == 8080 || r.key.dst_port == 9090);
    c8080 += r.key.dst_port == 8080;
  }
  EXPECT_NEAR(static_cast<double>(c8080) / out.size(), 0.75, 0.05);
}

TEST(Postprocess, RetrainRejectsEmptyDistribution) {
  const auto bundle = datagen::make_dataset(datagen::DatasetId::kCidds, 50, 70);
  Rng rng(71);
  EXPECT_THROW(retrain_dst_ports(bundle.flows, {}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace netshare::core
