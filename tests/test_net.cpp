// Tests for the net substrate: addresses, checksums, headers, 5-tuples,
// traces, pcap/netflow IO, and the NetFlow collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/checksum.hpp"
#include "net/flow_collector.hpp"
#include "net/ipv4.hpp"
#include "net/netflow_io.hpp"
#include "net/pcap_io.hpp"
#include "net/ports.hpp"
#include "net/trace.hpp"

namespace netshare::net {
namespace {

TEST(Ipv4Address, FormatsAndParsesDottedQuad) {
  Ipv4Address a(192, 168, 1, 42);
  EXPECT_EQ(a.to_string(), "192.168.1.42");
  EXPECT_EQ(Ipv4Address::parse("192.168.1.42"), a);
}

TEST(Ipv4Address, ParseRejectsMalformedInput) {
  EXPECT_THROW(Ipv4Address::parse("256.1.1.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), std::invalid_argument);
}

TEST(Ipv4Address, OctetsAreMsbFirst) {
  Ipv4Address a(10, 20, 30, 40);
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(1), 20);
  EXPECT_EQ(a.octet(2), 30);
  EXPECT_EQ(a.octet(3), 40);
}

TEST(Ipv4Address, ClassPredicates) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(240, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(255, 1, 2, 3).is_broadcast_prefix());
  EXPECT_TRUE(Ipv4Address(0, 1, 2, 3).is_zero_prefix());
  EXPECT_TRUE(Ipv4Address(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(192, 168, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Address(172, 32, 0, 1).is_private());
}

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 documentation:
  // 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0xab};
  // word is 0xab00; checksum = ~0xab00 = 0x54ff.
  EXPECT_EQ(internet_checksum(data, 1), 0x54ff);
}

TEST(Checksum, AccumulatorMatchesSinglePass) {
  std::vector<std::uint8_t> data(37);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ChecksumAccumulator acc;
  acc.add(data.data(), 10);
  acc.add(data.data() + 10, 27);
  EXPECT_EQ(acc.finalize(), internet_checksum(data.data(), data.size()));
}

TEST(Checksum, AccumulatorHandlesOddSplit) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7};
  ChecksumAccumulator acc;
  acc.add(data.data(), 3);  // odd split
  acc.add(data.data() + 3, 4);
  EXPECT_EQ(acc.finalize(), internet_checksum(data.data(), data.size()));
}

TEST(Ipv4Header, SerializeProducesValidChecksum) {
  Ipv4Header h;
  h.total_length = 60;
  h.protocol = Protocol::kTcp;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  const auto bytes = h.serialize();
  // Checksum over the serialized header (with its checksum field) must be 0.
  EXPECT_EQ(internet_checksum(bytes.data(), bytes.size()), 0);
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0x1234;
  h.ttl = 57;
  h.protocol = Protocol::kUdp;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(200, 100, 50, 25);
  const auto bytes = h.serialize();
  const Ipv4Header parsed = Ipv4Header::parse(bytes.data(), bytes.size());
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.identification, h.identification);
  EXPECT_EQ(parsed.ttl, h.ttl);
  EXPECT_EQ(parsed.protocol, h.protocol);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_TRUE(parsed.checksum_valid());
}

TEST(Ipv4Header, ParseRejectsShortOrNonIpv4) {
  std::uint8_t short_buf[10] = {};
  EXPECT_THROW(Ipv4Header::parse(short_buf, sizeof short_buf),
               std::invalid_argument);
  std::uint8_t v6[20] = {};
  v6[0] = 0x65;
  EXPECT_THROW(Ipv4Header::parse(v6, sizeof v6), std::invalid_argument);
}

TEST(Ipv4Header, ParseHonoursIhl) {
  Ipv4Header h;
  h.total_length = 44;
  const auto fixed = h.serialize();
  std::uint8_t buf[24] = {};
  std::copy(fixed.begin(), fixed.end(), buf);

  buf[0] = 0x46;  // IHL 6: 4 bytes of options follow the fixed header
  EXPECT_EQ(Ipv4Header::parse(buf, sizeof buf).header_bytes(), 24u);
  EXPECT_THROW(Ipv4Header::parse(buf, 20), std::invalid_argument);
  buf[0] = 0x44;  // IHL 4: shorter than the fixed header
  EXPECT_THROW(Ipv4Header::parse(buf, sizeof buf), std::invalid_argument);
}

TEST(MinPacketSize, MatchesPaperAppendixB) {
  EXPECT_EQ(min_packet_size(Protocol::kTcp), 40u);
  EXPECT_EQ(min_packet_size(Protocol::kUdp), 28u);
}

TEST(FiveTuple, EqualityAndHashing) {
  FiveTuple a{Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 1000, 80,
              Protocol::kTcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.dst_port = 81;
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());  // overwhelmingly likely
}

TEST(FiveTuple, OrderingIsStrictWeak) {
  FiveTuple a{Ipv4Address(1, 0, 0, 1), Ipv4Address(2, 0, 0, 1), 10, 20,
              Protocol::kTcp};
  FiveTuple b = a;
  b.src_port = 11;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(WellKnownPorts, PinsExpectedProtocols) {
  EXPECT_EQ(well_known_port_protocol(80), Protocol::kTcp);
  EXPECT_EQ(well_known_port_protocol(53), Protocol::kUdp);
  EXPECT_EQ(well_known_port_protocol(443), Protocol::kTcp);
  EXPECT_EQ(well_known_port_protocol(12345), std::nullopt);
}

TEST(AttackTypes, NameRoundTrip) {
  for (int i = 0; i <= static_cast<int>(AttackType::kXss); ++i) {
    const auto t = static_cast<AttackType>(i);
    EXPECT_EQ(attack_type_from_name(attack_type_name(t)), t);
  }
  EXPECT_THROW(attack_type_from_name("nonsense"), std::invalid_argument);
}

PacketTrace tiny_trace() {
  PacketTrace t;
  FiveTuple f1{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1111, 80,
               Protocol::kTcp};
  FiveTuple f2{Ipv4Address(3, 3, 3, 3), Ipv4Address(4, 4, 4, 4), 2222, 53,
               Protocol::kUdp};
  t.packets.push_back({5.0, f1, 100, 64, 0x10});
  t.packets.push_back({1.0, f2, 60, 32, 0x10});
  t.packets.push_back({3.0, f1, 1500, 64, 0x10});
  return t;
}

TEST(PacketTrace, SortByTimeIsStableAscending) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  EXPECT_DOUBLE_EQ(t.packets[0].timestamp, 1.0);
  EXPECT_DOUBLE_EQ(t.packets[1].timestamp, 3.0);
  EXPECT_DOUBLE_EQ(t.packets[2].timestamp, 5.0);
}

TEST(PacketTrace, EpochSplitAndMergeRoundTrip) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  const auto epochs = t.split_epochs(2.0);
  ASSERT_EQ(epochs.size(), 3u);  // [1,3), [3,5), [5,7)
  EXPECT_EQ(epochs[0].size(), 1u);
  EXPECT_EQ(epochs[1].size(), 1u);
  EXPECT_EQ(epochs[2].size(), 1u);
  const PacketTrace merged = PacketTrace::merge(epochs);
  EXPECT_EQ(merged.size(), t.size());
  EXPECT_EQ(merged.packets, t.packets);
}

TEST(PacketTrace, GroupByFlowKeepsFirstSeenOrder) {
  PacketTrace t = tiny_trace();  // f1 at idx 0, f2 at idx 1, f1 at idx 2
  const auto groups = t.group_by_flow();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].second, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].second, (std::vector<std::size_t>{1}));
}

TEST(AggregateFlows, SumsPacketsAndBytes) {
  const auto aggs = aggregate_flows(tiny_trace());
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].packets, 2u);
  EXPECT_EQ(aggs[0].bytes, 1600u);
  EXPECT_DOUBLE_EQ(aggs[0].first_seen, 3.0);
  EXPECT_DOUBLE_EQ(aggs[0].last_seen, 5.0);
  EXPECT_EQ(aggs[1].packets, 1u);
}

TEST(PcapIo, WriteReadRoundTrip) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  std::stringstream ss;
  write_pcap(t, ss);
  const PacketTrace back = read_pcap(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.packets[i].key, t.packets[i].key) << "packet " << i;
    EXPECT_EQ(back.packets[i].size, t.packets[i].size);
    EXPECT_EQ(back.packets[i].ttl, t.packets[i].ttl);
    EXPECT_NEAR(back.packets[i].timestamp, t.packets[i].timestamp, 1e-5);
  }
}

TEST(PcapIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a pcap file at all";
  EXPECT_THROW(read_pcap(ss), std::runtime_error);
}

// Little-endian u32 spliced into a pcap image at byte `at`.
void poke_le32(std::string& img, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    img[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Reads `img` expecting a ParseError at byte `offset` whose message
// contains `cause`.
void expect_parse_error_at(const std::string& img, std::uint64_t offset,
                           const std::string& cause) {
  std::stringstream ss(img);
  try {
    read_pcap(ss);
    ADD_FAILURE() << "read_pcap accepted a malformed image";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), offset) << e.what();
    EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
        << e.what();
  }
}

TEST(PcapIo, RejectsOversizedCaplenBeforeAllocating) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  std::stringstream ss;
  write_pcap(t, ss, /*snaplen=*/96);
  const std::string good = ss.str();
  constexpr std::size_t kFirst = 24;  // first record, after the global header
  const std::size_t second = kFirst + 16 + (good[kFirst + 8] & 0xff);

  // A 16-byte record header asking for 4 GiB is rejected from the header
  // alone, with the offending record's offset.
  std::string huge = good.substr(0, kFirst + 16);
  poke_le32(huge, kFirst + 8, 0xffffffffu);
  expect_parse_error_at(huge, kFirst, "exceeds limit 96");

  // Above the file's snaplen but below 65535: still rejected.
  std::string over_snap = good;
  poke_le32(over_snap, second + 8, 97);
  expect_parse_error_at(over_snap, second, "exceeds limit 96");

  // A snaplen above 65535 does not lift the IPv4 bound.
  std::string big_snap = good.substr(0, kFirst + 16);
  poke_le32(big_snap, 16, 262144);
  poke_le32(big_snap, kFirst + 8, 65536);
  expect_parse_error_at(big_snap, kFirst, "exceeds limit 65535");
}

TEST(PcapIo, TruncatedAndShortRecordsCarryTheirOffset) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  std::stringstream ss;
  write_pcap(t, ss);
  const std::string good = ss.str();
  constexpr std::size_t kFirst = 24;
  const std::size_t second = kFirst + 16 + (good[kFirst + 8] & 0xff);

  expect_parse_error_at(good.substr(0, second + 10), second, "header");
  expect_parse_error_at(good.substr(0, second + 20), second, "body");

  // A record too short to hold an IPv4 header.
  std::string shrunk = good.substr(0, kFirst + 16 + 4);
  poke_le32(shrunk, kFirst + 8, 4);
  expect_parse_error_at(shrunk, kFirst, "short buffer");

  expect_parse_error_at(good.substr(0, 12), 0, "global header");
}

// One TCP packet, 4242 -> 443 with PSH|ACK, as a pcap image whose IPv4
// header is widened to IHL 6 by 4 option bytes (NOP NOP NOP EOL) spliced in
// before the TCP header.
std::string pcap_with_ip_options() {
  PacketTrace t;
  t.packets.push_back({1.0,
                       {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                        4242, 443, Protocol::kTcp},
                       40, 64, 0x18});
  std::stringstream ss;
  write_pcap(t, ss);
  std::string img = ss.str();
  constexpr std::size_t kFirst = 24;
  constexpr std::size_t kIp = kFirst + 16;
  poke_le32(img, kFirst + 8, (img[kFirst + 8] & 0xff) + 4);  // caplen
  img.insert(kIp + Ipv4Header::kSize, std::string("\x01\x01\x01\x00", 4));
  img[kIp] = 0x46;
  return img;
}

TEST(PcapIo, IpOptionsShiftTheL4Offset) {
  std::stringstream ss(pcap_with_ip_options());
  const PacketTrace back = read_pcap(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.packets[0].key.src_port, 4242);
  EXPECT_EQ(back.packets[0].key.dst_port, 443);
  EXPECT_EQ(back.packets[0].tcp_flags, 0x18);
}

TEST(PcapIo, RejectsIhlBelowFiveOrPastCaplen) {
  constexpr std::size_t kFirst = 24;
  constexpr std::size_t kIp = kFirst + 16;
  std::string low = pcap_with_ip_options();
  low[kIp] = 0x44;
  expect_parse_error_at(low, kFirst, "IHL 4 below 5");
  std::string high = pcap_with_ip_options();
  high[kIp] = 0x4f;  // 60-byte header in a 44-byte record
  expect_parse_error_at(high, kFirst, "IHL 15 exceeds 44 captured bytes");
}

TEST(NetflowIo, CsvRoundTrip) {
  FlowTrace t;
  FlowRecord r;
  r.key = {Ipv4Address(9, 8, 7, 6), Ipv4Address(5, 4, 3, 2), 4242, 443,
           Protocol::kTcp};
  r.start_time = 12.5;
  r.duration = 3.25;
  r.packets = 17;
  r.bytes = 12345;
  r.is_attack = true;
  r.attack_type = AttackType::kDos;
  t.records.push_back(r);

  std::stringstream ss;
  write_netflow_csv(t, ss);
  const FlowTrace back = read_netflow_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records[0], r);
}

// The iostream writer write_netflow_csv replaced: the byte oracle for it.
std::string iostream_netflow_csv(const FlowTrace& trace) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,"
         "packets,bytes,label,attack_type\n";
  for (const auto& r : trace.records) {
    out << r.start_time << ',' << r.duration << ',' << r.key.src_ip.to_string()
        << ',' << r.key.dst_ip.to_string() << ',' << r.key.src_port << ','
        << r.key.dst_port << ',' << protocol_name(r.key.protocol) << ','
        << r.packets << ',' << r.bytes << ',' << (r.is_attack ? 1 : 0) << ','
        << attack_type_name(r.attack_type) << '\n';
  }
  return out.str();
}

std::string netflow_csv(const FlowTrace& trace) {
  std::ostringstream out;
  write_netflow_csv(trace, out);
  return out.str();
}

constexpr int kAttackTypes = 12;  // AttackType::kNone .. kXss

// `n` flows with random times over many magnitudes (positive, as generated
// traces have), addresses, ports, counts, protocols and attack types.
FlowTrace random_flows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  const Protocol protocols[] = {Protocol::kIcmp, Protocol::kTcp,
                                Protocol::kUdp};
  FlowTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    FlowRecord r;
    r.start_time = unit(rng) * std::pow(10.0, exponent(rng));
    r.duration = i % 7 == 0 ? 0.0 : unit(rng) * std::pow(10.0, exponent(rng));
    r.key.src_ip = Ipv4Address(static_cast<std::uint32_t>(rng()));
    r.key.dst_ip = Ipv4Address(static_cast<std::uint32_t>(rng()));
    r.key.src_port = static_cast<std::uint16_t>(rng());
    r.key.dst_port = static_cast<std::uint16_t>(rng());
    r.key.protocol = protocols[rng() % 3];
    r.packets = rng() >> (rng() % 64);
    r.bytes = rng() >> (rng() % 64);
    r.attack_type = static_cast<AttackType>(rng() % kAttackTypes);
    r.is_attack = r.attack_type != AttackType::kNone;
    t.records.push_back(r);
  }
  return t;
}

TEST(NetflowIo, WriterMatchesIostreamOracleOnEdgeValues) {
  const double doubles[] = {0.0,
                            -0.0,
                            1e-300,
                            std::numeric_limits<double>::denorm_min(),
                            2.5e-310,  // another denormal
                            1e300,
                            0.1,
                            1.0,
                            3.0,
                            1234567.0,
                            1e17,
                            -2.5,
                            1.0 / 3.0,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest()};
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t counts[] = {0, 1, 65535, kMax64};
  const std::uint16_t ports[] = {0, 1, 80, 65535};
  // Every enumerator, plus a protocol without a name (written as a number).
  const Protocol protocols[] = {Protocol::kIcmp, Protocol::kTcp,
                                Protocol::kUdp, static_cast<Protocol>(99)};
  FlowTrace t;
  std::size_t i = 0;
  for (const double d : doubles) {
    for (const std::uint64_t c : counts) {
      FlowRecord r;
      r.start_time = d;
      r.duration = doubles[(i + 5) % std::size(doubles)];
      r.key.src_ip = Ipv4Address(static_cast<std::uint32_t>(i * 0x9e3779b9u));
      r.key.dst_ip = i % 2 ? Ipv4Address(255, 255, 255, 255) : Ipv4Address();
      r.key.src_port = ports[i % std::size(ports)];
      r.key.dst_port = ports[(i + 1) % std::size(ports)];
      r.key.protocol = protocols[i % std::size(protocols)];
      r.packets = c;
      r.bytes = counts[(i + 1) % std::size(counts)];
      r.attack_type = static_cast<AttackType>(i % kAttackTypes);
      r.is_attack = i % 3 == 0;
      t.records.push_back(r);
      ++i;
    }
  }
  EXPECT_EQ(netflow_csv(t), iostream_netflow_csv(t));
  EXPECT_EQ(netflow_csv(FlowTrace{}), iostream_netflow_csv(FlowTrace{}));
}

TEST(NetflowIo, WriterMatchesIostreamOracleOnRandomTrace) {
  const FlowTrace t = random_flows(10000, 77);
  const std::string csv = netflow_csv(t);
  EXPECT_GT(csv.size(), 64u * 1024u);  // crosses the writer's buffer flushes
  EXPECT_EQ(csv, iostream_netflow_csv(t));
}

TEST(NetflowIo, WriterRoundTripsThroughTheReader) {
  const FlowTrace t = random_flows(10000, 78);
  std::stringstream ss;
  write_netflow_csv(t, ss);
  const FlowTrace back = read_netflow_csv(ss);
  EXPECT_EQ(back.records, t.records);
}

TEST(NetflowIo, WriterLeavesTheStreamsPrecisionAlone) {
  std::ostringstream out;
  out << std::setprecision(3);
  write_netflow_csv(random_flows(3, 79), out);
  EXPECT_EQ(out.precision(), 3);
}

TEST(NetflowIo, RejectsMissingHeader) {
  std::stringstream ss;
  ss << "1,2,3\n";
  EXPECT_THROW(read_netflow_csv(ss), std::runtime_error);
}

// A CSV image of two valid flow rows (lines 2 and 3), with column `column`
// of line 3 replaced by `value`.
std::string netflow_csv_with(std::size_t column, const std::string& value) {
  FlowTrace t;
  FlowRecord r;
  r.key = {Ipv4Address(9, 8, 7, 6), Ipv4Address(5, 4, 3, 2), 4242, 443,
           Protocol::kTcp};
  r.start_time = 1.5;
  r.duration = 0.25;
  t.records = {r, r};
  std::stringstream ss;
  write_netflow_csv(t, ss);
  std::string header, good, row;
  std::getline(ss, header);
  std::getline(ss, good);
  std::getline(ss, row);
  std::vector<std::string> fields;
  std::stringstream cells(row);
  for (std::string cell; std::getline(cells, cell, ',');) {
    fields.push_back(cell);
  }
  fields.at(column) = value;
  std::string out = header + "\n" + good + "\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i ? "," : "") + fields[i];
  }
  return out + "\n";
}

// Reads `csv` expecting a ParseError at line `line` whose message contains
// `cause`.
void expect_csv_error_at(const std::string& csv, std::uint64_t line,
                         const std::string& cause) {
  std::stringstream ss(csv);
  try {
    read_netflow_csv(ss);
    ADD_FAILURE() << "read_netflow_csv accepted: " << csv;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.unit(), ParseError::Unit::kLine) << e.what();
    EXPECT_EQ(e.offset(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
        << e.what();
  }
}

TEST(NetflowIo, RejectsPortsAbove65535) {
  std::stringstream max_port(netflow_csv_with(4, "65535"));
  const FlowTrace t = read_netflow_csv(max_port);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.records[1].key.src_port, 65535);

  expect_csv_error_at(netflow_csv_with(4, "70000"), 3,
                      "src_port '70000' exceeds 65535");
  expect_csv_error_at(netflow_csv_with(5, "65536"), 3,
                      "dst_port '65536' exceeds 65535");
  expect_csv_error_at(netflow_csv_with(5, "99999999999999999999999"), 3,
                      "exceeds 65535");
}

TEST(NetflowIo, RejectsNonFiniteTimes) {
  expect_csv_error_at(netflow_csv_with(0, "nan"), 3,
                      "start_time 'nan' is not finite");
  expect_csv_error_at(netflow_csv_with(0, "-inf"), 3, "is not finite");
  expect_csv_error_at(netflow_csv_with(1, "inf"), 3,
                      "duration 'inf' is not finite");
  expect_csv_error_at(netflow_csv_with(1, "NaN"), 3, "is not finite");
}

TEST(NetflowIo, RejectsNegativeDuration) {
  expect_csv_error_at(netflow_csv_with(1, "-0.5"), 3,
                      "duration '-0.5' is negative");
}

TEST(NetflowIo, MalformedFieldsNameTheirLine) {
  expect_csv_error_at(netflow_csv_with(4, "abc"), 3,
                      "src_port 'abc' is not an unsigned integer");
  expect_csv_error_at(netflow_csv_with(7, "-1"), 3,
                      "packets '-1' is not an unsigned integer");
  expect_csv_error_at(netflow_csv_with(8, "12x"), 3,
                      "bytes '12x' is not an unsigned integer");
  expect_csv_error_at(netflow_csv_with(0, "1.5s"), 3,
                      "start_time '1.5s' is not a number");
  expect_csv_error_at(netflow_csv_with(2, "1.2.3"), 3, "malformed address");
  expect_csv_error_at(netflow_csv_with(6, "SCTP"), 3,
                      "protocol 'SCTP' is unknown");
  expect_csv_error_at(netflow_csv_with(9, "yes"), 3,
                      "label 'yes' is not 0 or 1");
  expect_csv_error_at(netflow_csv_with(10, "nonsense"), 3, "nonsense");
  expect_csv_error_at("start_time\n", 1, "header");
  std::string short_row = netflow_csv_with(0, "1.0");
  short_row.erase(short_row.rfind(','));
  expect_csv_error_at(short_row + "\n", 3, "expected 11 columns, got 10");
}

TEST(FlowCollector, SinglePacketMakesSingleRecord) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kUdp};
  t.packets.push_back({0.0, f, 100, 64, 0});
  const FlowTrace flows = FlowCollector({15.0, 60.0}).collect(t);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.records[0].packets, 1u);
  EXPECT_EQ(flows.records[0].bytes, 100u);
}

TEST(FlowCollector, InactiveTimeoutSplitsFlow) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kTcp};
  t.packets.push_back({0.0, f, 100, 64, 0});
  t.packets.push_back({1.0, f, 100, 64, 0});
  t.packets.push_back({30.0, f, 100, 64, 0});  // idle 29s > 15s timeout
  const FlowTrace flows = FlowCollector({15.0, 600.0}).collect(t);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows.records[0].packets, 2u);
  EXPECT_EQ(flows.records[1].packets, 1u);
}

TEST(FlowCollector, ActiveTimeoutSplitsLongFlow) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kTcp};
  for (int i = 0; i < 100; ++i) {
    t.packets.push_back({i * 1.0, f, 100, 64, 0});
  }
  const FlowTrace flows = FlowCollector({15.0, 30.0}).collect(t);
  // 100 seconds of 1s-spaced packets with a 30s active timeout -> >= 3 records.
  EXPECT_GE(flows.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& r : flows.records) total += r.packets;
  EXPECT_EQ(total, 100u);
}

TEST(FlowCollector, DistinctTuplesStaySeparate) {
  PacketTrace t = tiny_trace();
  const FlowTrace flows = FlowCollector({15.0, 60.0}).collect(t);
  EXPECT_EQ(flows.size(), 2u);
}

}  // namespace
}  // namespace netshare::net
