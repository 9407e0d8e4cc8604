#include "net/ipv4.hpp"

#include <cstdio>
#include <stdexcept>

#include "net/checksum.hpp"

namespace netshare::net {

std::string protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kIcmp:
      return "ICMP";
    case Protocol::kTcp:
      return "TCP";
    case Protocol::kUdp:
      return "UDP";
  }
  return std::to_string(static_cast<int>(p));
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", octet(0), octet(1), octet(2),
                octet(3));
  return buf;
}

Ipv4Address Ipv4Address::parse(const std::string& dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char trailing = 0;
  int n = std::sscanf(dotted.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &trailing);
  if (n != 4 || a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::invalid_argument("Ipv4Address::parse: malformed address '" +
                                dotted + "'");
  }
  return Ipv4Address(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                     static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

namespace {
void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v & 0xff);
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Serializes the header with the checksum field set to `checksum_value`.
std::array<std::uint8_t, Ipv4Header::kSize> serialize_with_checksum(
    const Ipv4Header& h, std::uint16_t checksum_value) {
  std::array<std::uint8_t, Ipv4Header::kSize> out{};
  out[0] = static_cast<std::uint8_t>((h.version << 4) | (h.ihl & 0x0f));
  out[1] = h.dscp_ecn;
  put_u16(&out[2], h.total_length);
  put_u16(&out[4], h.identification);
  put_u16(&out[6], h.flags_fragment);
  out[8] = h.ttl;
  out[9] = static_cast<std::uint8_t>(h.protocol);
  put_u16(&out[10], checksum_value);
  put_u32(&out[12], h.src.value());
  put_u32(&out[16], h.dst.value());
  return out;
}
}  // namespace

std::uint16_t Ipv4Header::compute_checksum() const {
  auto bytes = serialize_with_checksum(*this, 0);
  return internet_checksum(bytes.data(), bytes.size());
}

std::array<std::uint8_t, Ipv4Header::kSize> Ipv4Header::serialize() const {
  return serialize_with_checksum(*this, compute_checksum());
}

Ipv4Header Ipv4Header::parse(const std::uint8_t* data, std::size_t len) {
  if (len < kSize) throw std::invalid_argument("Ipv4Header::parse: short buffer");
  Ipv4Header h;
  h.version = data[0] >> 4;
  h.ihl = data[0] & 0x0f;
  if (h.version != 4) throw std::invalid_argument("Ipv4Header::parse: not IPv4");
  if (h.ihl < 5) {
    throw std::invalid_argument("Ipv4Header::parse: IHL " +
                                std::to_string(h.ihl) + " below 5");
  }
  if (h.header_bytes() > len) {
    throw std::invalid_argument("Ipv4Header::parse: IHL " +
                                std::to_string(h.ihl) + " exceeds " +
                                std::to_string(len) + " captured bytes");
  }
  h.dscp_ecn = data[1];
  h.total_length = get_u16(&data[2]);
  h.identification = get_u16(&data[4]);
  h.flags_fragment = get_u16(&data[6]);
  h.ttl = data[8];
  h.protocol = static_cast<Protocol>(data[9]);
  h.checksum = get_u16(&data[10]);
  h.src = Ipv4Address(get_u32(&data[12]));
  h.dst = Ipv4Address(get_u32(&data[16]));
  return h;
}

std::array<std::uint8_t, TcpHeaderLite::kSize> TcpHeaderLite::serialize() const {
  std::array<std::uint8_t, kSize> out{};
  put_u16(&out[0], src_port);
  put_u16(&out[2], dst_port);
  put_u32(&out[4], seq);
  put_u32(&out[8], ack);
  out[12] = 5 << 4;  // data offset: 5 words
  out[13] = flags;
  put_u16(&out[14], window);
  // checksum (16) and urgent pointer (18) left zero; L4 checksum requires the
  // pseudo-header and is out of the paper's header-generation scope.
  return out;
}

std::array<std::uint8_t, UdpHeaderLite::kSize> UdpHeaderLite::serialize() const {
  std::array<std::uint8_t, kSize> out{};
  put_u16(&out[0], src_port);
  put_u16(&out[2], dst_port);
  put_u16(&out[4], length);
  return out;
}

}  // namespace netshare::net
