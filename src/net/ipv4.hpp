// IPv4 addresses and header construction.
//
// Addresses are stored host-order in a strong type; headers are serialized
// network-order (big-endian) byte-exactly per RFC 791 so the pcap writer
// emits traces readable by tcpdump/wireshark.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace netshare::net {

// IP protocol numbers used throughout the library.
enum class Protocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

// Human-readable protocol name ("TCP", "UDP", "ICMP", or the number).
std::string protocol_name(Protocol p);

// Strongly-typed IPv4 address (host byte order).
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  constexpr std::uint32_t value() const { return value_; }
  constexpr std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  // Dotted-quad formatting / parsing.
  std::string to_string() const;
  static Ipv4Address parse(const std::string& dotted);

  // Address-class predicates used by the paper's validity Test 1 (App. B).
  constexpr bool is_multicast() const {  // 224.0.0.0/4
    return octet(0) >= 224 && octet(0) <= 239;
  }
  constexpr bool is_broadcast_prefix() const {  // 255.x.x.x
    return octet(0) == 255;
  }
  constexpr bool is_zero_prefix() const {  // 0.x.x.x
    return octet(0) == 0;
  }
  constexpr bool is_private() const {
    return octet(0) == 10 || (octet(0) == 172 && octet(1) >= 16 && octet(1) <= 31) ||
           (octet(0) == 192 && octet(1) == 168);
  }

  friend constexpr bool operator==(Ipv4Address a, Ipv4Address b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Ipv4Address a, Ipv4Address b) {
    return !(a == b);
  }
  friend constexpr bool operator<(Ipv4Address a, Ipv4Address b) {
    return a.value_ < b.value_;
  }

 private:
  std::uint32_t value_ = 0;
};

// IPv4 header. The paper excludes the options field: serialize() writes none,
// and parse() reads the fixed 20 bytes and skips any options by IHL.
struct Ipv4Header {
  std::uint8_t version = 4;
  std::uint8_t ihl = 5;  // 20-byte header
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint16_t flags_fragment = 0x4000;  // DF set, no fragmentation
  std::uint8_t ttl = 64;
  Protocol protocol = Protocol::kTcp;
  std::uint16_t checksum = 0;  // filled by serialize()/compute_checksum()
  Ipv4Address src;
  Ipv4Address dst;

  static constexpr std::size_t kSize = 20;

  // On-wire header length including options (IHL counts 32-bit words).
  std::size_t header_bytes() const { return std::size_t{ihl} * 4; }

  // Serializes to 20 network-order bytes, computing the header checksum.
  std::array<std::uint8_t, kSize> serialize() const;

  // Parses the fixed 20 bytes; throws std::invalid_argument on malformed
  // input: a short buffer, a version other than 4, an IHL below 5, or an
  // IHL·4 beyond `len`.
  static Ipv4Header parse(const std::uint8_t* data, std::size_t len);

  // RFC 1071 checksum over this header with the checksum field zeroed.
  std::uint16_t compute_checksum() const;

  // True iff the stored checksum equals the recomputed one.
  bool checksum_valid() const { return checksum == compute_checksum(); }
};

// Minimal L4 headers (the scope is the 5-tuple + sizes; deep TCP state is a
// documented non-goal of the paper).
struct TcpHeaderLite {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0x10;  // ACK
  std::uint16_t window = 65535;

  static constexpr std::size_t kSize = 20;
  std::array<std::uint8_t, kSize> serialize() const;
};

struct UdpHeaderLite {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 8;

  static constexpr std::size_t kSize = 8;
  std::array<std::uint8_t, kSize> serialize() const;
};

// Minimum valid on-wire IP packet sizes used by validity Tests 2/4:
// TCP: 20 (IP) + 20 (TCP) = 40 bytes; UDP: 20 (IP) + 8 (UDP) = 28 bytes.
constexpr std::uint32_t min_packet_size(Protocol p) {
  return p == Protocol::kUdp ? 28u : (p == Protocol::kTcp ? 40u : 28u);
}
constexpr std::uint32_t kMaxPacketSize = 65535;

}  // namespace netshare::net
