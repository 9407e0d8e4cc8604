#include "net/netflow_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "net/parse_error.hpp"

namespace netshare::net {

namespace {
constexpr char kHeader[] =
    "start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,packets,"
    "bytes,label,attack_type";

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

[[noreturn]] void reject(const std::string& why, std::size_t line) {
  throw ParseError("netflow csv: " + why, line, ParseError::Unit::kLine);
}

[[noreturn]] void reject_field(const char* column, const std::string& value,
                               const std::string& why, std::size_t line) {
  reject(std::string(column) + " '" + value + "' " + why, line);
}

// A whole-field unsigned decimal in [0, max].
std::uint64_t parse_uint(const std::string& s, std::uint64_t max,
                         const char* column, std::size_t line) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec == std::errc::result_out_of_range || (ec == std::errc{} && v > max)) {
    reject_field(column, s, "exceeds " + std::to_string(max), line);
  }
  if (ec != std::errc{} || ptr != end) {
    reject_field(column, s, "is not an unsigned integer", line);
  }
  return v;
}

// A whole-field finite decimal (nan and inf are rejected).
double parse_finite(const std::string& s, const char* column,
                    std::size_t line) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    reject_field(column, s, "is not a number", line);
  }
  if (!std::isfinite(v)) reject_field(column, s, "is not finite", line);
  return v;
}

Protocol protocol_from_string(const std::string& s, std::size_t line) {
  if (s == "TCP") return Protocol::kTcp;
  if (s == "UDP") return Protocol::kUdp;
  if (s == "ICMP") return Protocol::kIcmp;
  reject_field("protocol", s, "is unknown", line);
}

FlowRecord parse_row(const std::vector<std::string>& f, std::size_t line) {
  constexpr std::uint64_t kMaxPort = 65535;
  FlowRecord r;
  r.start_time = parse_finite(f[0], "start_time", line);
  r.duration = parse_finite(f[1], "duration", line);
  if (r.duration < 0.0) reject_field("duration", f[1], "is negative", line);
  try {
    r.key.src_ip = Ipv4Address::parse(f[2]);
    r.key.dst_ip = Ipv4Address::parse(f[3]);
  } catch (const std::invalid_argument& e) {
    reject(e.what(), line);
  }
  r.key.src_port =
      static_cast<std::uint16_t>(parse_uint(f[4], kMaxPort, "src_port", line));
  r.key.dst_port =
      static_cast<std::uint16_t>(parse_uint(f[5], kMaxPort, "dst_port", line));
  r.key.protocol = protocol_from_string(f[6], line);
  const auto u64_max = std::numeric_limits<std::uint64_t>::max();
  r.packets = parse_uint(f[7], u64_max, "packets", line);
  r.bytes = parse_uint(f[8], u64_max, "bytes", line);
  if (f[9] != "0" && f[9] != "1") {
    reject_field("label", f[9], "is not 0 or 1", line);
  }
  r.is_attack = f[9] == "1";
  try {
    r.attack_type = attack_type_from_name(f[10]);
  } catch (const std::invalid_argument& e) {
    reject(e.what(), line);
  }
  return r;
}
}  // namespace

void write_netflow_csv(const FlowTrace& trace, std::ostream& out) {
  // Rows are formatted with std::to_chars into a local buffer, flushed with
  // out.write whenever less than one row of room is left. Doubles use
  // general format at 17 significant digits, which is the %.17g an
  // ostream gives at setprecision(17) in the classic locale, so the bytes
  // are those of `out << value` there (DESIGN.md §7).
  constexpr std::size_t kBufferBytes = 64 * 1024;
  constexpr std::size_t kMaxRowBytes = 256;  // a row needs at most ~160
  constexpr int kDigits = std::numeric_limits<double>::max_digits10;
  // Name text per enum value (both enums are one byte wide), so no row
  // builds a string.
  std::array<std::string, 256> protocols, attacks;
  for (std::size_t v = 0; v < protocols.size(); ++v) {
    protocols[v] = protocol_name(static_cast<Protocol>(v));
    attacks[v] = attack_type_name(static_cast<AttackType>(v));
  }
  std::vector<char> buf(kBufferBytes);
  char* const begin = buf.data();
  char* const end = begin + kBufferBytes;
  char* p = begin;
  const auto put_text = [&p](std::string_view s) {
    p = std::copy(s.begin(), s.end(), p);
  };
  const auto put_uint = [&p, end](std::uint64_t v) {
    p = std::to_chars(p, end, v).ptr;
  };
  const auto put_double = [&p, end](double v) {
    p = std::to_chars(p, end, v, std::chars_format::general, kDigits).ptr;
  };
  const auto put_ip = [&](Ipv4Address ip) {
    for (int i = 0; i < 4; ++i) {
      if (i > 0) *p++ = '.';
      put_uint(ip.octet(i));
    }
  };
  put_text(kHeader);
  *p++ = '\n';
  for (const auto& r : trace.records) {
    if (static_cast<std::size_t>(end - p) < kMaxRowBytes) {
      out.write(begin, p - begin);
      p = begin;
    }
    put_double(r.start_time);
    *p++ = ',';
    put_double(r.duration);
    *p++ = ',';
    put_ip(r.key.src_ip);
    *p++ = ',';
    put_ip(r.key.dst_ip);
    *p++ = ',';
    put_uint(r.key.src_port);
    *p++ = ',';
    put_uint(r.key.dst_port);
    *p++ = ',';
    put_text(protocols[static_cast<std::size_t>(r.key.protocol)]);
    *p++ = ',';
    put_uint(r.packets);
    *p++ = ',';
    put_uint(r.bytes);
    *p++ = ',';
    *p++ = r.is_attack ? '1' : '0';
    *p++ = ',';
    put_text(attacks[static_cast<std::size_t>(r.attack_type)]);
    *p++ = '\n';
  }
  out.write(begin, p - begin);
}

void write_netflow_csv_file(const FlowTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_netflow_csv_file: cannot open " + path);
  write_netflow_csv(trace, out);
}

FlowTrace read_netflow_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    reject("missing or unexpected header row", 1);
  }
  FlowTrace trace;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto f = split_csv_row(line);
    if (f.size() != 11) {
      reject("expected 11 columns, got " + std::to_string(f.size()), line_no);
    }
    trace.records.push_back(parse_row(f, line_no));
  }
  return trace;
}

FlowTrace read_netflow_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_netflow_csv_file: cannot open " + path);
  return read_netflow_csv(in);
}

}  // namespace netshare::net
