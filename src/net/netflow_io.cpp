#include "net/netflow_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
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
  // Full round-trip precision for the time fields.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  for (const auto& r : trace.records) {
    out << r.start_time << ',' << r.duration << ',' << r.key.src_ip.to_string()
        << ',' << r.key.dst_ip.to_string() << ',' << r.key.src_port << ','
        << r.key.dst_port << ',' << protocol_name(r.key.protocol) << ','
        << r.packets << ',' << r.bytes << ',' << (r.is_attack ? 1 : 0) << ','
        << attack_type_name(r.attack_type) << '\n';
  }
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
