// NetFlow-style CSV reader/writer (UGR16-like column layout).
#pragma once

#include <iosfwd>
#include <string>

#include "net/parse_error.hpp"
#include "net/trace.hpp"

namespace netshare::net {

// Columns: start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,
//          packets,bytes,label,attack_type
// Times are written with 17 significant digits (%.17g), so they read back
// exactly. The writer formats into its own buffer and leaves the stream's
// formatting state (precision, flags, locale) untouched.
void write_netflow_csv(const FlowTrace& trace, std::ostream& out);
void write_netflow_csv_file(const FlowTrace& trace, const std::string& path);

// Parses the format written by write_netflow_csv (header row required).
// Throws ParseError carrying the 1-based line number on a missing header, a
// wrong column count, or any bad field: a port above 65535, a non-finite
// start_time or duration, a negative duration, a count that is not an
// unsigned integer, an unknown protocol or attack type, a label other than
// 0/1, or a malformed address.
FlowTrace read_netflow_csv(std::istream& in);
FlowTrace read_netflow_csv_file(const std::string& path);

}  // namespace netshare::net
