// Typed error for malformed trace input, shared by the pcap and NetFlow CSV
// readers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace netshare::net {

// offset() locates the rejected field or record: a byte offset from the
// start of the stream for binary input (pcap), a 1-based line number for
// text input (NetFlow CSV); unit() says which.
class ParseError : public std::runtime_error {
 public:
  enum class Unit { kByte, kLine };
  ParseError(const std::string& what, std::uint64_t offset,
             Unit unit = Unit::kByte)
      : std::runtime_error(what +
                           (unit == Unit::kLine ? " (at line " : " (at byte ") +
                           std::to_string(offset) + ")"),
        offset_(offset),
        unit_(unit) {}
  std::uint64_t offset() const { return offset_; }
  Unit unit() const { return unit_; }

 private:
  std::uint64_t offset_;
  Unit unit_;
};

}  // namespace netshare::net
