// Flat parameter (de)serialization — the mechanism behind NetShare's
// fine-tuning warm starts (Insights 3 and 4): train a seed model, snapshot
// its parameters, load them into per-chunk models before fine-tuning.
//
// On-disk snapshot format v1 (DESIGN.md §9), little-endian:
//   [8]  magic  "NSSNAPSH"
//   [4]  u32    version (= 1)
//   [8]  u64    count (number of doubles)
//   [8n] f64    payload
//   [4]  u32    CRC32 over everything above (IEEE, poly 0xEDB88320)
// Files are written to <path>.tmp and atomically renamed into place, so a
// crash mid-write never leaves a half-written file under the final name;
// load rejects truncated / corrupted / foreign files with a typed error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/layers.hpp"

namespace netshare::ml {

// Typed snapshot-file failure. Derives from std::runtime_error so callers
// that only care about "load failed" keep working; kind() distinguishes the
// corruption modes for recovery policy and tests.
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,          // cannot open / write / rename
    kTruncated,   // file shorter than its header promises (incl. zero-length)
    kBadMagic,    // not a snapshot file (or pre-v1 raw format)
    kBadVersion,  // snapshot format version this build does not understand
    kChecksum,    // payload bytes do not match the stored CRC32
  };
  SnapshotError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320). `seed` chains calls:
// pass the previous return value to continue a running checksum.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

// Concatenates all parameter values into one flat vector.
std::vector<double> snapshot_parameters(const std::vector<Parameter*>& params);

// Same, into a caller-owned buffer (resized; capacity reused on repeat
// calls, so steady-state callers like the rollback checkpoint never
// reallocate).
void snapshot_parameters_into(const std::vector<Parameter*>& params,
                              std::vector<double>& out);

// Loads a snapshot produced by snapshot_parameters into an identically-shaped
// parameter list. Validates the total size and every per-parameter boundary
// BEFORE writing anything, so a mismatched snapshot never leaves a partially
// restored model; throws std::invalid_argument naming the offending
// parameter with expected/actual sizes.
void restore_parameters(const std::vector<Parameter*>& params,
                        const std::vector<double>& snapshot);

// Durable snapshot file round trip (format at the top of this header).
// save: temp-file + atomic rename; throws SnapshotError(kIo) on any write
// failure (the temp file is removed). load: throws SnapshotError with the
// matching Kind on open failure, truncation, foreign magic, unknown
// version, or checksum mismatch.
void save_snapshot_file(const std::vector<double>& snapshot,
                        const std::string& path);
std::vector<double> load_snapshot_file(const std::string& path);
// The load half on any stream (`name` labels errors). Memory grows with the
// payload bytes actually read, never with the header's untrusted count.
std::vector<double> load_snapshot(std::istream& in, const std::string& name);

}  // namespace netshare::ml
