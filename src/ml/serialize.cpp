#include "ml/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ml/health.hpp"

namespace netshare::ml {

namespace {

constexpr std::array<char, 8> kMagic = {'N', 'S', 'S', 'N', 'A', 'P', 'S', 'H'};
constexpr std::uint32_t kVersion = 1;

const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const std::uint32_t* table = crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<double> snapshot_parameters(const std::vector<Parameter*>& params) {
  std::vector<double> flat;
  snapshot_parameters_into(params, flat);
  return flat;
}

void snapshot_parameters_into(const std::vector<Parameter*>& params,
                              std::vector<double>& out) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->value.size();
  out.resize(total);
  std::size_t at = 0;
  for (const Parameter* p : params) {
    const std::vector<double>& data = p->value.data();
    std::copy(data.begin(), data.end(),
              out.begin() + static_cast<std::ptrdiff_t>(at));
    at += data.size();
  }
}

void restore_parameters(const std::vector<Parameter*>& params,
                        const std::vector<double>& snapshot) {
  // Validate every boundary before writing anything: a rejected snapshot
  // must never leave a partially restored model.
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->value.size();
  if (total != snapshot.size()) {
    std::ostringstream msg;
    msg << "restore_parameters: snapshot size mismatch: model expects "
        << total << " doubles across " << params.size()
        << " parameters, snapshot holds " << snapshot.size();
    std::size_t at = 0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const std::size_t size = params[i]->value.size();
      if (at + size > snapshot.size()) {
        msg << "; parameter " << i << " (" << params[i]->value.rows() << "x"
            << params[i]->value.cols() << ") spans doubles [" << at << ", "
            << at + size << ") past the snapshot end";
        break;
      }
      at += size;
    }
    throw std::invalid_argument(msg.str());
  }
  std::size_t at = 0;
  for (Parameter* p : params) {
    std::copy(snapshot.begin() + static_cast<std::ptrdiff_t>(at),
              snapshot.begin() + static_cast<std::ptrdiff_t>(at + p->value.size()),
              p->value.data().begin());
    at += p->value.size();
  }
}

void save_snapshot_file(const std::vector<double>& snapshot,
                        const std::string& path) {
  if (health::consume_snapshot_write_fault()) {
    throw SnapshotError(SnapshotError::Kind::kIo,
                        "save_snapshot_file: injected write fault for " + path);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError(SnapshotError::Kind::kIo,
                          "save_snapshot_file: cannot open " + tmp);
    }
    const std::uint64_t n = snapshot.size();
    std::uint32_t crc = crc32(kMagic.data(), kMagic.size());
    crc = crc32(&kVersion, sizeof kVersion, crc);
    crc = crc32(&n, sizeof n, crc);
    crc = crc32(snapshot.data(), n * sizeof(double), crc);
    out.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
    out.write(reinterpret_cast<const char*>(&kVersion), sizeof kVersion);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(snapshot.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw SnapshotError(SnapshotError::Kind::kIo,
                          "save_snapshot_file: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError(SnapshotError::Kind::kIo,
                        "save_snapshot_file: cannot rename " + tmp + " to " +
                            path);
  }
}

std::vector<double> load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError(SnapshotError::Kind::kIo,
                        "load_snapshot_file: cannot open " + path);
  }
  return load_snapshot(in, path);
}

std::vector<double> load_snapshot(std::istream& in, const std::string& name) {
  std::array<char, 8> magic{};
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  if (in.gcount() != static_cast<std::streamsize>(magic.size())) {
    throw SnapshotError(SnapshotError::Kind::kTruncated,
                        "load_snapshot: " + name +
                            " shorter than the 8-byte magic (" +
                            std::to_string(in.gcount()) + " bytes)");
  }
  if (std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0) {
    throw SnapshotError(SnapshotError::Kind::kBadMagic,
                        "load_snapshot: " + name +
                            " is not a NetShare snapshot (bad magic)");
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  if (in.gcount() != sizeof version) {
    throw SnapshotError(SnapshotError::Kind::kTruncated,
                        "load_snapshot: " + name + " truncated in header");
  }
  if (version != kVersion) {
    throw SnapshotError(SnapshotError::Kind::kBadVersion,
                        "load_snapshot: " + name + " has format version " +
                            std::to_string(version) + ", this build reads " +
                            std::to_string(kVersion));
  }
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (in.gcount() != sizeof n) {
    throw SnapshotError(SnapshotError::Kind::kTruncated,
                        "load_snapshot: " + name + " truncated in header");
  }
  // The count is untrusted: read the payload in bounded pieces, so memory
  // grows only with the bytes actually present.
  constexpr std::uint64_t kPiece = 8192;  // doubles per read
  std::vector<double> flat;
  while (flat.size() < n) {
    const std::size_t have = flat.size();
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kPiece, n - have));
    flat.resize(have + want);
    in.read(reinterpret_cast<char*>(flat.data() + have),
            static_cast<std::streamsize>(want * sizeof(double)));
    if (in.gcount() != static_cast<std::streamsize>(want * sizeof(double))) {
      throw SnapshotError(
          SnapshotError::Kind::kTruncated,
          "load_snapshot: " + name + " payload truncated: header promises " +
              std::to_string(n) + " doubles, file holds " +
              std::to_string(have + static_cast<std::size_t>(in.gcount()) /
                                        sizeof(double)));
    }
  }
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (in.gcount() != sizeof stored) {
    throw SnapshotError(SnapshotError::Kind::kTruncated,
                        "load_snapshot: " + name + " missing checksum");
  }
  std::uint32_t crc = crc32(kMagic.data(), kMagic.size());
  crc = crc32(&version, sizeof version, crc);
  crc = crc32(&n, sizeof n, crc);
  crc = crc32(flat.data(), flat.size() * sizeof(double), crc);
  if (crc != stored) {
    std::ostringstream msg;
    msg << "load_snapshot: " << name << " checksum mismatch: stored 0x"
        << std::hex << stored << ", computed 0x" << crc;
    throw SnapshotError(SnapshotError::Kind::kChecksum, msg.str());
  }
  return flat;
}

}  // namespace netshare::ml
