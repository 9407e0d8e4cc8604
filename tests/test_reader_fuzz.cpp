// Fuzz smoke for the readers of untrusted files (the frame fuzz of
// test_resilience.cpp, extended to NetFlow CSV, pcap and snapshot files):
// seeded random byte strings plus every single-bit flip of a small valid
// file. Each input must parse or throw the reader's typed error
// (net::ParseError, ml::SnapshotError); any other exception escapes and
// fails the test, and asan catches memory errors. The largest single heap
// allocation a parse makes is bounded by a multiple of its input size (plus
// the pcap reader's fixed 64 KiB record bound), so no header field can make
// a reader allocate what the file does not hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "ml/serialize.hpp"
#include "net/netflow_io.hpp"
#include "net/pcap_io.hpp"

namespace {
// Largest single operator-new request while `g_watch` is set.
std::atomic<bool> g_watch{false};
std::atomic<std::size_t> g_largest{0};
}  // namespace

// Replacement operator new/delete pair (malloc/free); GCC mistakes the
// free() below for a mismatch with the library operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_watch.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace netshare {
namespace {

constexpr int kRandomInputs = 10000;
constexpr std::size_t kFixedAllowance = 64 * 1024 + 4096;

enum class Outcome { kParsed, kRejected };

// Runs `parse` on `bytes`; returns whether it parsed or threw `Error`. Any
// other exception propagates to gtest. Checks the allocation bound.
template <typename Error, typename Parse>
Outcome run_one(const std::string& bytes, const Parse& parse) {
  std::istringstream in(bytes);
  g_largest = 0;
  g_watch = true;
  Outcome outcome = Outcome::kParsed;
  try {
    parse(in);
  } catch (const Error&) {
    outcome = Outcome::kRejected;
  }
  g_watch = false;
  EXPECT_LE(g_largest.load(), 8 * bytes.size() + kFixedAllowance)
      << "input of " << bytes.size() << " bytes";
  return outcome;
}

struct Tally {
  std::size_t parsed = 0, rejected = 0;
  void add(Outcome o) { ++(o == Outcome::kParsed ? parsed : rejected); }
};

// 10k seeded random inputs of up to 512 bytes, each prefixed with a random
// slice of `valid` (so the structured readers get past their headers).
template <typename Error, typename Parse>
Tally fuzz_random(const std::string& valid, std::uint64_t seed,
                  const Parse& parse) {
  std::mt19937_64 rng(seed);
  Tally tally;
  for (int i = 0; i < kRandomInputs; ++i) {
    std::string bytes = valid.substr(0, rng() % (valid.size() + 1));
    const std::size_t extra = rng() % 513;
    for (std::size_t k = 0; k < extra; ++k) {
      bytes.push_back(static_cast<char>(rng()));
    }
    tally.add(run_one<Error>(bytes, parse));
  }
  return tally;
}

// Every single-bit flip of `valid`.
template <typename Error, typename Parse>
Tally fuzz_bit_flips(const std::string& valid, const Parse& parse) {
  Tally tally;
  for (std::size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string bytes = valid;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    tally.add(run_one<Error>(bytes, parse));
  }
  return tally;
}

net::FlowTrace small_flows() {
  net::FlowTrace t;
  for (int i = 0; i < 3; ++i) {
    net::FlowRecord r;
    r.key = {net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
             net::Ipv4Address(192, 168, 1, 7), static_cast<std::uint16_t>(4000 + i),
             443, i == 2 ? net::Protocol::kUdp : net::Protocol::kTcp};
    r.start_time = 1.25 * i;
    r.duration = 0.5;
    r.packets = 3 + i;
    r.bytes = 900 + i;
    r.is_attack = i == 1;
    r.attack_type = i == 1 ? net::AttackType::kDos : net::AttackType::kNone;
    t.records.push_back(r);
  }
  return t;
}

TEST(ReaderFuzz, NetflowCsvParsesOrThrowsParseError) {
  std::ostringstream os;
  net::write_netflow_csv(small_flows(), os);
  const std::string valid = os.str();
  const auto parse = [](std::istream& in) { net::read_netflow_csv(in); };
  const Tally random = fuzz_random<net::ParseError>(valid, 1, parse);
  const Tally flips = fuzz_bit_flips<net::ParseError>(valid, parse);
  EXPECT_GT(random.rejected, 0u);
  EXPECT_GT(flips.parsed, 0u);  // some flips only change a value
  EXPECT_GT(flips.rejected, 0u);
}

TEST(ReaderFuzz, PcapParsesOrThrowsParseError) {
  net::PacketTrace t;
  for (int i = 0; i < 3; ++i) {
    net::PacketRecord p;
    p.timestamp = 0.5 * i;
    p.key = {net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2),
             static_cast<std::uint16_t>(1000 + i), 80,
             i == 1 ? net::Protocol::kUdp : net::Protocol::kTcp};
    p.size = 60 + i;
    p.ttl = 64;
    t.packets.push_back(p);
  }
  std::ostringstream os;
  net::write_pcap(t, os);
  const std::string valid = os.str();
  const auto parse = [](std::istream& in) { net::read_pcap(in); };
  const Tally random = fuzz_random<net::ParseError>(valid, 2, parse);
  const Tally flips = fuzz_bit_flips<net::ParseError>(valid, parse);
  EXPECT_GT(random.rejected, 0u);
  EXPECT_GT(flips.parsed, 0u);
  EXPECT_GT(flips.rejected, 0u);
}

TEST(ReaderFuzz, SnapshotParsesOrThrowsSnapshotError) {
  const std::string path =
      ::testing::TempDir() + "reader_fuzz_" + std::to_string(::getpid());
  std::vector<double> weights(16);
  for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 0.25 * i;
  ml::save_snapshot_file(weights, path);
  std::string valid;
  {
    std::ifstream f(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(f), {});
  }
  std::remove(path.c_str());
  ASSERT_EQ(valid.size(), 8u + 4u + 8u + 16u * 8u + 4u);
  const auto parse = [](std::istream& in) { ml::load_snapshot(in, "fuzz"); };
  EXPECT_EQ(run_one<ml::SnapshotError>(valid, parse), Outcome::kParsed);
  // A header promising 2^61 doubles over a 4-byte payload.
  std::string huge = valid.substr(0, 12);
  huge.append("\x00\x00\x00\x00\x00\x00\x00\x20", 8);
  huge.append("abcd");
  EXPECT_EQ(run_one<ml::SnapshotError>(huge, parse), Outcome::kRejected);
  const Tally random = fuzz_random<ml::SnapshotError>(valid, 3, parse);
  const Tally flips = fuzz_bit_flips<ml::SnapshotError>(valid, parse);
  EXPECT_GT(random.rejected, 0u);
  // The CRC covers every byte, so every flip is rejected.
  EXPECT_EQ(flips.parsed, 0u);
  EXPECT_EQ(flips.rejected, valid.size() * 8);
}

}  // namespace
}  // namespace netshare
