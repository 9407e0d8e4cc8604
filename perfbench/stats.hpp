// Statistics the benchmark computes from its own measurements: percentile
// selection, span self time, the open-loop arrival schedule, the served job
// mix and an output digest. Header-only and free of library dependencies so
// stats_test.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count); 0 for an
// empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The tail percentile a sample of this size supports: the highest of a
// fixed ladder of percentiles that leaves at least `min_beyond` samples
// strictly above its rank. A sample too small for any rung (fewer than 20
// samples at the default) supports no tail; it reports its median, with
// the samples beyond it, rather than a maximum that one slow sample sets.
struct TailPick {
  double percentile = 50.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the reported one
};

inline TailPick tail_percentile(std::vector<double> v,
                                std::size_t min_beyond = 10) {
  TailPick pick;
  pick.samples = v.size();
  if (v.empty()) return pick;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Per-mille rungs, so ranks are exact integer ceilings.
  static constexpr std::size_t kLadder[] = {999, 990, 980, 950, 900, 750, 500};
  for (const std::size_t pm : kLadder) {
    const std::size_t rank = std::max<std::size_t>(1, (pm * n + 999) / 1000);
    if (n - rank >= min_beyond) {
      pick.percentile = static_cast<double>(pm) / 10.0;
      pick.value = v[rank - 1];
      pick.beyond = n - rank;
      return pick;
    }
  }
  pick.value = median(v);
  pick.beyond = n / 2;
  return pick;
}

// One traced call: a named interval with the span that caused it
// (parent 0 = root). Times are seconds from the run's epoch.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
inline double covered_length(std::vector<std::pair<double, double>> iv,
                             double lo, double hi) {
  for (auto& [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_s = 0.0;
  double cur_e = 0.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// Self time per span name, summed over every span of that name: a span's
// duration minus the part of it covered by its children (overlapping
// children, e.g. parallel chunk parts, count once).
inline std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double self = s.end - s.start;
    const auto it = children.find(s.id);
    if (it != children.end()) self -= covered_length(it->second, s.start, s.end);
    out[s.name] += std::max(0.0, self);
  }
  return out;
}

// splitmix64: the benchmark's own portable generator, so schedules and job
// mixes are identical across standard libraries for the same seed.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform double in (0, 1].
inline double unit_open(std::uint64_t& state) {
  return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

// Open-loop Poisson arrivals: `count` send offsets in seconds from the
// phase start, with exponential gaps of mean 1/rate. Pure in (rate, count,
// seed); non-decreasing.
inline std::vector<double> open_loop_schedule(double rate, std::size_t count,
                                              std::uint64_t seed) {
  std::vector<double> due(count);
  std::uint64_t state = seed;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(unit_open(state)) / rate;
    due[i] = t;
  }
  return due;
}

// One served request of the job mix.
struct JobSpec {
  std::size_t tenant = 0;  // 0..3; tenant 3 sends the large jobs
  std::size_t records = 0;
};

// Records per job of the small, medium and large classes.
inline constexpr std::size_t kJobClassRecords[3] = {256, 1024, 8192};
inline constexpr const char* kJobClassNames[3] = {"small", "medium", "large"};

// Heavy-tailed mix in blocks of 20 jobs: 16 small (tenants 0..2), 3 medium
// (tenants 0..2), 1 large (tenant 3), so 5% of the jobs carry over half of
// the records. The sizes and proportions are an assumption: no measured
// trace of served job sizes backs them. Every block holds exactly this multiset in a seeded order,
// so the offered work per job is the same for every seed.
inline std::vector<JobSpec> job_mix(std::size_t count, std::uint64_t seed) {
  std::vector<JobSpec> jobs;
  jobs.reserve(count + 20);
  std::uint64_t state = seed ^ 0x5bd1e9955bd1e995ULL;
  std::size_t small_tenant = 0;
  while (jobs.size() < count) {
    std::vector<JobSpec> block;
    for (int i = 0; i < 16; ++i) block.push_back({small_tenant++ % 3, kJobClassRecords[0]});
    for (int i = 0; i < 3; ++i) block.push_back({small_tenant++ % 3, kJobClassRecords[1]});
    block.push_back({3, kJobClassRecords[2]});
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      const std::size_t j = splitmix64(state) % (i + 1);
      std::swap(block[i], block[j]);
    }
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  jobs.resize(count);
  return jobs;
}

// Mean records per job of the mix (one full block).
inline double job_mix_mean_records() {
  return (16.0 * kJobClassRecords[0] + 3.0 * kJobClassRecords[1] +
          1.0 * kJobClassRecords[2]) / 20.0;
}

// FNV-1a 64-bit digest, chained through `h`.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
