// Checks the benchmark's own statistics: percentile selection, span self
// time, the open-loop schedule and the job mix. Exits nonzero on failure.
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_median() {
  using perfbench::median;
  expect(median({}) == 0.0, "median of empty is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  auto p = tail_percentile(v);
  expect(p.percentile == 99.0 && p.value == 990.0 && p.beyond == 10,
         "1000 samples: p99 = 990 with exactly 10 beyond");
  v.resize(999);
  p = tail_percentile(v);
  expect(p.percentile == 98.0 && p.beyond >= 10,
         "999 samples: p99 leaves 9 beyond, so p98 is reported");
  std::vector<double> big(20000);
  std::iota(big.begin(), big.end(), 1.0);
  p = tail_percentile(big);
  expect(p.percentile == 99.9 && p.value == 19980.0, "20000 samples: p99.9");
  p = tail_percentile({5.0, 1.0, 3.0, 100.0});
  expect(p.percentile == 50.0 && p.value == 4.0 && p.beyond == 2,
         "a sample too small for a tail reports its median");
  std::vector<double> shuffled{9, 2, 7, 4, 5, 6, 3, 8, 1, 10, 20, 11, 19, 12,
                               18, 13, 17, 14, 16, 15};
  p = tail_percentile(shuffled);
  expect(p.percentile == 50.0 && p.value == 10.0 && p.beyond == 10,
         "20 unsorted samples: median with 10 beyond");
}

void test_self_times() {
  using perfbench::Span;
  // root [0,10) with children a [1,4) and b [3,6) overlapping, and a
  // grandchild of a at [2,3). c [8,12) sticks out of the root.
  const std::vector<Span> spans = {
      {1, 0, "root", 0.0, 10.0}, {2, 1, "a", 1.0, 4.0},
      {3, 1, "b", 3.0, 6.0},     {4, 2, "g", 2.0, 3.0},
      {5, 1, "c", 8.0, 12.0},    {6, 0, "a", 20.0, 21.0}};
  const auto self = perfbench::self_times(spans);
  // root: 10 - |[1,6) u [8,10)| = 10 - 7 = 3
  expect(near(self.at("root"), 3.0), "root self time excludes child union");
  // a: (3 - 1) + 1 (second root-level a)
  expect(near(self.at("a"), 3.0), "self time sums spans of one name");
  expect(near(self.at("b"), 3.0), "leaf self time is its duration");
  expect(near(self.at("g"), 1.0), "grandchild");
  expect(near(self.at("c"), 4.0), "child outside parent keeps its own time");
  expect(near(perfbench::covered_length({{0, 1}, {2, 3}, {2.5, 4}}, 0, 10), 3.0),
         "interval union");
}

void test_open_loop_schedule() {
  using perfbench::open_loop_schedule;
  const auto a = open_loop_schedule(100.0, 20000, 7);
  const auto b = open_loop_schedule(100.0, 20000, 7);
  const auto c = open_loop_schedule(100.0, 20000, 8);
  expect(a == b, "schedule is pure in (rate, count, seed)");
  expect(a != c, "another seed gives another schedule");
  bool monotone = a.front() > 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) monotone &= a[i] >= a[i - 1];
  expect(monotone, "due times are positive and non-decreasing");
  // 20000 arrivals at 100/s span ~200 s; the mean gap is within 3%.
  expect(std::fabs(a.back() / 20000.0 - 0.01) < 0.0003, "mean gap is 1/rate");
  std::size_t short_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) short_gaps += a[i] - a[i - 1] < 0.01;
  // Exponential gaps: P(gap < mean) = 1 - 1/e ~ 0.632.
  expect(std::fabs(static_cast<double>(short_gaps) / 19999.0 - 0.632) < 0.02,
         "gaps are exponential");
}

void test_job_mix() {
  const auto jobs = perfbench::job_mix(2000, 3);
  double records = 0;
  std::map<std::size_t, std::size_t> per_size;
  bool large_on_tenant3 = true;
  for (const auto& j : jobs) {
    records += static_cast<double>(j.records);
    ++per_size[j.records];
    large_on_tenant3 &=
        (j.records == perfbench::kJobClassRecords[2]) == (j.tenant == 3);
  }
  expect(per_size[perfbench::kJobClassRecords[0]] == 1600 &&
             per_size[perfbench::kJobClassRecords[1]] == 300 &&
             per_size[perfbench::kJobClassRecords[2]] == 100,
         "every block of 20 holds 16/3/1 jobs");
  expect(near(records / 2000.0, perfbench::job_mix_mean_records()),
         "mean records per job is seed-independent");
  expect(large_on_tenant3, "only tenant 3 sends large jobs");
  const auto other = perfbench::job_mix(2000, 4);
  bool same_order = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    same_order &= jobs[i].records == other[i].records;
  }
  expect(!same_order, "the seed shuffles the order");
}

}  // namespace

int main() {
  test_median();
  test_tail_percentile();
  test_self_times();
  test_open_loop_schedule();
  test_job_mix();
  if (failures == 0) std::printf("perfbench stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
