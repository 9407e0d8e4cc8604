// Shared state of one benchmark run: arguments, host facts, the tracer, the
// metrics being collected and the correctness ledger.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/trace.hpp"
#include "trace.hpp"

namespace perfbench {

// Seed of the fixed private traces (the kCaida and kUgr16 presets) the
// workloads fit on. --seed drives every stream fed to the library after
// that: generation seeds, post-processing draws, served job seeds, the job
// order and the arrival schedule. Fixing the traces keeps the model under
// measurement the same from run to run.
inline constexpr std::uint64_t kTraceSeed = 42;

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;     // measuring budget of the timed part
  bool trace = false;
  std::string workdir;      // scratch space inside the checkout
  std::size_t threads = 1;  // thread budget: nproc

  Tracer* tracer = nullptr;

  std::map<std::string, Metric> e2e;    // end-to-end metrics
  std::map<std::string, Metric> layer;  // per-layer metrics (traced run)
  std::map<std::string, std::string> info;  // printed, not scored

  // Correctness ledger: every operation attempted, and the failed ones
  // (errors, sheds, expiries, seed fallbacks, output mismatches).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  // a non-empty list fails the run

  // Records one check; a failed check is a mismatch and a failed operation.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    mismatches.push_back(what);
    ++failed;
  }

  // Records a request for `requested` records that returned `got`. Each
  // requested record is one attempted operation and each missing record a
  // failed one, so a shortfall shows in `failed` and ok_frac. More records
  // than requested is a mismatch.
  void count_records(std::size_t requested, std::size_t got,
                     const std::string& what) {
    attempted += requested;
    failed += requested - std::min(requested, got);
    check(got <= requested, what + ": more records than requested");
  }
};

// Seconds since an arbitrary steady epoch.
double now_s();
// Peak resident set size of this process in MiB.
double peak_rss_mb();

// A disabled tracer: untraced runs pass it where spans would go.
Tracer& untraced_tracer();

// Workloads. Each fills run.e2e (untraced) or run.layer (traced pass).
void run_train_caida(Run& run);
void run_generate_ugr16(Run& run);
void run_serve_ugr16(Run& run);

// Traced passes: the workload's unit of work under spans plus its layer
// probes, filling run.layer. With `overhead`, one untraced unit runs first
// and trace.overhead_frac compares the two.
void trace_train_caida(Run& run, bool overhead);
void trace_generate_ugr16(Run& run, bool overhead);
void trace_serve_ugr16(Run& run, bool overhead);

// Kernel and GAN-step probes at the shapes train-caida dispatches on `real`.
void probe_kernels(Run& run, const netshare::net::PacketTrace& real);

}  // namespace perfbench
