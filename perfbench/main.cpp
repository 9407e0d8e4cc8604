// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <train-caida|generate-ugr16|serve-ugr16>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 runs the traced pass of every workload (spans around each layer
// call, layer probes) and reports the per-layer metrics, the self time of
// every span name, and the tracing overhead on the named workload. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}; the
// line before it records the host class. Exits 1 on any correctness
// mismatch, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "ml/kernels.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer& untraced_tracer() {
  static Tracer off(false, 0);
  return off;
}

namespace {

// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-caida|generate-ugr16|serve-ugr16> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      run.workload = val;
    } else if (key == "--seed") {
      run.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      run.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      run.trace = val == "1";
    } else if (key == "--workdir") {
      run.workdir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (run.workload != "train-caida" && run.workload != "generate-ugr16" &&
      run.workload != "serve-ugr16") {
    return usage("unknown or missing --workload");
  }
  if (!have_seed || run.seconds <= 0 || run.workdir.empty()) {
    return usage("missing --seed, --seconds or --workdir");
  }
  run.workdir += "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(run.workdir);

  run.threads = nproc();
  Tracer tracer(run.trace, run.seed * 1000003ULL + static_cast<std::uint64_t>(::getpid()));
  run.tracer = &tracer;

  const auto tier = netshare::ml::kernels::active_tier();
  std::string trace_path;
  try {
    if (!run.trace) {
      if (run.workload == "train-caida") run_train_caida(run);
      if (run.workload == "generate-ugr16") run_generate_ugr16(run);
      if (run.workload == "serve-ugr16") run_serve_ugr16(run);
    } else {
      trace_train_caida(run, run.workload == "train-caida");
      trace_generate_ugr16(run, run.workload == "generate-ugr16");
      trace_serve_ugr16(run, run.workload == "serve-ugr16");
      const std::vector<Span> spans = tracer.spans();
      for (const auto& [name, self] : self_times(spans)) {
        run.layer["self_s." + name] = {self, "s"};
      }
      run.layer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
      trace_path = std::filesystem::path(run.workdir).parent_path() /
                   ("spans-" + run.workload + "-" + std::to_string(run.seed) +
                    ".json");
      if (!tracer.write_json(trace_path)) {
        run.check(false, "cannot write " + trace_path);
      }
    }
  } catch (const std::exception& e) {
    run.check(false, std::string("exception: ") + e.what());
    ++run.attempted;
  }
  std::error_code ec;
  std::filesystem::remove_all(run.workdir, ec);

  if (!run.trace) {
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(1, run.attempted));
    run.e2e["ok_frac"] = {
        (attempted - static_cast<double>(run.failed)) / attempted, "frac"};
    run.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }

  for (const std::string& m : run.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", m.c_str());
  }
  // Host class and run facts (not scored).
  std::cout << "{\"host\": {\"nproc\": " << run.threads
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ", \"simd_tier\": "
            << json_string(tier == netshare::ml::kernels::SimdTier::kAvx2
                               ? "avx2"
                               : "scalar")
            << ", \"thread_budget\": " << run.threads
            << ", \"kernel_threads\": "
            << netshare::ml::kernels::effective_threads() << "}, \"workload\": "
            << json_string(run.workload) << ", \"run_id\": " << tracer.run_id();
  if (!trace_path.empty()) std::cout << ", \"spans\": " << json_string(trace_path);
  for (const auto& [k, v] : run.info) {
    std::cout << ", " << json_string(k) << ": " << json_string(v);
  }
  std::cout << "}\n";

  const bool correct = run.mismatches.empty();
  const auto& metrics = run.trace ? run.layer : run.e2e;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, run.attempted)
            << ", \"failed\": " << run.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
              << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
              << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
