// In-memory span recorder for the traced run. Spans are recorded around
// calls into the library from the benchmark's own files; the library itself
// is not instrumented. With tracing off every call is a branch on a bool, so
// the untraced and traced runs execute the same benchmark code.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id),
        epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  std::uint64_t run_id() const { return run_id_; }

  // Opens a span and returns its id (0 when tracing is off). Thread-safe.
  std::uint64_t begin(std::string name, std::uint64_t parent = 0) {
    if (!enabled_) return 0;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.start = t;
    s.end = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Writes every span as one JSON document; returns false on an I/O error.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"run_id\": " << run_id_ << ", \"spans\": [";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_).count();
  }

  const bool enabled_;
  const std::uint64_t run_id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id i is spans_[i - 1]
};

// RAII span: opens on construction, closes on destruction or close().
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }
  void close() {
    tracer_.end(id_);
    id_ = 0;
  }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
