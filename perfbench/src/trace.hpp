// Benchmark-side spans: (name, start, end, parent) around every call the
// benchmark makes into a library layer, kept in memory and written out at
// exit. Off (one predicted branch per scope) in the untraced runs that
// produce the end-to-end metrics.
#pragma once

#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace pb {

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  void enable(bool on) { on_ = on; }

  /// Seconds since the tracer was created: the clock of every span and of
  /// the open-loop records, so both share one timeline.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - base_).count();
  }

  /// Opens a span and returns its id (-1 when tracing is off).
  int open(const char* name, int parent) {
    if (!on_) return -1;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }

  std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Chrome-trace JSON (complete events, microseconds) of every span, with
  /// the parent index kept in "args" so the tree survives the export.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    std::lock_guard<std::mutex> lock(mu_);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.t0 * 1e6
         << ",\"dur\":" << (s.t1 - s.t0) * 1e6 << ",\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]\n";
    return static_cast<bool>(os);
  }

  /// The span the calling thread is inside (-1 at top level).
  static int& current() {
    thread_local int cur = -1;
    return cur;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Tracer() = default;

  bool on_ = false;
  Clock::time_point base_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

/// RAII span. Nests under the calling thread's open span unless an explicit
/// parent (a span opened on another thread) is given.
class Scope {
 public:
  explicit Scope(const char* name) : Scope(name, Tracer::current()) {}
  Scope(const char* name, int parent)
      : id_(Tracer::instance().open(name, parent)), prev_(Tracer::current()) {
    if (id_ >= 0) Tracer::current() = id_;
  }
  ~Scope() {
    if (id_ < 0) return;
    Tracer::instance().close(id_);
    Tracer::current() = prev_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  int id_;
  int prev_;
};

}  // namespace pb
