// Span recorder for the traced pass.
//
// The traced pass is serial: one thread at a time runs inside a span (a
// dispatcher worker, a shard consumer the worker is blocked on, or the
// main thread), so one process-wide span stack gives the parent of every span
// even when the child runs on another thread than its parent. Spans are
// kept in memory and summarized when the pass ends. A span's self time is
// its duration minus the durations of its direct children.
//
// While the recorder is disabled every call is a no-op, so the same
// pipeline code is the untraced twin.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double inclusiveMs = 0.0;
    double selfMs = 0.0;
    std::uint64_t allocs = 0;  // inclusive of children
  };

  /// Start recording; spans are tagged with the current phase.
  void enable();
  void disable();
  /// Forget every recorded span (between traced rounds).
  void reset();
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void setPhase(std::string phase);

  void begin(const char* name);
  /// Ends the innermost open span, which must be `name`.
  void end(const char* name);

  /// Per (phase, name) sums over every closed span.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>, Totals>&
  totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] Totals get(const std::string& phase,
                           const std::string& name) const;
  /// Sum of the durations of spans that had no parent, per phase.
  [[nodiscard]] double rootMs(const std::string& phase) const;
  /// Spans whose end did not match the innermost open span (a bug in the
  /// benchmark's instrumentation; reported, never silently dropped).
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }
  [[nodiscard]] std::size_t openSpans() const;

 private:
  struct Open {
    const char* name;
    std::chrono::steady_clock::time_point start;
    std::uint64_t allocStart;
    double childMs;
  };

  bool enabled_ = false;
  std::string phase_;
  mutable std::mutex mutex_;
  std::vector<Open> stack_;
  std::map<std::pair<std::string, std::string>, Totals> totals_;
  std::map<std::string, double> rootMs_;
  std::uint64_t mismatches_ = 0;
};

/// The recorder the workloads report into.
Tracer& tracer();

/// RAII span on the global recorder.
class Span {
 public:
  explicit Span(const char* name) : name_(name) { tracer().begin(name_); }
  ~Span() { tracer().end(name_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
};

/// A span opened late by start() and closed by the destructor — placed
/// first in a scope, it times the destruction of everything declared after
/// it.
class LateSpan {
 public:
  explicit LateSpan(const char* name) : name_(name) {}
  ~LateSpan() {
    if (started_) tracer().end(name_);
  }
  LateSpan(const LateSpan&) = delete;
  LateSpan& operator=(const LateSpan&) = delete;

  void start() {
    tracer().begin(name_);
    started_ = true;
  }

 private:
  const char* name_;
  bool started_ = false;
};

}  // namespace perfbench
