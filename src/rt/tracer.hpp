// Method tracing (the Android Profiler role, paper §II-B1).
//
// The stock profiler stores every method *call* into a fixed user-specified
// buffer, which fills within seconds; Libspector's ART modification records
// each unique method only on its first invocation.  Both variants are
// implemented so the ablation bench can quantify the difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace libspector::rt {

/// Receives one event per method entry. App methods report their full type
/// signature, framework methods their frame name.
class MethodTracer {
 public:
  virtual ~MethodTracer() = default;

  virtual void onMethodEntry(std::string_view signature) = 0;

  /// A pooled keep-alive connection started carrying a new logical request
  /// (ordinal >= 1; the connect itself is ordinal 0 and not reported here).
  /// Default no-op so the stock tracers ignore it; core::MethodMonitor
  /// records these as the request-boundary artifact records.
  virtual void onRequestBoundary(std::uint64_t socketId, std::uint32_t ordinal,
                                 std::uint64_t timestampMs) {
    (void)socketId;
    (void)ordinal;
    (void)timestampMs;
  }

  /// The method trace file written at the end of an experiment: the list of
  /// recorded entries (semantics depend on the tracer variant).
  [[nodiscard]] virtual std::vector<std::string> traceFile() const = 0;

  /// Entries that could not be recorded (buffer exhaustion).
  [[nodiscard]] virtual std::size_t droppedCount() const noexcept = 0;
};

/// Stock behaviour: bounded buffer, records repeated calls, drops on overflow.
class RingBufferTracer final : public MethodTracer {
 public:
  explicit RingBufferTracer(std::size_t capacity);

  void onMethodEntry(std::string_view signature) override;
  [[nodiscard]] std::vector<std::string> traceFile() const override;
  [[nodiscard]] std::size_t droppedCount() const noexcept override { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<std::string> buffer_;
  std::size_t dropped_ = 0;
};

/// The paper's modification: one record per unique method, never drops.
///
/// Each unique entry is stored once, in first-invocation order; the
/// dedupe index is a flat open-addressing table of positions in that list
/// (no string of its own, no node per entry).
class UniqueMethodTracer final : public MethodTracer {
 public:
  void onMethodEntry(std::string_view signature) override;
  [[nodiscard]] std::vector<std::string> traceFile() const override;
  [[nodiscard]] std::size_t droppedCount() const noexcept override { return 0; }

  /// The trace file, moved out instead of copied; the tracer is left empty
  /// (no unique entries) for whatever it records next.
  [[nodiscard]] std::vector<std::string> takeTraceFile() noexcept;

  [[nodiscard]] std::size_t uniqueCount() const noexcept { return order_.size(); }
  [[nodiscard]] std::size_t totalEntries() const noexcept { return totalEntries_; }

 private:
  void growIndex();

  std::vector<std::string> order_;  // first-invocation order
  /// Open addressing, linear probing, power-of-two size, at most half
  /// full: 0 is a free slot, p names order_[p - 1].
  std::vector<std::uint32_t> index_;
  std::size_t totalEntries_ = 0;
};

}  // namespace libspector::rt
