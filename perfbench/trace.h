// Span recording for the benchmark's traced run.
//
// Spans are taken in the benchmark's own code, around each call it makes
// into one of catmark's public functions — never inside the library. A span
// is named "<layer>.<call>" after the src/ module it enters (relation, core,
// crypto, ecc, service, common); the benchmark's own op and check spans use
// the layer name "bench". Spans stay in memory and are written out once,
// when the run ends.
#ifndef CATMARK_PERFBENCH_TRACE_H_
#define CATMARK_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace catmark::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the enclosing open span, or -1
    std::int64_t op = -1;      ///< timed op the span belongs to, -1 outside
    double value = 0.0;        ///< work count the call handled (bytes, keys)
  };

  Tracer();

  /// While disabled, Begin records nothing and returns -1.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Op id stamped on every span begun from now on (-1: set-up or probes).
  void set_op(std::int64_t op) { op_ = op; }

  /// Begin returns the span's index (-1 while disabled) for End/SetValue.
  int Begin(const char* name);
  void End(int index, double value);
  /// Sets the value of an ended span, for counts known only afterwards.
  void SetValue(int index, double value) {
    if (index >= 0) spans_[index].value = value;
  }

  std::size_t size() const { return spans_.size(); }
  std::size_t bytes() const { return spans_.capacity() * sizeof(Span); }

  /// Tab-separated: name, start_ns, end_ns, parent, op, value — one span a
  /// line, in begin order (so a parent always precedes its children).
  bool WriteTsv(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t op_ = -1;
  bool enabled_ = false;
};

/// RAII span: begins on construction, ends on destruction with the value
/// last given to set_value.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_, value_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(double value) { value_ = value; }

 private:
  Tracer& tracer_;
  int index_;
  double value_ = 0.0;
};

}  // namespace catmark::perfbench

#endif  // CATMARK_PERFBENCH_TRACE_H_
