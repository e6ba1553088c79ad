// Run metrics: named monotonic counters and accumulated wall-clock timers.
//
// The experiment harness needs a perf trajectory — how many flows were
// generated, how many detector runs executed, how many packets the
// correlators accessed, and how long each phase took — without threading a
// context object through every layer.  A process-wide registry of named
// atomic counters/timers does that: any layer bumps its counter, the bench
// front ends snapshot the registry and print it as a table or dump it as
// JSON (--metrics / --metrics-json).
//
// Counters and timers are thread-safe (relaxed atomics; totals are exact,
// order-independent integers).  The registry hands out references that stay
// valid for the process lifetime, so hot paths pay one hash lookup at setup
// and one fetch_add per event.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sscor/util/gauge.hpp"
#include "sscor/util/histogram.hpp"
#include "sscor/util/table.hpp"

namespace sscor::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock time over any number of scoped measurements.
class TimerStat {
 public:
  void add_micros(std::int64_t us) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_us_.fetch_add(us, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double total_seconds() const {
    return static_cast<double>(total_us_.load(std::memory_order_relaxed)) /
           1e6;
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    total_us_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> total_us_{0};
};

/// Returns the counter / timer / histogram / gauge registered under
/// `name`, creating it on first use.  References remain valid for the
/// process lifetime.
Counter& counter(const std::string& name);
TimerStat& timer(const std::string& name);
Histogram& histogram(const std::string& name);
Gauge& gauge(const std::string& name);

/// A family of counters named `prefix + name_of(i)` for i < N — one per
/// value of a small enum.  Each is registered on its first use (so the
/// registry lists exactly the names it would without the family) and held
/// afterwards: a hot path indexes an array instead of building a name and
/// locking the registry.  Thread-safe; meant to live as a function-local
/// static.
template <std::size_t N>
class CounterFamily {
 public:
  using NameOf = std::string (*)(std::size_t);
  CounterFamily(std::string prefix, NameOf name_of)
      : prefix_(std::move(prefix)), name_of_(name_of) {}

  Counter& operator[](std::size_t i) {
    std::call_once(registered_[i],
                   [&] { held_[i] = &counter(prefix_ + name_of_(i)); });
    return *held_[i];
  }

 private:
  std::string prefix_;
  NameOf name_of_;
  std::array<std::once_flag, N> registered_;
  std::array<Counter*, N> held_{};
};

/// RAII wall-clock measurement added to timer(name) on destruction.  The
/// clock is std::chrono::steady_clock (never wall time, which can step) and
/// the recording happens on unwind, so a scope that exits by exception is
/// still measured.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& name) : ScopedTimer(timer(name)) {}
  /// Over a held reference: no registry lookup on the hot path.
  explicit ScopedTimer(TimerStat& stat)
      : stat_(stat), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() noexcept {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    stat_.add_micros(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerStat& stat_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of every registered counter and timer, sorted by
/// name so output is stable across runs and thread schedules.
struct Snapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct TimerEntry {
    std::string name;
    std::uint64_t count = 0;
    double seconds = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramData data;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  std::vector<CounterEntry> counters;
  std::vector<TimerEntry> timers;
  std::vector<HistogramEntry> histograms;
  std::vector<GaugeEntry> gauges;

  /// Renders all sections as one table
  /// (kind | name | count | value | p50 | p95 | p99); the percentile
  /// columns are filled for histograms (value = mean) and empty otherwise.
  TextTable to_table() const;
  /// {"counters": {name: value...}, "timers": {name: {count, seconds}...},
  ///  "histograms": {name: {count, sum, mean, p50, p95, p99, max}...},
  ///  "gauges": {name: value...}}
  std::string to_json() const;
};

Snapshot snapshot();

/// Zeroes every registered counter and timer (test isolation; references
/// stay valid).
void reset();

}  // namespace sscor::metrics
