// Measurement plumbing shared by the benchmark workloads: clocks, order
// statistics, the per-run result record, the in-memory span recorder and
// the peak-RSS probe.  Everything here observes the library from outside;
// nothing is linked into the program under test.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sscor::perf {

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();

/// Monotonic wall clock in seconds since an arbitrary epoch.
double wall_s();

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Machine-speed calibration for CPU-bound timings.  On a shared machine
/// other load slows memory-bound code by up to half again, in spells that
/// last from seconds to minutes, while an ALU-only loop keeps its speed:
/// this is cache and memory contention, not clock speed, and no choice of
/// repetition (fastest, median, mean) removes a spell that covers a whole
/// run.  So every repetition is paired with one run of a fixed kernel whose
/// slowdown follows the same spells, and CPU-bound times are reported at
/// reference speed: scaled by kReferenceS over the run's mean kernel time.
/// The kernel is two memory-bound patterns the program is built from, with
/// no library code: std::sort of 1M seeded doubles, then building and
/// probing a std::unordered_map of 400K keys.  A change to the program
/// moves its own time and not the kernel's, so it shows in full.
class SpeedGauge {
 public:
  /// Nominal kernel time: a machine that runs the kernel in this many CPU
  /// seconds is the reference.
  static constexpr double kReferenceS = 0.3;

  /// Times one run of the kernel on the thread CPU clock.  Its buffers are
  /// freed again before it returns, so peak-RSS readings do not see them.
  void sample();
  /// Mean kernel time of the samples taken so far.
  double kernel_s() const { return mean(samples_); }
  /// Factor turning a CPU-bound time of this run into reference seconds.
  double scale() const { return kReferenceS / kernel_s(); }

 private:
  std::vector<double> samples_;
  std::uint64_t checksum_ = 0;  // keeps the probes from being optimised out
};

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS after
/// returning freed heap to the OS, so a following peak counts only what
/// the measured section allocates.  Returns false when the kernel refuses.
bool reset_peak_rss();
/// VmHWM of this process in MiB (0 when unreadable).
double peak_rss_mb();

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports back to run.py.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Non-pair failures (a check that could not run, a rep whose
  /// deterministic counts disagreed with the first rep's).
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Exact counts that must repeat on every run of one seed.
  std::map<std::string, std::string> deterministic;
  std::map<std::string, std::string> stamp;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// Adds `count` failed pair decisions with a reason for the log.
  void fail(std::uint64_t count, const std::string& why);
  std::string to_json() const;
};

/// Records a deterministic count of rep `rep`: the first rep sets it,
/// later reps must reproduce it exactly (a mismatch is an error).
void record_exact(RunResult& out, int rep, const std::string& name,
                  const std::string& value);

/// Chrome trace_event spans held in memory and written once at the end of
/// a traced run.  Disabled recorders cost one branch per span.  Used from
/// the measuring thread only.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (0 when disabled).  `parent` is the id
  /// of the span that caused it (0 = root).
  std::uint64_t begin(const char* name, const char* layer,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Writes {"traceEvents": [...]} with one "X" event per closed span.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    const char* layer = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start_s = 0.0;
    double end_s = -1.0;
    int tid = 0;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;
  double origin_s_ = -1.0;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, const char* layer,
             std::uint64_t parent = 0)
      : rec_(rec), id_(rec.begin(name, layer, parent)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Accumulates the wall time of repeated calls (per-packet calls are
/// aggregated, never given one span each).
struct CallTimer {
  double wall_s = 0.0;
  std::uint64_t calls = 0;
};

/// Formats a double with every significant digit (%.17g).
std::string exact(double value);

}  // namespace sscor::perf
