// The three benchmark workloads.  Each generates its inputs from the seed,
// measures for about `seconds` of repetitions, checks the outputs outside
// the timed sections and returns means over its repetitions, with CPU-bound
// times at reference machine speed (SpeedGauge).

#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"

namespace sscor::perf {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Add one traced repetition and report the per-layer ledger.
  bool trace = false;
  /// Scratch directory for generated captures and state dirs.
  std::string work_dir;
  /// Where a traced run writes its Chrome trace JSON.
  std::string span_path;
};

RunResult run_watch_replay(const WorkloadOptions& options);
RunResult run_live_wal(const WorkloadOptions& options);
RunResult run_paper_eval(const WorkloadOptions& options);

}  // namespace sscor::perf
