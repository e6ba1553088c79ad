// Shared main() scaffolding for the figure-reproduction bench binaries:
// command-line scaling flags, the standard header block, CSV output next to
// the binary, run-metrics reporting, and the paper-expectation footnote.

#pragma once

#include <string>

#include "sscor/experiment/sweep.hpp"

namespace sscor::experiment {

struct BenchOptions {
  ExperimentConfig config;
  std::string csv_path;      ///< empty: derive from the figure id
  bool full = false;         ///< --full: paper-scale FP pairs (all n*(n-1))
  bool metrics = false;      ///< --metrics: print the run-metrics table
  std::string metrics_json;  ///< --metrics-json=PATH: dump metrics as JSON
  std::string trace_path;    ///< --trace=PATH: decode-introspection JSONL
  std::string trace_spans_path;  ///< --trace-spans=PATH: Chrome trace JSON
  std::string checkpoint;    ///< --checkpoint=PATH: crash-safe point journal
  bool resume = false;       ///< --resume: replay the checkpoint first
};

/// Parses --flows=N --packets=N --fp-pairs=N --seed=N --threads=N --full
/// --csv=PATH --corpus=interactive|tcplib --metrics --metrics-json=PATH
/// --trace=PATH --trace-spans=PATH --checkpoint=PATH --resume.  Exits with
/// a usage message on bad flags.
BenchOptions parse_bench_options(int argc, char** argv,
                                 ExperimentConfig defaults = {});

/// Writes the current metrics snapshot as JSON to `path` (throws IoError on
/// failure) — how --metrics-json files are produced.
void write_metrics_json(const std::string& path);

/// Runs one figure sweep end to end: prints the header, runs with progress
/// on stderr, prints the table, writes the CSV, reports metrics when asked,
/// prints `expectation`.  Returns the process exit code.
int run_figure_bench(const std::string& figure_id, const std::string& title,
                     const BenchOptions& options, const SweepSpec& spec,
                     const std::string& expectation);

}  // namespace sscor::experiment
