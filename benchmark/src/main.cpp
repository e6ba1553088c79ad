// sscor_perf — runs one benchmark workload and prints its result as one
// JSON object on stdout (progress goes to stderr).
//
//   sscor_perf --workload watch_replay|live_wal|paper_eval --seed N
//              --seconds S --trace 0|1 --work-dir DIR [--span-out PATH]
//
// run.py builds this binary, calls it once per benchmark run, validates
// the span file and turns the result into the benchmark's last line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace sscor::perf;

int usage() {
  std::fprintf(stderr,
               "usage: sscor_perf --workload watch_replay|live_wal|paper_eval "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--span-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace") ||
      !args.count("--work-dir")) {
    return usage();
  }
  try {
    WorkloadOptions options;
    options.seed = std::stoull(args["--seed"]);
    options.seconds = std::stod(args["--seconds"]);
    options.trace = args["--trace"] == "1";
    options.work_dir = args["--work-dir"];
    options.span_path = args.count("--span-out") ? args["--span-out"] : "";
    if (options.trace && options.span_path.empty()) return usage();

    const std::string& workload = args["--workload"];
    RunResult result;
    if (workload == "watch_replay") {
      result = run_watch_replay(options);
    } else if (workload == "live_wal") {
      result = run_live_wal(options);
    } else if (workload == "paper_eval") {
      result = run_paper_eval(options);
    } else {
      return usage();
    }
    result.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
    result.stamp["compiler"] = SSCOR_PERF_COMPILER;
    result.stamp["build_type"] = SSCOR_PERF_BUILD_TYPE;
    result.stamp["seed"] = std::to_string(options.seed);
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sscor_perf: %s\n", e.what());
    return 1;
  }
}
