#!/usr/bin/env python3
"""Repository benchmark: builds the sscor_perf package and runs one workload.

    python3 benchmark/run.py --workload watch_replay|live_wal|paper_eval \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
benchmark/CMakeLists.txt (the sscor libraries from src/, the benchmark
binary sscor_perf and trace_check) into .bench_build, or into
$CARGO_TARGET_DIR when that is set.  sscor_perf generates the workload's
inputs from the seed, repeats it for about S seconds, checks the outputs
outside the timed sections and reports each metric over the repetitions
(see benchmark/NOTES.md).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric with --trace 0 and every per-layer metric
with --trace 1 (0 for a layer the workload does not exercise).  The line
before it is the run's stamp (nproc, compiler, build type, git sha, source
digest, seed, offered rate).  A traced run also writes its spans as Chrome
trace JSON and validates them with trace_check.

Deterministic counts (packets accessed, verdict tallies and digest, rates)
must repeat exactly on every run of one seed and source tree: the first
run records them under <build>/ledger, later runs must match, and any
disagreement makes the run incorrect instead of being averaged.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("watch_replay", "live_wal", "paper_eval")

END_TO_END = {
    "packets_per_cpu_s": "1/s",
    "detections_per_cpu_s": "1/s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p99_ms": "ms",
    "drain_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "packets_accessed": "count",
    "detection_rate": "share",
    "true_negative_rate": "share",
}

PER_LAYER = {
    "flow.extract_upstreams_s": "s",
    "pcap.replay_load_s": "s",
    "stream.engine.construct_s": "s",
    "stream.durability.begin_fresh_s": "s",
    "stream.source.next_cpu_s": "s",
    "stream.source.next_wait_s": "s",
    "stream.source.backlog_max_packets": "count",
    "stream.source.reconnects": "count",
    "stream.frame.parse_mb_per_cpu_s": "MB/s",
    "stream.frame.quarantined_bytes": "count",
    "stream.frame.resyncs": "count",
    "stream.engine.route_cpu_s": "s",
    "stream.engine.flush_cpu_s": "s",
    "stream.engine.flushes": "count",
    "stream.engine.pair_updates_per_packet": "count",
    "stream.engine.early_verdict_share": "share",
    "stream.engine.late_packet_share": "share",
    "stream.engine.finish_cpu_s": "s",
    "stream.engine.drain_cpu_s": "s",
    "stream.engine.offline_decodes": "count",
    "stream.engine.peak_buffered_packets": "count",
    "stream.engine.peak_live_flows": "count",
    "stream.engine.restore_s": "s",
    "stream.durability.commit_us_p50": "us",
    "stream.durability.commit_us_p99": "us",
    "stream.durability.commits": "count",
    "stream.durability.wal_bytes": "count",
    "stream.durability.snapshot_ms_p50": "ms",
    "stream.durability.snapshot_ms_max": "ms",
    "stream.durability.snapshots": "count",
    "stream.durability.snapshot_bytes": "count",
    "stream.durability.resume_s": "s",
    "experiment.dataset_build_s": "s",
    "experiment.pair_wall_ms_p50": "ms",
    "experiment.pair_wall_ms_p99": "ms",
    "traffic.downstream_gen_cpu_s": "s",
    "matching.context_build_cpu_s": "s",
    "matching.context_builds": "count",
    "correlation.detect_cpu_s.greedy": "s",
    "correlation.detect_cpu_s.greedy_plus": "s",
    "correlation.detect_cpu_s.greedy_star": "s",
    "baselines.detect_cpu_s.basic": "s",
    "baselines.detect_cpu_s.zhang": "s",
    "correlation.packets_accessed.greedy": "count",
    "correlation.packets_accessed.greedy_plus": "count",
    "correlation.packets_accessed.greedy_star": "count",
    "baselines.packets_accessed.basic": "count",
    "baselines.packets_accessed.zhang": "count",
    "bench.feeder.lag_p99_ms": "ms",
    "bench.trace_overhead_share": "share",
    "bench.calibration_ms": "ms",
}

# Deterministic counts reported as end-to-end metrics; they must equal the
# ledger too (a change of any of them is a behaviour change, not noise).
EXACT_METRICS = ("packets_accessed", "detection_rate", "true_negative_rate")

CHILD_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then (re)builds the two targets; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the sscor sources (src/) are missing; nothing to build")
        return False
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.call(
        ["cmake", "--build", out_dir, "--target", "sscor_perf", "trace_check",
         "-j", jobs], stdout=sys.stderr) == 0


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in is not a git repository, so this names the code)."""
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def check_spans(out_dir, path):
    """trace_check must accept the file, and it must hold complete spans."""
    if subprocess.call([os.path.join(out_dir, "trace_check"), path],
                       stdout=sys.stderr) != 0:
        return "trace_check rejected " + path
    with open(path) as f:
        events = json.load(f).get("traceEvents", [])
    if not events or any(e.get("ph") != "X" or e.get("dur", -1) < 0
                         for e in events):
        return "span file has no complete spans"
    return None


def check_ledger(out_dir, key, exact):
    """First run of a (workload, seed, source) records its counts; every
    later run must reproduce them exactly."""
    ledger_dir = os.path.join(out_dir, "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, key + ".json")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(exact, f, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return []
    with open(path) as f:
        recorded = json.load(f)
    return ["%s: %s in the ledger, %s now" % (k, recorded.get(k), exact.get(k))
            for k in sorted(set(recorded) | set(exact))
            if recorded.get(k) != exact.get(k)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        log("run.py: build failed")
        return 1

    run_id = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work_dir = os.path.join(out_dir, "work", run_id)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    span_path = os.path.join(work_dir, "spans.json")
    command = [os.path.join(out_dir, "sscor_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--span-out", span_path]
    started = time.monotonic()
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: sscor_perf exceeded %d s" % CHILD_TIMEOUT_S)
        return 1
    if child.returncode != 0:
        log("run.py: sscor_perf exited with %d" % child.returncode)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    elapsed = time.monotonic() - started

    problems = list(result["errors"])
    if result["failed"] != 0:
        problems.append("%d of %d pair decisions failed"
                        % (result["failed"], result["attempted"]))
    if args.trace:
        problem = check_spans(out_dir, span_path)
        if problem:
            problems.append(problem)

    digest = source_digest()
    exact = dict(result["deterministic"])
    for name in EXACT_METRICS:
        exact["metric." + name] = repr(result["end_to_end"][name]["value"])
    problems += check_ledger(
        out_dir, "%s-%d-%s" % (args.workload, args.seed, digest[:16]), exact)

    wanted = PER_LAYER if args.trace else END_TO_END
    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for name, unit in wanted.items():
        if name in source:
            if source[name]["unit"] != unit:
                log("run.py: %s reported in %s, expected %s"
                    % (name, source[name]["unit"], unit))
                return 1
            metrics[name] = {"value": source[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            log("run.py: end-to-end metric %s missing" % name)
            return 1

    stamp = dict(result["stamp"])
    stamp.update({"workload": args.workload, "git_sha": git_sha(),
                  "source_sha256": digest, "seconds": str(args.seconds),
                  "trace": str(args.trace),
                  "wall_s": "%.1f" % elapsed})
    for problem in problems:
        log("run.py: " + problem)
    # Keep the record and the spans; drop the generated captures.
    for name in os.listdir(work_dir):
        if name != "spans.json":
            path = os.path.join(work_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    record = {"stamp": stamp, "problems": problems, "result": result}
    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
