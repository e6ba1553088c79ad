#!/usr/bin/env bash
# Full verification entry point (documented in README "Testing"):
#
#   1. check that no production code (src/sscor/ outside the scalar
#      runners' own files and fuzz/, tools/, examples/) calls a scalar
#      run_* reference runner — every production decode goes through
#      MatchContext + BatchDecoder (DESIGN.md §13) — then configure + build
#      the default (RelWithDebInfo) tree and run the whole ctest suite —
#      the tier-1 gate;
#   2. configure + build a ThreadSanitizer tree (-DSSCOR_SANITIZE=thread,
#      tests only) and run the concurrency smoke tests — including the
#      trace/histogram recording tests and the streaming engine's
#      multi-shard ingest stress (StreamStress) — which must report zero
#      races;
#   3. configure + build an ASan/UBSan tree
#      (-DSSCOR_SANITIZE=address,undefined) and run the match-context and
#      batch-kernel suites under it — scalar reference run_* ≡ batched
#      decode over a context built per detect or shared, including the
#      multi-hypothesis key scan (BatchKernelIntegration) — plus the
#      parallel-determinism tests;
#   4. trace smoke: drive sscor_tool generate -> embed -> perturb -> detect
#      with --trace/--trace-spans and validate both outputs with
#      trace_check (strict JSON / JSONL parsing);
#   5. fuzz smoke: run the deterministic differential fuzzer (sscor_fuzz)
#      under the ASan/UBSan build for a fixed iteration budget with the
#      checked-in corpus, then replay every regression artifact.  Any
#      oracle violation or sanitizer report fails the run; new violations
#      are written as --replay artifacts (see DESIGN.md §10);
#   6. chaos harness: >= 1000 deterministic seeded fault injections
#      (self-cancelling tokens, pre-expired deadlines, allocation
#      failures, mid-sweep aborts, checkpoint tampering) through the
#      resilience oracles (resilient_parity / chaos_decode / chaos_sweep)
#      under ASan/UBSan, plus a CLI kill -9 + --resume round trip.  The
#      contract: clean error or correct result, never corruption
#      (DESIGN.md §11);
#   7. streaming smoke: 1000 stream_parity oracle iterations under
#      ASan/UBSan (incremental == batch, byte for byte — DESIGN.md §12),
#      then an end-to-end `sscor_tool watch` replay of a generated corpus
#      capture with --metrics-json/--trace-spans, both outputs validated
#      with trace_check (verdicts across shard and thread counts are
#      pinned by StreamParity.ThreadCountNeverAffectsVerdicts in step 1);
#   8. batched decode kernel: 600 batch_parity oracle iterations under
#      ASan/UBSan (scalar reference run_* vs batched SoA decode
#      byte-identical for every correlator, cost included — DESIGN.md §13);
#   9. live ops surface: run `sscor_tool watch --stats-addr 127.0.0.1:0
#      --event-log`, scrape /metrics (strict Prometheus 0.0.4 validation
#      via trace_check --prom --fetch), /statusz and /healthz (strict
#      JSON), render one `sscor_tool top` frame against the live daemon,
#      validate the event log as JSONL, and assert the stdout verdict
#      stream is byte-identical with telemetry on vs off at shard counts
#      1 and 8 (the observer-only contract — DESIGN.md §14);
#  10. cluster sweep: 400 journal_merge oracle iterations under ASan/UBSan
#      (tampered shard directories merge byte-identically or fail with a
#      clean IoError), then a real 4-shard `sweep --shard i/N` run with
#      one worker kill -9'd mid-run, resumed, merged via
#      `merge-journals`, and cmp'd against the serial table
#      (DESIGN.md §15).
#  11. live-feed daemon: 1000 frame_parser oracle iterations under
#      ASan/UBSan (arbitrary bytes never crash the framing, chunking
#      independence, byte conservation), a kill -9 + `watch --resume`
#      round trip at shard counts 1 and 8 whose resumed verdict stream
#      must cmp byte-identical to the uninterrupted run, and a chaos
#      soak: paced feeder -> fault-injecting chaos-proxy -> ASan/UBSan
#      daemon, accumulating >= 1000 injected wire faults across rounds
#      with the daemon exiting cleanly every time (DESIGN.md §16).
#
# Every step runs under its own timeout(1) budget — a hung build or a
# wedged decode fails that step instead of stalling the whole run — and
# the script always finishes with a per-step PASS/FAIL summary, running
# the remaining steps even after a failure so one broken tree still
# yields a complete report.  Exit status is 0 iff every step passed.
#
# Usage: tools/run_checks.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
tsan_dir="${2:-$repo_root/build-tsan}"
asan_dir="${3:-$repo_root/build-asan}"
jobs="$(nproc 2>/dev/null || echo 2)"

step_1() {  # one-decode-route check + default build + full test suite
  # The scalar run_* runners are test references: only their own files and
  # the fuzz oracles (src/sscor/fuzz/) may call them.  Comment lines are
  # skipped so documentation can still name them.
  local runner_calls
  runner_calls="$(grep -rnE \
    '\brun_(greedy|greedy_plus|greedy_star|brute_force|greedy_plus_robust)[[:space:]]*\(' \
    "$repo_root/src/sscor" "$repo_root/tools" "$repo_root/examples" \
    --include='*.cpp' --include='*.hpp' |
    grep -vE '^[^:]*/src/sscor/(correlation/(greedy|greedy_plus|greedy_star|brute_force|robust)\.(c|h)pp|fuzz/)' |
    grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
  if [[ -n "$runner_calls" ]]; then
    echo "production code calls a scalar reference runner" \
      "(decode through Correlator / BatchDecoder instead):" >&2
    echo "$runner_calls" >&2
    return 1
  fi
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

step_2() {  # ThreadSanitizer build + concurrency smoke tests
  cmake -B "$tsan_dir" -S "$repo_root" \
    -DSSCOR_SANITIZE=thread \
    -DSSCOR_BUILD_BENCH=OFF \
    -DSSCOR_BUILD_EXAMPLES=OFF
  cmake --build "$tsan_dir" -j "$jobs" \
    --target tsan_smoke_test util_test parallel_determinism_test trace_test \
             flow_table_test
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$jobs" \
    -R 'TsanSmoke|ThreadPool|Parallel|Span|Histogram|DecodeTrace|StreamStress'
}

step_3() {  # ASan/UBSan build + reference-vs-batched parity
  cmake -B "$asan_dir" -S "$repo_root" \
    -DSSCOR_SANITIZE=address,undefined \
    -DSSCOR_BUILD_EXAMPLES=OFF
  cmake --build "$asan_dir" -j "$jobs" \
    --target match_context_test batch_kernel_test parallel_determinism_test
  ctest --test-dir "$asan_dir" --output-on-failure -j "$jobs" \
    -R 'MatchContext|BatchKernel|Parallel'
}

step_4() {  # trace smoke: end-to-end pipeline with --trace/--trace-spans
  local trace_dir
  trace_dir="$(mktemp -d)"
  trap 'rm -rf "$trace_dir"' RETURN
  local tool="$build_dir/tools/sscor_tool"
  local check="$build_dir/tools/trace_check"
  "$tool" generate --out "$trace_dir/corpus.pcap" --flows 2 --packets 600 \
    --seed 7
  "$tool" embed --in "$trace_dir/corpus.pcap" --out "$trace_dir/marked.pcap" \
    --key-out "$trace_dir/secret.key"
  "$tool" perturb --in "$trace_dir/marked.pcap" \
    --out "$trace_dir/perturbed.pcap" --max-delay-s 2 --chaff 2.0
  "$tool" detect --up "$trace_dir/marked.pcap" \
    --down "$trace_dir/perturbed.pcap" --key "$trace_dir/secret.key" \
    --max-delay-s 9 \
    --trace "$trace_dir/decode.jsonl" --trace-spans "$trace_dir/spans.json"
  "$check" --jsonl "$trace_dir/decode.jsonl"
  "$check" "$trace_dir/spans.json"
}

step_5() {  # differential fuzz smoke under ASan/UBSan
  cmake --build "$asan_dir" -j "$jobs" --target sscor_fuzz
  # Fixed budget + fixed seed: the run is deterministic, so a clean pass
  # here is reproducible anywhere.  Violations land as replay artifacts;
  # re-run one with: build-asan/tools/sscor_fuzz --replay <artifact>
  "$asan_dir/tools/sscor_fuzz" --iterations 3000 --seed 1 \
    --corpus "$repo_root/tests/corpus" --artifacts "$asan_dir/fuzz-artifacts"
  local artifact
  for artifact in "$repo_root"/tests/corpus/regress-*.replay; do
    "$asan_dir/tools/sscor_fuzz" --replay "$artifact"
  done
}

step_6() {  # chaos harness: seeded fault injection under ASan/UBSan
  cmake --build "$asan_dir" -j "$jobs" --target sscor_fuzz sscor_tool
  # 1500 round-robin iterations over the three resilience oracles: every
  # case arms at least one deterministic fault (probe-counted cancel,
  # pre-expired deadline, allocation budget, mid-sweep abort, tampered
  # checkpoint) and asserts clean-error-or-correct-result.  Same seed =>
  # same injections on any machine.
  "$asan_dir/tools/sscor_fuzz" \
    --oracle resilient_parity --oracle chaos_decode --oracle chaos_sweep \
    --iterations 1500 --seed 1 --artifacts "$asan_dir/chaos-artifacts"
  # Real process death: SIGKILL the sweep after 2 journaled points, then
  # --resume must reproduce the uncrashed table byte-for-byte.
  local chaos_dir
  chaos_dir="$(mktemp -d)"
  trap 'rm -rf "$chaos_dir"' RETURN
  local tool="$asan_dir/tools/sscor_tool"
  "$tool" sweep --flows=4 --packets=600 --fp-pairs=4 --axis=chaff \
    --out="$chaos_dir/clean.csv" >/dev/null
  "$tool" sweep --flows=4 --packets=600 --fp-pairs=4 --axis=chaff \
    --checkpoint="$chaos_dir/journal.jsonl" --kill-after=2 \
    >/dev/null 2>&1 && {
    echo "kill-after sweep was expected to die by SIGKILL" >&2
    return 1
  }
  "$tool" sweep --flows=4 --packets=600 --fp-pairs=4 --axis=chaff \
    --checkpoint="$chaos_dir/journal.jsonl" --resume \
    --out="$chaos_dir/resumed.csv" >/dev/null
  cmp "$chaos_dir/clean.csv" "$chaos_dir/resumed.csv"
}

step_7() {  # streaming smoke: parity fuzz + watch e2e
  cmake --build "$asan_dir" -j "$jobs" --target sscor_fuzz sscor_tool
  cmake --build "$build_dir" -j "$jobs" --target sscor_tool trace_check
  # 1000 dedicated stream_parity iterations under ASan/UBSan: incremental
  # verdicts/bits/costs byte-identical to batch at shard counts 1 and N.
  "$asan_dir/tools/sscor_fuzz" --oracle stream_parity \
    --iterations 1000 --seed 1 --artifacts "$asan_dir/stream-artifacts"
  # End-to-end watch: generate -> embed -> perturb a corpus capture, then
  # replay it through the streaming daemon with metrics + trace spans.
  local watch_dir
  watch_dir="$(mktemp -d)"
  trap 'rm -rf "$watch_dir"' RETURN
  local tool="$build_dir/tools/sscor_tool"
  local check="$build_dir/tools/trace_check"
  "$tool" generate --out "$watch_dir/corpus.pcap" --flows 2 --packets 600 \
    --seed 11
  "$tool" embed --in "$watch_dir/corpus.pcap" \
    --out "$watch_dir/marked.pcap" --key-out "$watch_dir/secret.key"
  "$tool" perturb --in "$watch_dir/marked.pcap" \
    --out "$watch_dir/perturbed.pcap" --max-delay-s 2 --chaff 2.0
  "$tool" watch --up "$watch_dir/marked.pcap" --key "$watch_dir/secret.key" \
    --in "$watch_dir/perturbed.pcap" --max-delay-s 9 --shards 4 \
    --metrics-json "$watch_dir/metrics.json" --metrics-interval 256 \
    --trace-spans "$watch_dir/spans.json" | tee "$watch_dir/watch.out"
  grep -q "POSITIVE" "$watch_dir/watch.out"
  "$check" "$watch_dir/spans.json"
  "$check" "$watch_dir/metrics.json"
}

step_8() {  # batched decode kernel: parity fuzz
  cmake --build "$asan_dir" -j "$jobs" --target sscor_fuzz
  # 600 batch_parity iterations under ASan/UBSan: every correlator's
  # batched SoA decode (and the multi-hypothesis entry point) must be
  # byte-identical to the scalar reference run_*, the paper's cost metric
  # included.
  "$asan_dir/tools/sscor_fuzz" --oracle batch_parity \
    --iterations 600 --seed 1 --artifacts "$asan_dir/batch-artifacts"
}

step_9() {  # live ops surface: stats endpoints + top + observer-only parity
  cmake --build "$build_dir" -j "$jobs" --target sscor_tool trace_check
  local ops_dir
  ops_dir="$(mktemp -d)"
  trap 'rm -rf "$ops_dir"' RETURN
  local tool="$build_dir/tools/sscor_tool"
  local check="$build_dir/tools/trace_check"
  "$tool" generate --out "$ops_dir/corpus.pcap" --flows 2 --packets 600 \
    --seed 23
  "$tool" embed --in "$ops_dir/corpus.pcap" --out "$ops_dir/marked.pcap" \
    --key-out "$ops_dir/secret.key"
  "$tool" perturb --in "$ops_dir/marked.pcap" \
    --out "$ops_dir/perturbed.pcap" --max-delay-s 2 --chaff 2.0

  # Live daemon on an ephemeral port; --linger-s keeps the endpoints up
  # after the replay drains so the scrapes below always find them.
  "$tool" watch --up "$ops_dir/marked.pcap" --key "$ops_dir/secret.key" \
    --in "$ops_dir/perturbed.pcap" --max-delay-s 9 --shards 4 \
    --stats-addr 127.0.0.1:0 --event-log "$ops_dir/events.jsonl" \
    --linger-s 30 >"$ops_dir/watch_live.out" 2>"$ops_dir/watch_live.err" &
  local watch_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n \
      's#^stats server listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' \
      "$ops_dir/watch_live.err")"
    [[ -n "$port" ]] && break
    sleep 0.2
  done
  if [[ -z "$port" ]]; then
    echo "stats server never announced its port" >&2
    kill "$watch_pid" 2>/dev/null || true
    return 1
  fi
  # Strict format validation of all three endpoints, then one rendered
  # frame of the live dashboard — all against the running daemon.
  "$check" --prom --fetch "http://127.0.0.1:$port/metrics"
  "$check" --fetch "http://127.0.0.1:$port/statusz"
  "$check" --fetch "http://127.0.0.1:$port/healthz"
  "$tool" top --addr "127.0.0.1:$port" --count 1 --no-clear
  kill "$watch_pid" 2>/dev/null || true
  wait "$watch_pid" 2>/dev/null || true
  grep -q "POSITIVE" "$ops_dir/watch_live.out"
  "$check" --jsonl "$ops_dir/events.jsonl"

  # Observer-only contract: the verdict stream on stdout must be
  # byte-identical with the whole telemetry surface on vs off, at one
  # shard and at eight.
  local shards
  for shards in 1 8; do
    "$tool" watch --up "$ops_dir/marked.pcap" --key "$ops_dir/secret.key" \
      --in "$ops_dir/perturbed.pcap" --max-delay-s 9 --shards "$shards" \
      >"$ops_dir/off_$shards.out" 2>/dev/null
    "$tool" watch --up "$ops_dir/marked.pcap" --key "$ops_dir/secret.key" \
      --in "$ops_dir/perturbed.pcap" --max-delay-s 9 --shards "$shards" \
      --stats-addr 127.0.0.1:0 --event-log "$ops_dir/events_$shards.jsonl" \
      >"$ops_dir/on_$shards.out" 2>/dev/null
    cmp "$ops_dir/off_$shards.out" "$ops_dir/on_$shards.out"
  done
}

step_10() {  # cluster sweep: journal-merge fuzz + 4-shard kill/resume/merge
  cmake --build "$asan_dir" -j "$jobs" --target sscor_fuzz
  cmake --build "$build_dir" -j "$jobs" --target sscor_tool
  # Tampered journal directories (duplicates, claims, torn tails, corrupt
  # lines, conflicts) under ASan/UBSan: merge reproduces the reference
  # bytes or fails with a clean IoError, deterministically.
  "$asan_dir/tools/sscor_fuzz" --oracle journal_merge \
    --iterations 400 --seed 1 --artifacts "$asan_dir/cluster-artifacts"

  # Real multi-process run: 4 shards over one directory, worker 2 SIGKILLs
  # itself after its first journaled point, the survivors finish (without
  # stealing, so the dead shard's points stay its own), the victim
  # resumes, and the merged table must equal the serial one byte for byte.
  local cluster_dir
  cluster_dir="$(mktemp -d)"
  trap 'rm -rf "$cluster_dir"' RETURN
  local tool="$build_dir/tools/sscor_tool"
  local sweep_flags=(--flows=4 --packets=600 --fp-pairs=4 --axis=chaff
                     --threads=1)
  "$tool" sweep "${sweep_flags[@]}" --out="$cluster_dir/serial.csv" \
    >/dev/null
  local pids=()
  local i
  for i in 0 1 3; do
    "$tool" sweep "${sweep_flags[@]}" --shard="$i/4" --no-steal \
      --journal-dir="$cluster_dir/journals" >/dev/null 2>&1 &
    pids+=($!)
  done
  "$tool" sweep "${sweep_flags[@]}" --shard=2/4 --no-steal --kill-after=1 \
    --journal-dir="$cluster_dir/journals" >/dev/null 2>&1 && {
    echo "kill-after shard worker was expected to die by SIGKILL" >&2
    return 1
  }
  local pid
  for pid in "${pids[@]}"; do
    wait "$pid"
  done
  # The torn directory must refuse to merge while points are missing...
  if "$tool" merge-journals --journal-dir="$cluster_dir/journals" \
    >/dev/null 2>&1; then
    echo "merge of an incomplete cluster directory unexpectedly passed" >&2
    return 1
  fi
  # ...and resuming the killed shard completes it.
  "$tool" sweep "${sweep_flags[@]}" --shard=2/4 --no-steal --resume \
    --journal-dir="$cluster_dir/journals" >/dev/null
  "$tool" merge-journals --journal-dir="$cluster_dir/journals" \
    --expect-shards=4 --out="$cluster_dir/merged.csv" >/dev/null
  cmp "$cluster_dir/serial.csv" "$cluster_dir/merged.csv"
}

step_11() {  # live-feed daemon: frame fuzz + kill -9/resume cmp + chaos soak
  cmake --build "$build_dir" -j "$jobs" --target sscor_tool
  cmake --build "$asan_dir" -j "$jobs" --target sscor_tool sscor_fuzz
  # Arbitrary bytes through the frame parser under ASan/UBSan: no crash,
  # chunking independence, byte conservation, re-encode idempotence.
  "$asan_dir/tools/sscor_fuzz" --oracle frame_parser \
    --iterations 1000 --seed 1 --artifacts "$asan_dir/frame-artifacts"

  local live_dir
  live_dir="$(mktemp -d)"
  trap 'rm -rf "$live_dir"' RETURN
  local tool="$build_dir/tools/sscor_tool"
  local asan_tool="$asan_dir/tools/sscor_tool"
  # Six flows, flow 0 carrying the watermark; the perturbed capture keeps
  # every flow so the daemon produces a multi-verdict stream (the decoys
  # reject early, which is what makes a mid-run kill interesting).
  "$tool" generate --out "$live_dir/corpus.pcap" --flows 6 --packets 400 \
    --seed 5
  "$tool" embed --in "$live_dir/corpus.pcap" --out "$live_dir/marked.pcap" \
    --key-out "$live_dir/secret.key"
  "$tool" perturb --in "$live_dir/corpus.pcap" \
    --out "$live_dir/perturbed.pcap" --chaff 1.0

  # kill -9 + --resume round trip: the daemon SIGKILLs itself after its
  # 3rd committed verdict; `watch --resume` must re-emit the committed
  # verdicts from the WAL and continue, byte-identical to a run that was
  # never interrupted.
  local shards
  for shards in 1 8; do
    local watch_flags=(--up "$live_dir/marked.pcap"
                       --key "$live_dir/secret.key"
                       --in "$live_dir/perturbed.pcap"
                       --max-delay-s 9 --shards "$shards" --batch 64)
    "$tool" watch "${watch_flags[@]}" >"$live_dir/ref$shards.out"
    if "$tool" watch "${watch_flags[@]}" \
      --state-dir "$live_dir/state$shards" --snapshot-interval 256 \
      --kill-after-verdicts 3 \
      >"$live_dir/crash$shards.out" 2>"$live_dir/crash$shards.err"; then
      echo "watch --kill-after-verdicts was expected to die by SIGKILL" >&2
      return 1
    fi
    "$tool" watch "${watch_flags[@]}" \
      --state-dir "$live_dir/state$shards" --resume \
      >"$live_dir/resume$shards.out"
    cmp "$live_dir/ref$shards.out" "$live_dir/resume$shards.out"
  done

  # Chaos soak: paced feeder -> fault-injecting proxy -> ASan/UBSan
  # daemon.  Pacing keeps the in-flight window small so disconnect faults
  # cost little; rounds accumulate until >= 1000 faults hit the wire.
  # Every round the daemon must exit 0 — ended cleanly or gave up
  # reconnecting, but never crashed and never tripped a sanitizer.
  local total_faults=0 round=0 feed_port proxy_port faults
  while (( total_faults < 1000 && round < 8 )); do
    round=$((round + 1))
    "$tool" feed --in "$live_dir/perturbed.pcap" --pace-us 2000 \
      >"$live_dir/feed$round.out" 2>"$live_dir/feed$round.err" &
    local feed_pid=$!
    feed_port=""
    for _ in $(seq 1 100); do
      feed_port="$(sed -n \
        's/^feeding .* on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$live_dir/feed$round.out")"
      [[ -n "$feed_port" ]] && break
      sleep 0.1
    done
    [[ -n "$feed_port" ]]
    "$asan_tool" chaos-proxy --upstream "127.0.0.1:$feed_port" \
      --fault-rate 0.3 --seed "$round" \
      >"$live_dir/proxy$round.out" 2>"$live_dir/proxy$round.err" &
    local proxy_pid=$!
    proxy_port=""
    for _ in $(seq 1 100); do
      proxy_port="$(sed -n \
        's/^chaos proxy on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$live_dir/proxy$round.out")"
      [[ -n "$proxy_port" ]] && break
      sleep 0.1
    done
    [[ -n "$proxy_port" ]]
    "$asan_tool" watch --up "$live_dir/marked.pcap" \
      --key "$live_dir/secret.key" --connect "127.0.0.1:$proxy_port" \
      --max-delay-s 9 --shards 4 --backoff-ms 5 --backoff-max-ms 50 \
      --backoff-seed "$round" --read-timeout-ms 1000 --reconnect-max 100 \
      >"$live_dir/chaos_watch$round.out"
    kill "$proxy_pid" 2>/dev/null || true
    wait "$proxy_pid" 2>/dev/null || true
    kill "$feed_pid" 2>/dev/null || true
    wait "$feed_pid" 2>/dev/null || true
    faults="$(sed -n \
      's/^chaos proxy: .* relayed, \([0-9]*\) fault(s) injected.*/\1/p' \
      "$live_dir/proxy$round.err")"
    total_faults=$((total_faults + ${faults:-0}))
    echo "chaos round $round: ${faults:-0} fault(s) injected," \
      "total $total_faults"
  done
  if (( total_faults < 1000 )); then
    echo "chaos soak injected only $total_faults fault(s) (< 1000)" >&2
    return 1
  fi
}

step_names=(
  "one-decode-route check + default build + full test suite"
  "ThreadSanitizer build + concurrency smoke tests"
  "ASan/UBSan build + reference-vs-batched parity"
  "trace smoke: end-to-end pipeline with --trace/--trace-spans"
  "differential fuzz smoke under ASan/UBSan"
  "chaos harness: seeded fault injection under ASan/UBSan"
  "streaming smoke: parity fuzz + watch e2e"
  "batched decode kernel: parity fuzz"
  "live ops surface: stats endpoints + top + observer-only parity"
  "cluster sweep: journal-merge fuzz + 4-shard kill/resume/merge"
  "live-feed daemon: frame fuzz + kill -9/resume cmp + chaos soak"
)
# Per-step wall-clock budgets (seconds).  Generous: these exist to convert
# a hang into a step failure, not to race the machine.
step_timeouts=(2400 1800 1800 600 2400 2400 1200 1800 900 1200 1800)

# Self-reexec dispatcher: `timeout` runs an external command, so each step
# re-enters this script with --step N and the same directory arguments.
if [[ "${1:-}" == "--step" ]]; then
  step_n="$2"
  shift 2
  build_dir="${1:-$repo_root/build}"
  tsan_dir="${2:-$repo_root/build-tsan}"
  asan_dir="${3:-$repo_root/build-asan}"
  "step_${step_n}"
  exit 0
fi

overall=0
step_results=()
for n in 1 2 3 4 5 6 7 8 9 10 11; do
  name="${step_names[$((n - 1))]}"
  limit="${step_timeouts[$((n - 1))]}"
  echo "== [$n/11] $name (timeout ${limit}s) =="
  if timeout --foreground --kill-after=30 "$limit" \
    "$0" --step "$n" "$build_dir" "$tsan_dir" "$asan_dir"; then
    step_results+=("PASS  [$n/11] $name")
  else
    rc=$?
    if [[ $rc -eq 124 ]]; then
      step_results+=("FAIL  [$n/11] $name (timed out after ${limit}s)")
    else
      step_results+=("FAIL  [$n/11] $name (exit $rc)")
    fi
    overall=1
  fi
done

echo
echo "== summary =="
for line in "${step_results[@]}"; do
  echo "$line"
done
if [[ $overall -eq 0 ]]; then
  echo "all checks passed"
else
  echo "some checks FAILED"
fi
exit "$overall"
