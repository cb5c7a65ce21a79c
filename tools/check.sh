#!/usr/bin/env bash
#
# Correctness gate for densim — the standing matrix every perf PR
# must pass (see DESIGN.md "Correctness tooling").
#
#   tools/check.sh [stage ...]
#
# Stages (default: every stage the local toolchain supports):
#   plain     RelWithDebInfo build + full ctest, warnings-as-errors,
#             then a CLI smoke with every obs sink on (DESIGN.md
#             Sec. 10)
#   asan      ASan+UBSan build + full ctest (DENSIM_CHECKS on)
#   tsan      ThreadSanitizer build + the experiment-runner and
#             differential tests (the only multithreaded paths)
#   paranoid  DENSIM_PARANOID build + full ctest (every epoch
#             cross-validated against a fresh re-derivation)
#   lint      densim_lint.py (header self-containment, tools/lint/)
#             then clang-tidy over every compiled file
#             (DENSIM_LINT=ON); the clang-tidy half is skipped with a
#             notice when the tool is absent
#   tidy      the densim static-analysis gate (DESIGN.md Sec. 13):
#             tools/tidy/run_densim_tidy.py fixture self-test + a
#             clean whole-tree scan with SARIF output (needs only
#             python3)
#   fma       the exactness gate (DESIGN.md Sec. 9.2): a build for an
#             FMA target (-march=x86-64-v3) + full ctest, so the
#             goldens and bit-identity tests show that
#             -ffp-contract=off keeps a*b+c rounding twice; skipped
#             with a notice on a host that cannot run x86-64-v3 code
#   fault     the asan tree + the fault-injection and keep-going
#             tests, then three CLI smokes: a fan-failure run whose
#             JSON output and JSONL fault log must parse strictly and
#             whose Chrome trace must hold the log's events one for
#             one, a keep-going sweep with a deliberately bad
#             cell that must finish the rest, exit nonzero, and emit a
#             strict summary JSON, and a sweep whose CSV must match
#             byte for byte with and without --summary (DESIGN.md
#             Sec. 11)
#   fleet     the asan tree + the fleet/streaming determinism and
#             worker-pool tests, then a CLI smoke: a
#             multi-shard --fleet run whose JSON summary must parse
#             strictly and whose metrics must be bit-identical across
#             worker-thread counts, with a checkpoint taken, and
#             resumed from that checkpoint; and a faulted fleet whose
#             per-shard fault logs must parse strictly and match each
#             shard's counters (DESIGN.md Sec. 15)
#   ckpt      the asan tree + the checkpoint/restore bank
#             (bit-identical resume, hostile-input rejection,
#             misuse guards), then a CLI smoke: SIGTERM a checkpointed
#             run mid-flight, bound its checkpoint below 1 MB, resume
#             it, and byte-compare the final JSON against the
#             uninterrupted run; then the same for a SIGTERM during a
#             trace replay's set-up, which must checkpoint at t = 0
#             (DESIGN.md Sec. 16)
#   perfbench the benchmark (perfbench/, BENCHMARK.json): build it
#             and run `perfbench/run.py --selftest`, which checks its
#             metric names against BENCHMARK.json and that every output
#             check fires. The benchmark calls engine, power-manager and
#             scheduler APIs directly, so an API change that breaks it
#             fails here; no timing is gated
#   bench     opt-in (never in the default matrix): Release build,
#             one short pass of micro_kernels with JSON output, and a
#             strict parse of that JSON — rot protection for the
#             benches, with no perf gating (compare runs locally with
#             tools/bench_diff.py)
#
# The units negative-compile harness (tests/compile_fail/) runs at
# configure time of every stage, so each build below also proves the
# dimensional-analysis rules still reject ill-formed code.
#
# Each stage configures its own build tree (build-<stage>) so stages
# never contaminate each other; asan, fault, fleet and ckpt need the
# same flags and share build-asan. Any failure aborts the whole run.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CTEST_PARALLEL="${CTEST_PARALLEL:-$JOBS}"

# The ASan+UBSan stages. GCC's `undefined` group leaves out
# float-cast-overflow (a double cast to an int it does not fit), so it
# is named explicitly.
SANITIZERS='address;undefined;float-cast-overflow'

# Test selection for the TSan stage: the thread pool and everything
# that runs under it, plus the differential suite it feeds.
TSAN_FILTER='Parallel|Experiment|PerfEquivalence|Fleet|Streamed'

configure() { # dir, extra cmake args...
    local dir="$1"
    shift
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DDENSIM_WERROR=ON "$@"
}

build() { cmake --build "$1" -j "$JOBS"; }

run_ctest() { # dir [extra ctest args...]
    local dir="$1"
    shift
    (cd "$dir" && ctest --output-on-failure -j "$CTEST_PARALLEL" "$@")
}

sanitized_tree() {
    configure build-asan "-DDENSIM_SANITIZE=$SANITIZERS" \
              -DDENSIM_CHECKS=ON
    build build-asan
}

stage_plain() {
    configure build-check
    build build-check
    run_ctest build-check
    # End-to-end: strict JSON, a timeline on the exact sample grid,
    # sampled phase times in the run JSON and no engine (wall-clock)
    # event in the trace.
    local out="build-check/cli-smoke"
    mkdir -p "$out"
    ./build-check/tools/densim run --scheduler CP --load 0.6 \
        --set simTimeS=2 --set warmupS=0.5 --set timelineSampleS=0.25 \
        --set obs.tracePath="$out/trace.json" \
        --set obs.timelinePath="$out/timeline.jsonl" \
        --json --counters > "$out/run.json"
    python3 - "$out" <<'EOF'
import json, sys
def load(path):
    def reject(constant):
        raise ValueError(f"{path}: non-JSON constant {constant}")
    return json.load(open(f"{sys.argv[1]}/{path}"), parse_constant=reject)
phases = load("run.json")["phases"]
assert phases["sampledEpochs"] > 0, phases
assert phases["ns"]["ambientFlush"] > 0, phases
assert all(e.get("cat") != "engine" for e in load("trace.json")["traceEvents"])
lines = open(f"{sys.argv[1]}/timeline.jsonl").read().splitlines()
assert lines, "timeline stream is empty"
for i, line in enumerate(lines):
    assert json.loads(line)["tS"] == 0.25 * i, f"line {i}: off-grid"
print(f"cli smoke: {len(lines)} timeline samples on the exact grid, "
      f"{phases['sampledEpochs']} sampled epochs, no engine event")
EOF
}

stage_asan() {
    sanitized_tree
    run_ctest build-asan
}

stage_tsan() {
    configure build-tsan -DDENSIM_SANITIZE=thread
    build build-tsan
    run_ctest build-tsan -R "$TSAN_FILTER"
}

stage_paranoid() {
    configure build-paranoid -DDENSIM_PARANOID=ON
    build build-paranoid
    run_ctest build-paranoid
}

stage_fault() {
    # The fault paths mutate coupling maps, requeue jobs, and unwind
    # through exceptions — exactly the code that deserves sanitizers
    # and the runtime invariant bank.
    sanitized_tree
    run_ctest build-asan -R 'Fault|KeepGoing'
    local out="build-asan/fault-smoke"
    mkdir -p "$out"
    # A fan-bank failure at t=1s capped to 20% speed: the run must
    # survive to completion, every sink must be strict JSON, and the
    # trace, rendered from the fault log, must hold its events in
    # order, one for one.
    ./build-asan/tools/densim run --scheduler CF --load 0.7 \
        --set topo.rows=2 --set simTimeS=3 --set warmupS=0.5 \
        --set fault.fanFailS=1 --set fault.fanSpeedFrac=0.2 \
        --set fault.logPath="$out/faults.jsonl" \
        --set obs.tracePath="$out/trace.json" \
        --json --counters > "$out/run.json"
    python3 -m json.tool "$out/run.json" > /dev/null
    python3 - "$out/faults.jsonl" "$out/trace.json" <<'EOF'
import json, sys
def reject(constant):
    raise ValueError(f"non-JSON constant {constant}")
log = [json.loads(l, parse_constant=reject)
       for l in open(sys.argv[1]) if l.strip()]
assert log, "fault log is empty"
kinds = {e["kind"] for e in log}
assert "fanDerate" in kinds, f"no fanDerate event in {kinds}"
trace = json.load(open(sys.argv[2]), parse_constant=reject)
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
assert len(spans) == len(log), f"{len(spans)} spans, {len(log)} events"
for i, (span, event) in enumerate(zip(spans, log)):
    socket = -1 if event["socket"] is None else event["socket"]
    assert span["name"] == event["kind"], f"event {i}: {span} vs {event}"
    assert span["tid"] == socket, f"event {i}: {span} vs {event}"
    assert span["ts"] == event["tS"] * 1e6, f"event {i}: {span} vs {event}"
print(f"fault smoke: {len(log)} fault events, each in the trace, "
      f"kinds={sorted(kinds)}")
EOF
    # Keep-going sweep with one unresolvable cell: the good cells
    # must complete, the exit code must be nonzero, and the summary
    # must be strict JSON that admits the failure.
    if ./build-asan/tools/densim sweep --schedulers CF,Bogus \
        --loads 0.4,0.6 --set topo.rows=2 --set simTimeS=1 \
        --set warmupS=0.2 --keep-going \
        --summary "$out/summary.json" > "$out/sweep.csv"; then
        echo "check.sh: keep-going sweep with a bad cell exited 0" >&2
        exit 1
    fi
    python3 - "$out/summary.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["total"] == 4, doc
assert doc["completed"] == 2, doc
assert doc["failed"] == 2, doc
assert any(r["status"] == "failed" for r in doc["runs"])
print(f"fault smoke: sweep summary {doc['completed']}/{doc['total']} "
      "completed, failures reported")
EOF
    # One sweep harness and one CSV writer: the same grid prints the
    # same CSV bytes with and without --summary.
    local sweep=(sweep --schedulers CF,CP --loads 0.4,0.6
                 --set topo.rows=2 --set simTimeS=1 --set warmupS=0.2
                 --csv)
    ./build-asan/tools/densim "${sweep[@]}" > "$out/sweep-plain.csv"
    ./build-asan/tools/densim "${sweep[@]}" \
        --summary "$out/sweep-summary.json" > "$out/sweep-summary.csv"
    cmp "$out/sweep-plain.csv" "$out/sweep-summary.csv"
    echo "fault smoke: sweep CSV identical with and without --summary"
}

stage_fleet() {
    # The fleet layer fans work out across a worker pool and promises
    # bit-identical metrics at any thread count — run it under ASan
    # with the invariant bank on, then pin the promise end to end
    # through the CLI.
    sanitized_tree
    run_ctest build-asan -R 'Fleet|Streamed|DomainSeed|Parallel'
    local out="build-asan/fleet-smoke"
    mkdir -p "$out"
    # A 4-chassis fleet at every worker count up to one above the
    # chassis count: every summary must be strict JSON, account for
    # every dispatched job, and match byte for byte.
    local args=(run --fleet 4 --scheduler CF --load 0.7
                --set topo.rows=2 --set simTimeS=1 --set warmupS=0.2
                --json)
    for t in 1 2 3 4 5; do
        ./build-asan/tools/densim "${args[@]}" --threads "$t" \
            > "$out/fleet-t$t.json"
        cmp "$out/fleet-t1.json" "$out/fleet-t$t.json"
    done
    # Checkpointing is read-only, and the last cadence checkpoint
    # (taken in the drain) resumes byte-identically at another worker
    # count.
    rm -f "$out/fleet.ckpt"
    ./build-asan/tools/densim "${args[@]}" --threads 3 \
        --checkpoint "$out/fleet.ckpt" --ckpt-every 0.25 \
        > "$out/fleet-ckpt.json"
    cmp "$out/fleet-t1.json" "$out/fleet-ckpt.json"
    ./build-asan/tools/densim "${args[@]}" --threads 1 \
        --restore "$out/fleet.ckpt" > "$out/fleet-resumed.json"
    cmp "$out/fleet-t1.json" "$out/fleet-resumed.json"
    python3 - "$out/fleet-t1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["chassis"] == 4, doc
assert doc["jobsArrived"] > 0, doc
assert doc["jobsDispatched"] == doc["jobsArrived"], doc
assert len(doc["dispatchedPerShard"]) == 4, doc
assert sum(doc["dispatchedPerShard"]) == doc["jobsDispatched"], doc
print(f"fleet smoke: {doc['jobsDispatched']} jobs across "
      f"{doc['chassis']} chassis, bit-identical at 1-5 workers and "
      "through a checkpoint resume")
EOF
    # Every shard writes its own fault log (faults-run<N>.jsonl) with
    # as many socketFail events as its counter reports, and no shard
    # writes the shared name.
    rm -f "$out"/faults*.jsonl
    ./build-asan/tools/densim run --fleet 3 --scheduler CF --load 0.7 \
        --set topo.rows=2 --set simTimeS=1 --set warmupS=0.2 \
        --set fault.socketFailCount=2 --set fault.socketFailS=0.3 \
        --set fault.logPath="$out/faults.jsonl" \
        --json --counters > "$out/fleet-faults.json"
    python3 - "$out" <<'EOF'
import json, os, sys
out = sys.argv[1]
def strict(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)
counters = strict(open(os.path.join(out, "fleet-faults.json")).read())[
    "obs"]["counters"]
assert not os.path.exists(os.path.join(out, "faults.jsonl")), \
    "a shard wrote the shared fault-log name"
for shard in range(3):
    path = os.path.join(out, f"faults-run{shard}.jsonl")
    events = [strict(line) for line in open(path).read().splitlines()]
    got = sum(e["kind"] == "socketFail" for e in events)
    want = counters[f"shard{shard}/fault.socketFailures"]
    assert want > 0 and got == want, \
        f"shard {shard}: {got} socketFail events, counter says {want}"
print("fleet smoke: one fault log per shard, each matching its counter")
EOF
}

stage_ckpt() {
    # Crash-safe checkpoint/restore (DESIGN.md Sec. 16): the unit
    # bank under ASan, then the end-to-end promise through the CLI —
    # SIGTERM a run mid-flight, resume from its checkpoint, and the
    # final JSON must match the uninterrupted run byte for byte.
    sanitized_tree
    run_ctest build-asan -R 'Ckpt|BitIdentity|HostileInput|Misuse|Driver|Fork'
    local out="build-asan/ckpt-smoke"
    mkdir -p "$out"
    local args=(run --scheduler CP --load 0.7 --set simTimeS=12
                --set warmupS=1 --set fault.sensorNoisyCount=2
                --set fault.sensorNoisyAtS=2 --json)
    ./build-asan/tools/densim "${args[@]}" > "$out/straight.json"
    # Kill mid-flight. ASan builds are slow enough that the signal
    # lands mid-run; if the run wins the race anyway, fall back to
    # resuming the cadence checkpoint it left behind.
    set +e
    ./build-asan/tools/densim "${args[@]}" \
        --checkpoint "$out/run.ckpt" --ckpt-every 1 \
        > "$out/killed.json" &
    local pid=$!
    sleep 1
    kill -TERM "$pid" 2> /dev/null
    wait "$pid"
    local rc=$?
    set -e
    if [ "$rc" -ne 3 ] && [ "$rc" -ne 0 ]; then
        echo "check.sh: ckpt: killed run exited $rc (want 3 or 0)" >&2
        exit 1
    fi
    if [ ! -f "$out/run.ckpt" ]; then
        echo "check.sh: ckpt: no checkpoint file written" >&2
        exit 1
    fi
    # A generated run checkpoints its generator's position, not the
    # arrivals still to come, so the image stays small at any horizon.
    local bytes
    bytes=$(stat -c %s "$out/run.ckpt")
    if [ "$bytes" -ge 1000000 ]; then
        echo "check.sh: ckpt: a $bytes-byte checkpoint (want < 1 MB)" >&2
        exit 1
    fi
    ./build-asan/tools/densim "${args[@]}" \
        --restore "$out/run.ckpt" > "$out/resumed.json"
    cmp "$out/straight.json" "$out/resumed.json"
    echo "ckpt smoke: SIGTERM at exit $rc, resume byte-identical"
    # A stop during set-up. The handlers are armed before the engine
    # is built. A generated run's set-up is little more than building
    # the engine, but a trace replay first loads its trace, and
    # loading this 1,000,000-job trace (15.6 MB) keeps set-up going
    # well past 0.1 s (on a 4-vCPU KVM guest this ASan build spends
    # 0.77-0.83 s before the first epoch, and 0.87-1.02 s on the
    # whole replay), so the SIGTERM lands in it. The first poll must checkpoint the replay at t = 0
    # and exit 3, and that checkpoint, which holds the submitted list,
    # must resume to the straight replay.
    ./build-asan/tools/densim trace-capture --load 0.7 --jobs 1000000 \
        --trace "$out/setup.trace" > /dev/null
    local setup=(trace-replay --trace "$out/setup.trace" --scheduler CF
                 --set simTimeS=1 --set warmupS=0.2 --json)
    ./build-asan/tools/densim "${setup[@]}" > "$out/setup-straight.json"
    rm -f "$out/setup.ckpt"
    set +e
    ./build-asan/tools/densim "${setup[@]}" \
        --checkpoint "$out/setup.ckpt" > /dev/null 2> "$out/setup-stop.err" &
    pid=$!
    sleep 0.1
    kill -TERM "$pid" 2> /dev/null
    wait "$pid"
    rc=$?
    set -e
    if [ "$rc" -ne 3 ] || ! grep -q "stopped at t=0s;" "$out/setup-stop.err"
    then
        echo "check.sh: ckpt: SIGTERM during set-up exited $rc:" \
             "$(cat "$out/setup-stop.err")" >&2
        exit 1
    fi
    ./build-asan/tools/densim "${setup[@]}" \
        --restore "$out/setup.ckpt" > "$out/setup-resumed.json"
    cmp "$out/setup-straight.json" "$out/setup-resumed.json"
    rm -f "$out/setup.ckpt" "$out/setup.trace"
    echo "ckpt smoke: SIGTERM during a replay's set-up checkpointed" \
         "at t=0s, resume byte-identical"
}

stage_perfbench() {
    # Builds into .bench_build/ (Release) from this checkout's src/.
    python3 perfbench/run.py --selftest
}

stage_bench() {
    # Opt-in rot protection for the microbenchmarks (not in the
    # default matrix): Release build, one short pass of every bench,
    # and a strict parse of the JSON output. No timing is gated —
    # CI machines are too noisy for that; use tools/bench_diff.py
    # locally to compare two runs.
    configure build-bench -DCMAKE_BUILD_TYPE=Release
    build build-bench
    local out="build-bench/bench-smoke"
    mkdir -p "$out"
    ./build-bench/bench/micro_kernels --benchmark_format=json \
        --benchmark_min_time=0.01 > "$out/micro_kernels.json"
    python3 - "$out/micro_kernels.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc.get("benchmarks", [])
assert rows, "micro_kernels emitted no benchmark rows"
names = {r["name"] for r in rows}
for required in ("BM_SimulatedServerSecond",
                 "BM_SchedulerDecisionBatch/2",
                 "BM_CouplingDeltaFlush/32",
                 "BM_CouplingDeltaFlush/79",
                 "BM_SectionChecksum/65536",
                 "BM_EngineCheckpointRoundTrip"):
    assert required in names, f"{required} missing from {sorted(names)}"
server = next(r for r in rows if r["name"] == "BM_SimulatedServerSecond")
assert server.get("ms_per_sim_s", 0) > 0, "no ms_per_sim_s counter"
print(f"bench smoke: {len(rows)} benchmarks ran and parsed")
EOF
    # The diff tool itself must keep working: identical inputs never
    # regress, so this exercises parse + compare + exit-code logic.
    python3 tools/bench_diff.py "$out/micro_kernels.json" \
        "$out/micro_kernels.json" > /dev/null
}

stage_lint() {
    # The custom densim lint bank needs only python3 + a compiler;
    # it runs (and gates) even where clang-tidy is unavailable.
    python3 tools/lint/densim_lint.py --self-test
    python3 tools/lint/densim_lint.py
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "check.sh: clang-tidy not on PATH — skipping clang-tidy half" >&2
        return 0
    fi
    configure build-lint -DDENSIM_LINT=ON
    build build-lint
}

stage_tidy() {
    # Fixture self-test, then a clean tree scan. The tree scan also
    # emits SARIF so the 2.1.0 structure is validated on every run,
    # not just when CI uploads it.
    python3 tools/tidy/run_densim_tidy.py --self-test
    mkdir -p build-checks
    python3 tools/tidy/run_densim_tidy.py \
        --sarif build-checks/densim-tidy.sarif
}

stage_fma() {
    # On a target with FMA, GCC fuses a*b+c into one rounding unless
    # -ffp-contract=off (top-level CMakeLists.txt) says otherwise; the
    # goldens, the table-vs-search equivalences and the pinned
    # checkpoint bytes then move in their last bits. Probe first: the
    # compiler must accept the target and the host must run it.
    mkdir -p build-fma
    printf 'int main() { return __builtin_cpu_supports("x86-64-v3") ? 0 : 1; }\n' \
        > build-fma/probe.cc
    if ! "${CXX:-c++}" -march=x86-64-v3 build-fma/probe.cc \
            -o build-fma/probe 2> /dev/null || ! ./build-fma/probe; then
        echo "check.sh: host cannot build or run x86-64-v3 code — fma stage SKIPPED" >&2
        return 0
    fi
    configure build-fma -DCMAKE_CXX_FLAGS=-march=x86-64-v3
    build build-fma
    run_ctest build-fma
}

if [ "$#" -gt 0 ]; then
    stages=("$@")
else
    stages=(plain asan tsan paranoid fault fleet ckpt perfbench lint tidy
            fma)
fi

for stage in "${stages[@]}"; do
    case "$stage" in
        plain|asan|tsan|paranoid|fault|fleet|ckpt|perfbench|lint|tidy|fma|bench) ;;
        *)
            echo "check.sh: unknown stage '$stage'" >&2
            exit 2
            ;;
    esac
    echo "==== check.sh stage: $stage ===="
    "stage_$stage"
done
echo "==== check.sh: all stages passed ===="
