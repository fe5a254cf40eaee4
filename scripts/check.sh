#!/usr/bin/env bash
# The full local gate: tier-1 build+tests, lint wall, and the bench-smoke
# perf gate. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate's scratch files live under one temp root, and every
# background process is recorded in PIDS, so one EXIT trap cleans up
# whatever a failing gate leaves behind.
TMP_ROOT=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP_ROOT"
}
trap cleanup EXIT

wait_addr() { # logfile prefix -> prints the bound address
    local found=""
    for _ in $(seq 1 100); do
        found=$(sed -n "s/^$2 listening on //p" "$1")
        [ -n "$found" ] && break
        sleep 0.1
    done
    if [ -z "$found" ]; then
        echo "FAILED: no '$2 listening on' banner in $1" >&2
        cat "$1" >&2
        return 1
    fi
    echo "$found"
}

checkpoints_recorded() { # server address -> its durable window checkpoints so far
    target/release/temu-client --addr "$1" metrics \
        | awk '$1 == "serve.checkpoints_recorded" { n = $2 } END { print n + 0 }'
}

reap() { # pid -> waits for it, drops it from PIDS, returns its exit status
    local status=0 pid kept=""
    wait "$1" || status=$?
    for pid in $PIDS; do [ "$pid" = "$1" ] || kept="$kept $pid"; done
    PIDS=$kept
    return "$status"
}

echo "== json-writer gate =="
# One JSON writer: every JSON object the workspace emits is built by
# `JsonObject` in crates/core/src/export.rs, which alone decides escaping,
# float formatting and layout. A string literal holding an escaped JSON
# key followed by `: ` (`\"name\": `) in non-test source under
# crates/*/src means an object is being built by hand; each file is
# scanned up to its `#[cfg(test)] mod tests`. The one exception is
# temu-obs: it sits below temu-framework in the dependency graph and
# renders its own compact, versioned snapshot (`"temu_metrics":1`, no
# spaces, so the pattern does not match it), which the server and the
# router splice into their frames with `JsonObject::fields`.
json_hits=$(find crates/*/src -name '*.rs' ! -path crates/core/src/export.rs | sort | while read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /\\"[A-Za-z0-9_]+\\": / { print file ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$json_hits" ]; then
    echo "json-writer FAILED: $(echo "$json_hits" | wc -l) line(s) build JSON by hand:"
    echo "$json_hits"
    exit 1
fi
echo "json-writer OK"

echo "== frame-writer gate =="
# One frame writer: every NDJSON line reaches a socket through
# `temu_serve::write_frame`, which sends the frame and its newline in one
# write. A `writeln!` on an unbuffered socket is two writes, and under
# Nagle the newline then waits ~40 ms for the peer's delayed ACK. Any
# `writeln!` in non-test source under crates/serve/src or
# crates/fleet/src (bins included) fails; each file is scanned up to its
# `#[cfg(test)] mod tests`.
frame_hits=$(find crates/serve/src crates/fleet/src -name '*.rs' | sort | while read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /writeln!/ { print file ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$frame_hits" ]; then
    echo "frame-writer FAILED: $(echo "$frame_hits" | wc -l) line(s) write a frame without write_frame:"
    echo "$frame_hits"
    exit 1
fi
echo "frame-writer OK"

echo "== request-loop gate =="
# One request loop: the job server and the fleet router serve their
# connections through `temu_serve::protocol` (`accept_loop` and
# `serve_connection`), which frames, refuses and parses every request and
# acks `shutdown` in one place; each side keeps only its dispatch. In
# non-test source under crates/serve/src and crates/fleet/src (bins
# included, each file up to its `#[cfg(test)] mod tests`), `read_frame(`
# may appear only in protocol.rs and client.rs (the client reads
# replies), and `.incoming()` only in protocol.rs.
loop_hits=$(find crates/serve/src crates/fleet/src -name '*.rs' | sort | while read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /read_frame\(/ && file !~ /\/(protocol|client)\.rs$/ { print file ":" FNR ": " $0 }
        /\.incoming\(\)/ && file !~ /\/protocol\.rs$/ { print file ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$loop_hits" ]; then
    echo "request-loop FAILED: $(echo "$loop_hits" | wc -l) line(s) run a request loop outside temu_serve::protocol:"
    echo "$loop_hits"
    exit 1
fi
echo "request-loop OK"

echo "== one-pool gate =="
# One worker pool: campaigns and sweeps run their jobs on the crate-private
# pool in crates/core/src/campaign.rs, which claims jobs on scoped workers,
# contains each job's panic and re-raises a worker's panic once every
# worker has stopped. In non-test source under crates/core/src (each file
# up to its `#[cfg(test)] mod tests`), `thread::scope(`, `thread::spawn(`
# and `catch_unwind(` may appear only in campaign.rs.
pool_hits=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /thread::(scope|spawn)\(|catch_unwind\(/ && file !~ /\/campaign\.rs$/ { print file ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$pool_hits" ]; then
    echo "one-pool FAILED: $(echo "$pool_hits" | wc -l) line(s) run jobs outside the campaign's pool:"
    echo "$pool_hits"
    exit 1
fi
echo "one-pool OK"

echo "== one-log gate =="
# One log per durable job state: the result store and the job journal,
# whose window records carry the mid-point checkpoints, are the only
# append logs a program opens. In non-test source under crates/*/src
# (each file up to its `#[cfg(test)] mod tests`), `AppendLog::open(` may
# appear only in core/src/sweep.rs (the result store) and
# serve/src/journal.rs (the job journal).
log_hits=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod tests/ { exit }
        { pending = 0 }
        /AppendLog::open\(/ && file !~ /^crates\/(core\/src\/sweep|serve\/src\/journal)\.rs$/ { print file ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$log_hits" ]; then
    echo "one-log FAILED: $(echo "$log_hits" | wc -l) line(s) open an append log outside the store and the journal:"
    echo "$log_hits"
    exit 1
fi
echo "one-log OK"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== solver goldens: full 2 s transients =="
# Tier-1 checks a 50 ms prefix of each solver golden; the full 2 s
# transients (optimized vs reference solver, multigrid vs Gauss-Seidel,
# 1e-4 K bound) take minutes in a debug build, so they run here in
# release.
cargo test --release -p temu-bench --test solver_equivalence -- --include-ignored

echo "== ISS differential: 100 seeds per platform =="
# Tier-1 checks a few seeds per platform; the ignored long run takes 100
# random programs on every platform, to halt and window by window (997
# cycles), fast engine against the cycle-driven baseline.
cargo test --release -p temu-des --test random_programs -- --include-ignored
# The full-state differential adds what random_programs does not compare:
# every sniffer counter and the whole cache state (tags, LRU stamps,
# access ticks) at halt and at every boundary, on programs aimed at the
# ISS's block path, and DFS frequency switches mid-run read back by the
# programs; 100 seeds per platform.
cargo test --release -p temu-des --test full_state -- --include-ignored
# The closed-loop golden: the hash of the whole run state (machine, power,
# link, thermal field, sensors, DFS ladder, trace) after every window of 20
# Fig. 6 windows and 40 two-millisecond windows of one dithering core on
# the bus, pinned; the ISS golden in tier-1 runs the machine alone.
cargo test --release -p temu-framework --test closed_loop_golden -- --include-ignored

echo "== lint wall: clippy -D warnings =="
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs gate: rustdoc -D warnings =="
# Every doc link must resolve, so a doc that still links a deleted item
# fails here. The first pass checks the private items' docs too; the
# second, public docs alone, which must not link private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --document-private-items
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark-smoke gate =="
# The repo benchmark (benchmark/) is a cargo workspace of its own that
# builds the crates by path and drives their public API (`SweepMode`,
# `ServeConfig`, `AxisSpec`, ...), so nothing above compiles it. One 1 s
# run per workload must build, finish, and end its stdout with a JSON
# line reporting `"correct": true` and `"failed": 0`. The build goes to
# its own target directory under target/.
for workload in fig6 fine_mesh served; do
    last=$(CARGO_TARGET_DIR=target/benchmark cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        | tail -n 1)
    if ! echo "$last" | grep -q '"correct": true' || ! echo "$last" | grep -q '"failed": 0'; then
        echo "benchmark smoke FAILED: $workload ended with: $last"
        exit 1
    fi
    echo "benchmark smoke $workload OK"
done

echo "== inline-pins gate =="
# Hot paths that run only as fast as they do inlined: a private D-cache
# hit runs inside the warm block loop (`Uncore::data_hit` and
# `Cache::try_hit`, both `#[inline(always)]`), and the multigrid kernels
# inline into `implicit_substep_mg`, though nothing forces them to. The
# release benchmark binary built above must hold no out-of-line copy of
# any of them. The gate fails without `nm`, and when `nm -C` does not
# list `Cpu::run_decoded`, which stays out of line on purpose, so a
# binary whose symbols cannot be read never passes.
bench_bin=target/benchmark/release/temu-benchmark
if ! command -v nm >/dev/null; then
    echo "inline-pins FAILED: nm not found"
    exit 1
fi
symbols=$(nm -C "$bench_bin" | sed -E 's/^[0-9a-f]* *[A-Za-z] //')
# A here-string, not a pipe: `grep -q` stops reading at its first match,
# and under pipefail a writer still holding the rest of this long listing
# would fail on SIGPIPE.
if ! grep -qFx 'temu_cpu::core::Cpu::run_decoded' <<<"$symbols"; then
    echo "inline-pins FAILED: nm -C lists no temu_cpu::core::Cpu::run_decoded in $bench_bin"
    exit 1
fi
pinned='<temu_platform::uncore::Uncore as temu_cpu::port::MemoryPort>::data_hit
temu_mem::cache::Cache::try_hit
temu_thermal::solver::sweep_forward
temu_thermal::solver::sweep_backward
temu_thermal::solver::fine_residual
temu_thermal::solver::fcg_update'
out_of_line=$(grep -Fx "$pinned" <<<"$symbols" || true)
if [ -n "$out_of_line" ]; then
    echo "inline-pins FAILED: out of line in $bench_bin:"
    echo "$out_of_line"
    exit 1
fi
echo "inline-pins OK"

echo "== bench-smoke gate =="
# Also the solver-convergence gate: the smoke rungs include multigrid
# cases, and the bench fails if any multigrid substep is accepted
# unconverged (the tier-1 tests additionally run a strict-convergence
# multigrid campaign in crates/bench/tests/bench_smoke.rs).
# --out keeps the smoke report away from the committed full-run
# BENCH_thermal.json.
cargo run --release -p temu-bench --bin thermal_scaling -- --smoke --out target/bench_smoke.json

echo "== sweep-smoke gate =="
# The design-space sweep gate: an 8-point strict-convergence mini sweep
# (multigrid included) must run clean with the shared mesh built exactly
# once (7 artifact-cache hits — zero hits fails), and its identical
# in-process re-run must be 100% result-cache hits with zero scenario
# executions.
cargo run --release -p temu-bench --bin sweep -- --smoke

echo "== serve-smoke gate =="
# The job-server gate, through the real bins over a real socket: start
# temu-serve on an ephemeral port with a temp cache store, submit the
# 8-point strict-convergence smoke preset via temu-client (any
# non-converging or failed point exits non-zero), then resubmit and
# require the whole job be served from the cache with zero scenarios
# executed (--require-cached).
SERVE_TMP="$TMP_ROOT/serve"
mkdir "$SERVE_TMP"
target/release/temu-serve --addr 127.0.0.1:0 --store "$SERVE_TMP/cache.jsonl" \
    > "$SERVE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
PIDS="$PIDS $SERVE_PID"
addr=$(wait_addr "$SERVE_TMP/serve.log" temu-serve)
target/release/temu-client --addr "$addr" submit --preset smoke
target/release/temu-client --addr "$addr" submit --preset smoke --require-cached
target/release/temu-client --addr "$addr" stats
target/release/temu-client --addr "$addr" shutdown
reap "$SERVE_PID"
echo "serve smoke OK"

echo "== obs-smoke gate =="
# The observability gate. First the A/B perf guard: the smoke grid with
# the metrics registry enabled must stay within noise of the disabled
# run (the solver substep timers sit on the hottest loop). Then a serve
# flow with --metrics-log: the NDJSON snapshot log must parse, its seqs
# and counters must be monotone, the final snapshot's completed-job
# counter must match the two jobs the client ran, and the `metrics` and
# `results` commands must answer over the wire.
cargo run --release -p temu-bench --bin sweep -- --obs-ab
OBS_TMP="$TMP_ROOT/obs"
mkdir "$OBS_TMP"
target/release/temu-serve --addr 127.0.0.1:0 --store "$OBS_TMP/cache.jsonl" \
    --metrics-log "$OBS_TMP/metrics.ndjson" --metrics-interval 100 \
    > "$OBS_TMP/serve.log" 2>&1 &
OBS_PID=$!
PIDS="$PIDS $OBS_PID"
addr=$(wait_addr "$OBS_TMP/serve.log" temu-serve)
target/release/temu-client --addr "$addr" submit --preset smoke
target/release/temu-client --addr "$addr" submit --preset smoke --require-cached
# The streamed feed replays both jobs' completed points as NDJSON.
results_lines=$(target/release/temu-client --addr "$addr" results | wc -l)
if [ "$results_lines" -lt 16 ]; then
    echo "obs smoke FAILED: results replayed only $results_lines event(s) for two 8-point jobs"
    exit 1
fi
target/release/temu-client --addr "$addr" metrics
target/release/temu-client --addr "$addr" stats
target/release/temu-client --addr "$addr" shutdown
reap "$OBS_PID"
target/release/temu-client check-metrics-log "$OBS_TMP/metrics.ndjson" --jobs-done 2
echo "obs smoke OK"

echo "== resume-smoke gate =="
# The window-checkpoint gate, through the real bins: start temu-serve
# with --window-checkpoint 5, submit a single long point (~4 s), kill
# the server -9 once a mid-point checkpoint record has been persisted
# (the server's `serve.checkpoints_recorded` counter counts a window
# record only once it is written and synced to the journal), restart it
# on the same store, and watch the recovered job to completion — the
# restart banner must report the recovered mid-point state, and the
# finished job must land in the cache (the final --require-cached
# resubmission exits 3 if anything re-executes). Then the cancel leg: a
# fresh long point, cancelled once its first window checkpoint is
# persisted, must end `cancelled`, not `done`.
RESUME_TMP="$TMP_ROOT/resume"
mkdir "$RESUME_TMP"
cat > "$RESUME_TMP/spec.json" <<'SPEC'
{"name": "resume-smoke", "cores": 2,
 "workload": {"kind": "matrix", "n": 48, "iters": 200, "cores": 2},
 "sampling_window_s": 0.0005, "windows": 400,
 "strict_convergence": true, "mesh": {"hot_div": 4}}
SPEC
target/release/temu-serve --addr 127.0.0.1:0 --store "$RESUME_TMP/cache.jsonl" \
    --window-checkpoint 5 > "$RESUME_TMP/serve.log" 2>&1 &
RESUME_PID=$!
PIDS="$PIDS $RESUME_PID"
addr=$(wait_addr "$RESUME_TMP/serve.log" temu-serve)
target/release/temu-client --addr "$addr" submit --spec "$RESUME_TMP/spec.json" --no-watch
# Wait for a persisted mid-point checkpoint record, then SIGKILL.
ck_seen=""
for _ in $(seq 1 200); do
    if [ "$(checkpoints_recorded "$addr")" -gt 0 ]; then
        ck_seen=yes
        break
    fi
    sleep 0.05
done
if [ -z "$ck_seen" ]; then
    echo "resume smoke FAILED: no window checkpoint record appeared"
    cat "$RESUME_TMP/serve.log"
    exit 1
fi
kill -9 "$RESUME_PID"
reap "$RESUME_PID" 2>/dev/null || true
target/release/temu-serve --addr 127.0.0.1:0 --store "$RESUME_TMP/cache.jsonl" \
    --window-checkpoint 5 > "$RESUME_TMP/serve2.log" 2>&1 &
RESUME_PID=$!
PIDS="$PIDS $RESUME_PID"
addr=$(wait_addr "$RESUME_TMP/serve2.log" temu-serve)
if ! grep -q '1 mid-point state(s) recovered' "$RESUME_TMP/serve2.log"; then
    echo "resume smoke FAILED: restart did not recover the mid-point state"
    cat "$RESUME_TMP/serve2.log"
    exit 1
fi
target/release/temu-client --addr "$addr" watch 1
target/release/temu-client --addr "$addr" submit --spec "$RESUME_TMP/spec.json" --require-cached
sed 's/"windows": 400/"windows": 4000/' "$RESUME_TMP/spec.json" > "$RESUME_TMP/cancel.json"
# The recovered job is done, so the counter only rises again once the
# cancel job persists its first window checkpoint.
ck_before=$(checkpoints_recorded "$addr")
job=$(target/release/temu-client --addr "$addr" submit --spec "$RESUME_TMP/cancel.json" --no-watch \
    | sed -n 's/^queued as job \([0-9]*\) .*/\1/p')
ck_seen=""
for _ in $(seq 1 200); do
    if [ "$(checkpoints_recorded "$addr")" -gt "$ck_before" ]; then
        ck_seen=yes
        break
    fi
    sleep 0.05
done
if [ -z "$ck_seen" ]; then
    echo "resume smoke FAILED: no window checkpoint record appeared for job $job"
    exit 1
fi
target/release/temu-client --addr "$addr" cancel "$job"
# A cancelled job's watch exits 1; the status below is the verdict.
target/release/temu-client --addr "$addr" watch "$job" || true
status=$(target/release/temu-client --addr "$addr" status "$job")
if ! echo "$status" | grep -q '"state": "cancelled"'; then
    echo "resume smoke FAILED: the cancelled job ended as $status"
    exit 1
fi
target/release/temu-client --addr "$addr" shutdown
reap "$RESUME_PID"
echo "resume smoke OK"

echo "== chaos-smoke gate =="
# The fault-tolerance gate: the same serve smoke with faults injected —
# workers panic after 30% of executed points (each already banked in the
# store) and 20% of fresh connections are dropped on the floor.
# Submissions are retried until one run completes, and the rerun must
# still be answered 100% from the cache with exit 0: a fully-cached job
# executes no point, so panics cannot reach it, and dropped connections
# are absorbed by the client's backoff.
CHAOS_TMP="$TMP_ROOT/chaos"
mkdir "$CHAOS_TMP"
TEMU_FAULT="worker_panic:0.3,drop_conn:0.2" \
    target/release/temu-serve --addr 127.0.0.1:0 --store "$CHAOS_TMP/cache.jsonl" \
    > "$CHAOS_TMP/serve.log" 2>&1 &
CHAOS_PID=$!
PIDS="$PIDS $CHAOS_PID"
addr=$(wait_addr "$CHAOS_TMP/serve.log" temu-serve)
chaos_ok=""
for attempt in $(seq 1 15); do
    if target/release/temu-client --addr "$addr" --retries 8 submit --preset smoke; then
        chaos_ok=yes
        break
    fi
    echo "chaos smoke: submission $attempt hit an injected fault, retrying"
done
if [ -z "$chaos_ok" ]; then
    echo "chaos smoke FAILED: no submission completed within 15 attempts"
    exit 1
fi
target/release/temu-client --addr "$addr" --retries 8 submit --preset smoke --require-cached
target/release/temu-client --addr "$addr" --retries 8 shutdown
reap "$CHAOS_PID" || true
echo "chaos smoke OK"

echo "== fleet-smoke gate =="
# The fleet gate, through the real bins: two temu-serve members sharing
# one cache store (distinct journals — ids must not collide), a
# temu-router in front, and an unmodified temu-client submitting the
# smoke preset through the router. The identical resubmission must
# rendezvous to the same member and be served 100% from its cache
# (--require-cached exits 3 otherwise).
FLEET_TMP="$TMP_ROOT/fleet"
mkdir "$FLEET_TMP"
target/release/temu-serve --addr 127.0.0.1:0 --store "$FLEET_TMP/cache.jsonl" \
    --journal "$FLEET_TMP/jobs-a.jsonl" --member a > "$FLEET_TMP/member-a.log" 2>&1 &
PIDS="$PIDS $!"
target/release/temu-serve --addr 127.0.0.1:0 --store "$FLEET_TMP/cache.jsonl" \
    --journal "$FLEET_TMP/jobs-b.jsonl" --member b > "$FLEET_TMP/member-b.log" 2>&1 &
PIDS="$PIDS $!"
member_a=$(wait_addr "$FLEET_TMP/member-a.log" temu-serve)
member_b=$(wait_addr "$FLEET_TMP/member-b.log" temu-serve)
target/release/temu-router --addr 127.0.0.1:0 --member "$member_a" --member "$member_b" \
    > "$FLEET_TMP/router.log" 2>&1 &
PIDS="$PIDS $!"
router=$(wait_addr "$FLEET_TMP/router.log" temu-router)
target/release/temu-client --addr "$router" submit --preset smoke
target/release/temu-client --addr "$router" submit --preset smoke --require-cached
target/release/temu-client --addr "$router" stats
target/release/temu-client --addr "$router" shutdown
target/release/temu-client --addr "$member_a" shutdown
target/release/temu-client --addr "$member_b" shutdown
for pid in $PIDS; do reap "$pid" || true; done
echo "fleet smoke OK"

echo "== size =="
# Not a gate: the non-test Rust lines per crate, the working tree against
# HEAD, which every change reports its net from.
scripts/loc.sh --since HEAD

echo "All checks passed."
