#!/usr/bin/env bash
# Full offline gate: format, lint, build, test. The workspace has zero
# registry dependencies, so everything here must succeed with the network
# switched off — CARGO_NET_OFFLINE makes any accidental dependency fail
# loudly instead of silently fetching.
#
# Exit codes: 0 every gate passed; 3 the relcheck oracles or the RF_CHECK
# repro loop; 4 fleet checkpoint/resume or crash-dump replay; 5 the live
# endpoint; 7 the lane matrix. Any other non-zero status is that of the
# failing step itself (fmt, clippy, build, test, the observability and
# drift gates, the overhead bench).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q

# Observability gate: re-run the smoke scenario with tracing on; it must
# emit a metrics snapshot under results/obs/ that parses with the strict
# in-repo JSON parser and carries the required top-level keys.
rm -rf results/obs
RF_TRACE=relsim=debug cargo test -q --test smoke
cargo run --release -q -p relaxfault-bench --bin obs_validate results/obs

# Determinism drift gate: the whole paper twice at a reduced scale must
# produce identical counters, gauges, histogram counts and work-histogram
# sums (`obs_report diff`; span timings may jitter and are not compared),
# and the experiment records it leaves must pass the strict validator.
# The committed lane-matrix verdict stays; the snapshots and records are
# scrubbed, so every gate below sees only this run's output.
rm -rf results/ci/obs results/ci/records
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=drift_a \
    cargo run --release -q -p relaxfault-bench --bin paper -- --scale 0.01
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=drift_b \
    cargo run --release -q -p relaxfault-bench --bin paper -- --scale 0.01
cargo run --release -q -p relaxfault-bench --bin obs_report -- diff \
    results/ci/obs/drift_a.json results/ci/obs/drift_b.json
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/records

# Disabled-path guard: observability must cost <1% of the Monte Carlo
# inner loop when off (the bench exits non-zero otherwise).
RF_BENCH_BATCH_MS=5 RF_BENCH_BATCHES=3 \
    cargo bench -q -p relaxfault-bench --bench node_eval

# Correctness subsystem pass: the differential oracles at a reduced case
# count, then an RF_CHECK=1 engine smoke with a forced failure proving the
# failure -> repro -> replay loop end to end. The repro JSON must satisfy
# the strict schema validator, and the replay must report bit-exact
# reproduction. Any relcheck failure exits 3.
rm -rf results/ci/relcheck
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- smoke --cases 25 \
    || exit 3
if RF_CHECK=1 RF_CHECK_FAIL_TRIAL=0 RF_RESULTS_DIR=results/ci \
    cargo run --release -q -p relaxfault-bench --bin paper -- --scale 0.001; then
    echo "relcheck: forced RF_CHECK failure did not fire" >&2
    exit 3
fi
repro=$(ls results/ci/relcheck/engine_check_*.json 2>/dev/null | head -n1 || true)
[ -n "$repro" ] || { echo "relcheck: no repro case written" >&2; exit 3; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/relcheck \
    || exit 3
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- replay "$repro" \
    || exit 3

# Lane-matrix gate: the bit-sliced trial kernel must be indistinguishable
# from the scalar path. One pinned scenario mix is digested across every
# (lane mode, thread count) cell of {scalar,u64,u128} x {1,2,4}; all nine
# digests must be identical bit for bit. The verdict JSON (one digest per
# cell) is archived under results/ci/. Any divergence exits 7.
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- lane-matrix \
    --trials 4000 --out results/ci/lane_matrix_verdict.json \
    || { echo "lane-matrix gate: lane modes diverged" >&2; exit 7; }

# Fleet checkpoint/resume determinism gate: a 1M-node fleet over 20 epochs
# runs to completion once; the same fleet is then killed mid-epoch by the
# RF_FLEET_CRASH_AT hook (the kill must actually fire), resumed from the
# surviving checkpoints, and the resumed run's obs snapshot must be a
# zero-delta `obs_report diff` match of the uninterrupted one — counters
# are exact, so any divergence fails the build. The checkpoint directory
# itself must satisfy the strict fleet-checkpoint schema validator (which
# also rejects mixed schema versions).
rm -rf results/ci/fleet_ckpt
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=fleet_full \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    1000000 --epochs=20
if RF_OBS=on RF_RESULTS_DIR=results/ci RF_FLEET_CRASH_AT=mid:13 \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    1000000 --epochs=20 --ckpt-dir=results/ci/fleet_ckpt >/dev/null 2>&1; then
    echo "fleet gate: injected crash did not kill the run" >&2
    exit 4
fi
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=fleet_resumed \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    --resume --ckpt-dir=results/ci/fleet_ckpt
cargo run --release -q -p relaxfault-bench --bin obs_report -- diff \
    results/ci/obs/fleet_full.json results/ci/obs/fleet_resumed.json \
    || { echo "fleet gate: resumed run drifted from the full run" >&2; exit 4; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/fleet_ckpt \
    || exit 4

# Crash-dump gate: a mid-epoch injected crash with checkpointing on must
# leave a crash dump whose embedded checkpoint `relcheck replay` proves
# bit-exact, and the dump must satisfy the strict schema validator — while
# a truncated copy of the same dump must be rejected.
rm -rf results/ci/crash_ckpt results/ci/crash_truncated
if RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=crash_small RF_FLEET_CRASH_AT=mid:7 \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    200000 --epochs=12 --ckpt-dir=results/ci/crash_ckpt >/dev/null 2>&1; then
    echo "crash-dump gate: injected crash did not kill the run" >&2
    exit 4
fi
dump=results/ci/obs/crash_small.crashdump.json
[ -f "$dump" ] || { echo "crash-dump gate: no crash dump written" >&2; exit 4; }
cargo run --release -q -p relaxfault-relcheck --bin relcheck -- replay "$dump" \
    || { echo "crash-dump gate: dump did not replay bit-exactly" >&2; exit 4; }
mkdir -p results/ci/crash_truncated
head -c 256 "$dump" > results/ci/crash_truncated/crash_small.crashdump.json
if cargo run --release -q -p relaxfault-bench --bin obs_validate \
    results/ci/crash_truncated >/dev/null 2>&1; then
    echo "crash-dump gate: truncated dump was accepted" >&2
    exit 4
fi

# Live-endpoint smoke gate: a profiled fleet run serving the telemetry
# plane on an OS-assigned port (published through RF_OBS_ADDR_FILE) must
# answer all four routes over plain /dev/tcp, serve well-formed Prometheus
# text, honour /quit for a deterministic shutdown, and leave a non-empty
# folded profile naming relsim spans. The final obs_validate sweep covers
# everything the CI runs dropped in results/ci/obs: snapshots, traces,
# crash dumps, and the folded profile.
rm -f results/ci/obs_addr results/ci/obs/live_smoke.folded
RF_OBS=on RF_RESULTS_DIR=results/ci RF_RUN_NAME=live_smoke \
    RF_OBS_ADDR_FILE=results/ci/obs_addr \
    cargo run --release -q -p relaxfault-bench --bin fleet_forecast -- \
    200000 --epochs=8 --serve-obs=0 --profile --linger-ms=30000 &
live_pid=$!
for _ in $(seq 1 300); do [ -s results/ci/obs_addr ] && break; sleep 0.1; done
[ -s results/ci/obs_addr ] || {
    echo "live gate: endpoint address never published" >&2
    kill "$live_pid" 2>/dev/null; exit 5
}
addr=$(cat results/ci/obs_addr)
obs_get() { # obs_get /route -> full HTTP response on stdout
    exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&-
}
obs_get /health | grep -q '"status": "ok"' \
    || { echo "live gate: /health unhealthy" >&2; kill "$live_pid"; exit 5; }
metrics=$(obs_get /metrics)
echo "$metrics" | head -n1 | grep -q "200 OK" \
    || { echo "live gate: /metrics not 200" >&2; kill "$live_pid"; exit 5; }
echo "$metrics" | grep -q "text/plain; version=0.0.4" \
    || { echo "live gate: /metrics content-type" >&2; kill "$live_pid"; exit 5; }
echo "$metrics" | grep -Eq '^# TYPE [a-zA-Z_][a-zA-Z0-9_:]* (counter|gauge|histogram)' \
    || { echo "live gate: /metrics not Prometheus text" >&2; kill "$live_pid"; exit 5; }
obs_get /flight | grep -q '^\[' \
    || { echo "live gate: /flight is not an event array" >&2; kill "$live_pid"; exit 5; }
# The run publishes a fresh document every boundary; once it completes it
# lingers, so polling until `complete` terminates deterministically.
progress_ok=
for _ in $(seq 1 600); do
    if obs_get /progress | grep -q '"status": "complete"'; then progress_ok=1; break; fi
    sleep 0.5
done
[ -n "$progress_ok" ] || { echo "live gate: /progress never completed" >&2; kill "$live_pid"; exit 5; }
obs_get /progress | grep -q '"forecast"' \
    || { echo "live gate: /progress has no forecast" >&2; kill "$live_pid"; exit 5; }
obs_get /quit >/dev/null
if ! wait "$live_pid"; then
    echo "live gate: served run did not exit cleanly" >&2
    exit 5
fi
folded=results/ci/obs/live_smoke.folded
[ -s "$folded" ] || { echo "live gate: no folded profile written" >&2; exit 5; }
grep -q "relsim" "$folded" \
    || { echo "live gate: folded profile names no relsim spans" >&2; exit 5; }
cargo run --release -q -p relaxfault-bench --bin obs_validate results/ci/obs \
    || { echo "live gate: results/ci/obs failed validation" >&2; exit 5; }
