#!/usr/bin/env bash
# Full offline CI gate: format, lint, build, test. No network access
# is needed at any step (the workspace has zero crates.io dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> perfbench self-tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench bfs_rmat smoke (seed-1 outputs match perfbench/expect/)"
# perfbench checks the BFS trees against a sequential reference and the
# simulated outputs against the committed seed-1 records; its last line
# reports the verdict.
bfs_smoke=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload bfs_rmat --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$bfs_smoke"
grep -q '"correct": true' <<<"$bfs_smoke"

# The same check on the message-passing workloads: every packet is
# CRC-sealed and verified per hop, so a checksum mismatch anywhere (NAK
# storms, replays) moves the det digest away from perfbench/expect/.
for workload in p2p_sweep torus_faults; do
    echo "==> perfbench $workload smoke (seed-1 outputs match perfbench/expect/)"
    smoke=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$smoke"
    grep -q '"correct": true' <<<"$smoke"
done

echo "==> trace-export smoke (Perfetto exporter self-validates nesting + JSON)"
cargo run --release --offline -q -p apenet-bench --bin trace-export

echo "==> harness artifacts (figures, tables and traces match committed)"
# Every paper figure and table (the HSG and BFS applications included)
# and the other harness artifacts, plus the two traces written above;
# the remaining artifacts are diffed below.
harness_bins=(fig03 table1 fig04 fig05 fig06 fig07 fig08 fig09 fig10
    table2 table3 fig11 table4 fig12
    bar1-ablation bidir chaos-sweep degraded-route latency-breakdown)
harness_outputs=(results/trace_pingpong.json results/trace_incast.json)
for bin in "${harness_bins[@]}"; do
    cargo run --release --offline -q -p apenet-bench --bin "$bin" >/dev/null
    harness_outputs+=("results/${bin//-/_}.txt")
done
git diff --exit-code -- "${harness_outputs[@]}"

echo "==> shell exports cannot move artifacts (plane variables set: outputs unchanged)"
# Planes are explicit arguments only. These variables once armed or
# attached planes from the shell; set to "on" they must change nothing.
for bin in incast-goodput fig06 table2; do
    APENET_TRACE=capture APENET_SAMPLE=1 APENET_PROFILE=1 APENET_TAIL=1 \
    APENET_SLO=1 APENET_OVERLOAD=1 APENET_ROUTE_AROUND_FAULTS=1 HSG_TRACE=1 \
        cargo run --release --offline -q -p apenet-bench --bin "$bin" >/dev/null
done
git diff --exit-code -- results/incast_goodput.txt results/fig06.txt results/table2.txt

echo "==> BFS sweep determinism (table4 + fig12 serial match the concurrent run)"
# The sweep points share one memoised graph and its exchange-slot sizes;
# a serial pass must write the same bytes as the concurrent one above.
for bin in table4 fig12; do
    APENET_SWEEP_THREADS=1 cargo run --release --offline -q -p apenet-bench --bin "$bin" >/dev/null
done
git diff --exit-code -- results/table4.txt results/fig12.txt

echo "==> deterministic telemetry artifacts (sim-profile + congestion-heatmap match committed)"
cargo run --release --offline -q -p apenet-bench --bin sim-profile
cargo run --release --offline -q -p apenet-bench --bin congestion-heatmap
git diff --exit-code -- results/sim_profile.txt results/congestion_heatmap.txt

echo "==> scheduler equivalence (calendar queue vs heap model, debug assertions on)"
# The test profile keeps debug_assert! live, so the calendar's internal
# invariants (floor monotonicity, cache coherence) are checked on every
# push/pop of the 96 seeded random schedules — not just the pop order.
cargo test --offline -q -p apenet-sim --test calendar_equiv

echo "==> perf-regression gate (fresh microbench vs committed BENCH_microbench.json)"
# Tolerance covers shared-runner noise; the calendar-queue engine bought
# enough headroom (6x on the real-run bench) that a step-function
# regression lands far outside 25%. Deterministic event counts are
# compared exactly regardless of tolerance.
APENET_GATE_TOL="${APENET_GATE_TOL:-0.25}" \
APENET_BENCH_ITERS="${APENET_BENCH_ITERS:-5}" \
    cargo run --release --offline -q -p apenet-bench --bin perf-gate

echo "==> chaos soak (APENET_CHAOS_CASES=${APENET_CHAOS_CASES:-512} seeded fault schedules)"
APENET_CHAOS_CASES="${APENET_CHAOS_CASES:-512}" \
    cargo test --release --offline -q -p apenet-cluster --test chaos

echo "==> GET chaos soak (one-sided reads + selective signaling under the same schedules)"
APENET_CHAOS_CASES="${APENET_CHAOS_CASES:-512}" \
    cargo test --release --offline -q -p apenet-cluster --test get_chaos

echo "==> hard-fault soak (link kills, partitions, RX-ring exhaustion)"
cargo test --release --offline -q -p apenet-cluster --test hard_faults

echo "==> incast/hotspot soak (overload plane off = collapse, on = survival, plus cable-kill and partition composition)"
cargo test --release --offline -q -p apenet-cluster --test incast

echo "==> deterministic incast goodput curve (plane on/off matches committed)"
cargo run --release --offline -q -p apenet-bench --bin incast-goodput
git diff --exit-code -- results/incast_goodput.txt

echo "==> deterministic GET sweep (doorbell-batch saturation matches committed)"
cargo run --release --offline -q -p apenet-bench --bin get-sweep
git diff --exit-code -- results/get_sweep.txt

echo "==> tail-latency attribution (per-stage tail blame matches committed)"
cargo run --release --offline -q -p apenet-bench --bin tail-attribution
git diff --exit-code -- results/tail_attribution.txt

echo "==> SLO window timeline (burn-rate pager fires on the unprotected collapse, silent otherwise; matches committed)"
# The bin itself asserts the regime contract (>=1 burn-rate alert with
# the overload plane off, zero alerts clean and plane-on); the diff pins
# every window digest, budget figure and alert instant byte-for-byte.
cargo run --release --offline -q -p apenet-bench --bin slo-report
git diff --exit-code -- results/slo_timeline.txt

echo "==> ci.sh: all green"
