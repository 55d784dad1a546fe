#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test. Run from the repo root.
#
# Approximate stage timings on the reference 8-core CI box (release cache
# warm; first run adds ~2 min of compilation):
#   fmt + clippy        ~40 s
#   lint.sh             <1 s
#   build + test        ~3 min (dominated by the workspace test suite)
#   model-check         ~10 s  (hard-capped at 60 s by `timeout`)
#   analyze-global      ~5 s
#   miri/tsan           <1 s when skipped (stable-only toolchain); ~5 min
#                       when a nightly toolchain with miri is installed
#   backend matrix      ~30 s
#   hazard analysis     ~5 s
#   chaos suites        ~2 min (each capped at 600 s; the sdc stage adds a
#                       3 s armed stepbench run plus its first build)
#   bench smoke         ~30 s
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> repo lints (unwrap/expect budget + SAFETY comments)"
tools/lint.sh

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> model-check (exhaustive interleaving exploration, psdns-verify)"
# Loom-style bounded DPOR exploration of the concurrency cores: the
# WorkerPool job/cursor protocol, ExecQueue fence-vs-condemn, the
# HealthMonitor state machine and buddy replication — every interleaving
# within the preemption bound, plus seeded-bug regressions that must FAIL
# the checker (the Relaxed-cursor reintroduction among them). Time-capped:
# an accidental state-space blowup is a loud failure, not a stuck job.
timeout 60 cargo test --release --offline -q -p psdns-verify

echo "==> analyze-global (cross-rank deadlock analyzer over recorded runs)"
# The happens-before/wait-for analyzer: property tests over random rank
# schedules plus recorded real 2-rank shrink-recovery and device hot-swap
# campaigns (zero deadlock cycles), and the post-deletion mutation that
# must produce a DeadlockReport naming both ranks.
timeout 120 cargo test --release --offline -q -p psdns-analyze --test proptest_global
timeout 300 cargo test --release --offline -q --test analyze_global

echo "==> miri/tsan (toolchain-gated deep checkers)"
# The model checker above runs everywhere; Miri and ThreadSanitizer need a
# nightly toolchain and are extras, not gates — CI boxes without nightly
# degrade to a skip notice rather than a failure.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && cargo +nightly miri --version >/dev/null 2>&1; then
    echo "    nightly+miri found: running psdns-sync under miri"
    cargo +nightly miri test --offline -q -p psdns-sync
else
    echo "    SKIPPED: no nightly toolchain with miri on this box"
    echo "    (install with: rustup toolchain install nightly --component miri)"
fi
if command -v rustup >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "    nightly+rust-src found: running psdns-sync under TSan"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test --offline -q -p psdns-sync \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "    SKIPPED: no nightly rust-src for TSan builds on this box"
fi

echo "==> backend matrix (DeviceBackend trait: simulated / host)"
# The same certified schedule must run on both backends: the conformance
# harness diffs copies, event edges, recorder logs and chaos digests across
# the simulated and host executors; the equivalence suite additionally pins
# byte-identical spectra.
cargo test --offline -q -p psdns-device --test backend_conformance
cargo test --offline -q --test backend_equivalence

echo "==> schedule hazard analysis (A2A configs A, B, C)"
# Static certification of the asynchronous pipeline: replay the planned
# stream/event DAG through the happens-before analyzer for all three
# all-to-all granularities; any ordering hazard exits nonzero.
cargo run --release --offline -q --example analyze_pipeline

echo "==> chaos smoke (seeded fault injection + recovery)"
# Deterministic by construction: the suite pins its own seeds, so a failure
# here reproduces locally with the exact same fault schedule.
cargo test --offline -q --test chaos_recovery

echo "==> chaos-shrink smoke (rank death -> agree -> shrink -> continue)"
# Self-healing acceptance: injected crashes mid-campaign must complete on
# the surviving ranks with reference-matching spectra, replay the same
# fault/recovery trace per seed (the suite sweeps 3 seed/epoch pairs), and
# convert unrecoverable double faults into typed errors — never a hang.
cargo test --offline -q --test shrink_recovery

echo "==> chaos-device soak (hung queues / lost devices -> typed error or hot-swap)"
# Device health & hot-swap acceptance: seeded hangs and losses at every
# pipeline phase must end in a typed DeviceError or a host-twin hot-swap
# with byte-identical spectra — never a wedged test. The suites bound every
# wait with the fence watchdog; the outer `timeout` is the backstop that
# turns a regression into a loud failure instead of a stuck CI job.
timeout 600 cargo test --offline -q -p psdns-device --test health
timeout 600 cargo test --offline -q --test device_hotswap

echo "==> chaos-sdc soak (silent corruption -> detect -> localize -> heal)"
# Numerical-integrity acceptance: seeded single-bit / single-value
# corruption at every instrumented site class (checksummed collective
# payloads, transpose staging buffers, the cross-product kernel) of a
# 2-rank solve must be detected by the owning layer (ABFT sidecar or the
# physics invariant monitors) and healed back onto the fault-free
# trajectory byte for byte; persistent corruption must surface as a typed
# error on every rank — never a hang or a silently wrong spectrum. The
# integrity proptests (Parseval never-false-positives on fault-free fields,
# checksums always catching flips) ride the workspace test stage above.
timeout 600 cargo test --offline -q --test sdc_recovery
# Armed end to end: a few seconds of the RK4 step under every integrity
# monitor with ABFT checksums on every collective, in release. The
# benchmark checks the physics between steps and exits nonzero on any
# physics or integrity failure.
timeout 600 cargo run --release --offline -q --manifest-path stepbench/Cargo.toml -- \
    --workload slab_rk4_armed_n48 --seconds 3 --trace 1

echo "==> bench smoke (perf regression gate vs committed baselines)"
# One timed iteration per benchmark, compared against BENCH_fft.json /
# BENCH_pipeline.json at the repo root; any benchmark more than 2x slower
# than its committed ns_per_iter fails. Two structural gates ride along:
# the batched r2c path must stay >= 1.5x the strided c2c batch of the same
# geometry (always), and 4-thread dispatch must reach >= 2x the 1-thread
# rate (skipped with a notice on boxes with < 4 cores, where scaling is
# unmeasurable). Regenerate the baselines with
#   cargo run --release -p psdns-bench --bin baseline
cargo run --release -p psdns-bench --bin baseline --offline -q -- --smoke --check

echo "CI OK"
