#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Every step must pass before merge.
#
# The build is hermetic: no network, no registry deps. Everything below
# runs offline against the in-tree workspace only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (layer 0: the clippy groups Cargo.toml denies)"
cargo clippy --workspace --all-targets

echo "==> xtask lint --self-test (lint engine vs seeded corpus)"
cargo run -q -p xtask -- lint --self-test

echo "==> xtask lint (layer 1: semantic source lints)"
mkdir -p results
cargo run -q -p xtask -- lint --json > results/lint_report.json

echo "==> xtask validate --self-test (validator vs pinned spec corpus)"
cargo run -q -p xtask -- validate --self-test

echo "==> xtask validate (layer 2: specs + pipeline-graph validator)"
cargo run -q -p xtask -- validate --json > results/validate_report.json

echo "==> xtask validate --seeded-negatives (gate self-test)"
cargo run -q -p xtask -- validate --seeded-negatives

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo check perfbench (the benchmark package builds against the library API)"
cargo check --offline --locked --manifest-path perfbench/Cargo.toml --all-targets

echo "==> cargo test (CM_THREADS=1)"
CM_THREADS=1 cargo test -q --workspace

echo "==> cargo test (CM_THREADS=4)"
CM_THREADS=4 cargo test -q --workspace

echo "==> fault matrix (CM_THREADS=2)"
CM_THREADS=2 cargo test -q --test fault_matrix

echo "==> CM_FAULTS smoke: fault drill must be thread-invariant"
FAULT_SPEC='seed=13;topics=unavailable@0.4;keywords=transient(2)@0.5;user_reports=corrupt@0.3'
CM_FAULTS="$FAULT_SPEC" CM_THREADS=1 cargo run -q --release --example fault_drill \
    > /tmp/cm_fault_drill_t1.out
CM_FAULTS="$FAULT_SPEC" CM_THREADS=4 cargo run -q --release --example fault_drill \
    > /tmp/cm_fault_drill_t4.out
diff /tmp/cm_fault_drill_t1.out /tmp/cm_fault_drill_t4.out
echo "    fault drill output identical across thread counts"

echo "==> shard smoke: streamed curation must be bit-identical to resident"
# The anchored model at three shard sizes (1 row, a prime, whole-corpus),
# EM and majority vote at the prime and whole-corpus, each at two thread
# counts; the example exits non-zero if any pair diverged.
CM_THREADS=1 cargo run -q --release --example shard_smoke
CM_THREADS=4 cargo run -q --release --example shard_smoke

echo "==> serve smoke: crash/restart must be bit-identical to a clean run"
# The drill loads specs/serve.json (mixed fault storm), checkpoints every
# tick, and prints a deterministic report. Three runs against the pinned
# fixture: clean, crashed after the 2nd batch ingest (stdout discarded),
# and resumed off the crash's checkpoint at a different thread count.
SERVE_CKPT=/tmp/cm_serve_drill_ckpt.ckpt
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=1 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_clean.out
diff /tmp/cm_serve_drill_clean.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=2 CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /dev/null
test -f "$SERVE_CKPT" || { echo "crashed run left no checkpoint"; exit 1; }
head -c 4 "$SERVE_CKPT" | grep -q 'CMCK' || { echo "checkpoint is not a wire delta log"; exit 1; }
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_resume.out
diff /tmp/cm_serve_drill_resume.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
echo "    serve drill identical across clean and crash/restart runs"

echo "==> serve smoke: delta-log resume with a torn tail"
# The wire checkpoint is a base snapshot + append-only delta log. Kill
# mid-run (compaction deferred so the tail is a delta record), then tear
# the last record the way a crash mid-append would; resumes at both
# thread counts must recover to the last complete record and still match
# the pinned fixture byte for byte.
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=4 CM_CKPT_COMPACT_TICKS=10000 CM_THREADS=1 \
    cargo run -q --release --example serve_drill > /dev/null
test -f "$SERVE_CKPT" || { echo "killed run left no delta log"; exit 1; }
head -c 4 "$SERVE_CKPT" | grep -q 'CMCK' || { echo "checkpoint is not a wire delta log"; exit 1; }
truncate -s -7 "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=1 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_torn_t1.out
diff /tmp/cm_serve_drill_torn_t1.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=4 CM_CKPT_COMPACT_TICKS=10000 CM_THREADS=4 \
    cargo run -q --release --example serve_drill > /dev/null
truncate -s -7 "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_torn_t4.out
diff /tmp/cm_serve_drill_torn_t4.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
echo "    delta-log resume identical after torn-tail kills at CM_THREADS=1 and 4"

echo "==> bench smoke: serve group"
# One end-to-end service run (compile + run guard; the committed
# results/BENCH_serve.json comes from an uncapped run).
CM_SERVE_JSON=/tmp/cm_bench_serve_smoke.json \
    cargo bench -q -p cm-bench --bench substrates -- serve

echo "==> bench smoke: scale group, capped corpus"
# Executes the sharded scale sweep once at a small row cap (compile +
# run guard; the committed results/BENCH_scale.json comes from a full
# uncapped run).
CM_SCALE_MAX_ROWS=20000 CM_SCALE_JSON=/tmp/cm_bench_scale_smoke.json \
    cargo bench -q -p cm-bench --bench substrates -- scale

echo "==> bench smoke: kernels group, 1 sample"
# Executes every columnar hot-path kernel benchmark once (compile +
# run guard only; timings at this sample size are meaningless).
CM_BENCH_SAMPLES=1 cargo bench -q -p cm-bench --bench substrates -- kernels

echo "ci: all gates passed"
