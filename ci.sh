#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
# The workspace builds offline — all former crates.io dev-dependencies
# (proptest, criterion) are vendored as shims/ — so no network is needed.
# Pass --slow to also run the workflow's slow tier: release tests with
# the #[ignore]d sweeps included, plus the multi_step campaign that
# produces target/paper-results/multi_step.json.
set -euo pipefail
cd "$(dirname "$0")"

SLOW=0
[[ "${1:-}" == "--slow" ]] && SLOW=1

echo "== build =="
cargo build --workspace --all-targets

echo "== test =="
cargo test -q --workspace

echo "== rbio lib suite once more, eight tests at a time =="
# Tests that share process-wide state (the restore panic injection, the
# service counters) must not interfere when many run side by side.
cargo test -q -p rbio --lib -- --test-threads 8

echo "== checksum kernel, sealer and datapath equivalence once more, optimised =="
# The interleaved CRC32C loop only takes its real shape (three chains in
# registers, intrinsics inlined) with optimisations on; debug builds test
# a different instruction stream.
cargo test --release -q -p rbio --lib -- format:: commit::
cargo test --release -q -p rbio --test seal_memory
# The allocator guard and the pinned copies table measure the optimised
# datapath: a warm generation leases recycled buffers and maps none.
cargo test --release -q -p rbio --test steady_state_alloc
cargo test --release -q -p rbio --test copies_per_byte
# Restores, reads and copies lease without the zero-fill: into a pool
# dirtied with 0xA5 they must still hand back only the bytes written.
cargo test --release -q -p rbio --test dirty_pool
# Restore reads through the optimised CRC kernel too: the streaming reader
# against the image reader, bytes and refusal texts.
cargo test --release -q --test restore_equivalence
cargo test --release -q --test datapath_equivalence
# The pool worker's batches and the raw write loop in the optimised
# build: pipelined runs against the serial reference, and armed faults
# against the coalescer.
cargo test --release -q --test pipeline_equivalence
cargo test --release -q --test fault_coalesce_contract
# The service's sessions in the build the benchmark measures: pooled
# restore images, owned and borrowed writes, fair share under load.
cargo test --release -q -p rbio --lib service::
cargo test --release -q --test service_isolation
# One fsync per atomic file, in the optimised build too: the journal's
# shape per strategy, and an injected fsync failure end to end.
cargo test --release -q -p rbio --test crash_torture -- every_atomic_file
cargo test --release -q --test failure_injection -- fsync_eio

echo "== benchmark package (outside the workspace) builds and passes its tests =="
# A crates/core API change that breaks benchmark/ must fail here, not at
# the next benchmark run.
(cd benchmark && cargo build --offline --release && cargo test --offline -q)

echo "== perf trajectory (BENCH_trajectory.json) is valid =="
# Schema, increasing PR order, verdicts that follow from their numbers,
# and every claimed row ok; then the chained ratios render.
target/debug/trajectory check
target/debug/trajectory render > /dev/null

echo "== rbio-check fast schedule sweep (256 seeds) =="
# Deterministic schedule exploration of the concurrency harness's
# program families. Any failure prints the seed and the exact schedule;
# replay it with: rbio-check replay --program <pX> --schedule "..."
RBC=target/debug/rbio-check
"$RBC" sweep --program p1 --seeds 128
"$RBC" sweep --program p1 --seeds 64 --preempt
"$RBC" sweep --program p2 --seeds 16
# No writer sleeps a jitter: the pipelined ≡ serial interleavings of p2
# (exec), p3 (rt) and p12 (staging reuse) are explored here, preempted.
"$RBC" sweep --program p2 --seeds 64 --preempt
"$RBC" sweep --program p3 --seeds 16
"$RBC" sweep --program p3 --seeds 64 --preempt
"$RBC" sweep --program p4 --seeds 32
"$RBC" sweep --program p5 --seeds 256
"$RBC" sweep --program p6 --seeds 16
"$RBC" sweep --program p7 --seeds 16
"$RBC" sweep --program p8a --seeds 16
"$RBC" sweep --program p8b --seeds 16
"$RBC" sweep --program p8c --seeds 16
"$RBC" sweep --program p9a --seeds 32
"$RBC" sweep --program p9b --seeds 32
"$RBC" sweep --program p9c --seeds 32
"$RBC" sweep --program p10 --seeds 16
"$RBC" sweep --program p11 --seeds 16
# p11 (coIO through exec) is the controlled family that runs exec plan
# barriers: their waiters are mailbox receives, on RecvEmpty's budget.
"$RBC" sweep --program p11 --seeds 64 --preempt
"$RBC" sweep --program p12 --seeds 16
"$RBC" sweep --program p12 --seeds 64 --preempt
"$RBC" sweep --program p13 --seeds 16
# The p9b sweep must catch a planted arrival-blind grant (the
# work-conserving arbiter deciding while a contender is still arriving).
if "$RBC" sweep --program p9b --seeds 32 --revert-pr33 > /dev/null; then
  echo "revert-pr33: planted arrival-blind grant was NOT caught by p9b" >&2
  exit 1
fi
# The p5 sweep must catch a planted unfenced zombie commit (the failover
# director admitting a commit from a writer it declared dead).
if "$RBC" sweep --program p5 --seeds 32 --revert-pr5 > /dev/null; then
  echo "revert-pr5: planted unfenced zombie commit was NOT caught by p5" >&2
  exit 1
fi

echo "== crash-image torture sweep (fast tier) =="
# Record each strategy's durability op stream and restore ~64 legal
# post-crash filesystem images per strategy; then prove the harness
# catches a planted missing-dir-fsync (revert of the PR 1 barrier).
RCR=target/debug/rbio-crash
"$RCR" sweep --images 64
# Each scenario records under the schedule controller, seeded from
# --seed: two runs over one work directory print the same images and
# write the same journal (and both still catch the planted revert).
SWEEP_DIR=$(mktemp -d)
"$RCR" sweep --strategy rbio --images 32 --revert-pr1 --work "$SWEEP_DIR/w" > "$SWEEP_DIR/out1"
cp "$SWEEP_DIR/w/rbio/crash.journal" "$SWEEP_DIR/journal1"
"$RCR" sweep --strategy rbio --images 32 --revert-pr1 --work "$SWEEP_DIR/w" > "$SWEEP_DIR/out2"
diff "$SWEEP_DIR/out1" "$SWEEP_DIR/out2"
diff "$SWEEP_DIR/journal1" "$SWEEP_DIR/w/rbio/crash.journal"
rm -rf "$SWEEP_DIR"

echo "== offline scrubber smoke (repair selftest + clean dry-run) =="
target/debug/rbio-scrub --demo > /dev/null
SCRUB_DIR=$(mktemp -d)
target/debug/rbio-scrub --dir "$SCRUB_DIR" --dry-run --json > /dev/null
rm -rf "$SCRUB_DIR"

echo "== rbio-tune fast gate (small budget, winner in the Fig. 8 band) =="
# The autotuner must rediscover the paper's nf ~= 1024 sweet spot on
# the calibrated Intrepid model even under the small CI eval budget;
# --expect-nf makes a miss a hard failure (exit 1).
target/debug/rbio-tune search --np 16384 --env intrepid --budget small \
  --expect-nf 512:2048 > /dev/null

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Public docs must not link crate-private items: a demoted item's link
# fails here, in every workspace crate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== fmt =="
cargo fmt --check

if [[ "$SLOW" == 1 ]]; then
  echo "== test (release, --include-ignored) =="
  cargo test --release -q --workspace -- --include-ignored

  echo "== rbio-check deep schedule sweep (4096 seeds, release) =="
  cargo build --release -p rbio-check
  RBC=target/release/rbio-check
  "$RBC" sweep --program p1 --seeds 2048
  "$RBC" sweep --program p1 --seeds 1024 --preempt
  "$RBC" sweep --program p2 --seeds 512
  "$RBC" sweep --program p3 --seeds 256
  "$RBC" sweep --program p4 --seeds 256
  "$RBC" sweep --program p5 --seeds 4096
  "$RBC" sweep --program p6 --seeds 256
  "$RBC" sweep --program p7 --seeds 256
  "$RBC" sweep --program p8a --seeds 256
  "$RBC" sweep --program p8b --seeds 256
  "$RBC" sweep --program p8c --seeds 256
  "$RBC" sweep --program p9a --seeds 512
  "$RBC" sweep --program p9b --seeds 512
  "$RBC" sweep --program p9c --seeds 512
  "$RBC" sweep --program p9a --seeds 256 --preempt
  "$RBC" sweep --program p9b --seeds 256 --preempt
  "$RBC" sweep --program p9c --seeds 256 --preempt
  "$RBC" sweep --program p10 --seeds 256
  "$RBC" sweep --program p10 --seeds 64 --preempt
  "$RBC" sweep --program p11 --seeds 256
  "$RBC" sweep --program p12 --seeds 256
  "$RBC" sweep --program p13 --seeds 256

  echo "== crash-image torture sweep (slow tier, >= 512 images) =="
  # Exhaustive tier: at least 512 distinct crash images across the
  # three strategies plus three-step recordings, a planted-revert catch,
  # and the scrub-repair throughput selftest.
  cargo build --release -p rbio-check
  RCR=target/release/rbio-crash
  mkdir -p target/paper-results
  "$RCR" sweep --images 224 --steps 3 --seed 0x5eed --json target/paper-results/crash.json
  "$RCR" sweep --images 192 --seed 0xbeef
  "$RCR" sweep --strategy rbio --images 64 --revert-pr1 > /dev/null
  target/release/rbio-scrub --demo > /dev/null

  echo "== backend conformance, both backends swept (release) =="
  cargo test --release -q -p rbio --test backend_conformance

  echo "== AddressSanitizer over the unsafe file (sys) and the tier =="
  # Needs a nightly toolchain with the sanitizer runtime; its own target
  # directory keeps the instrumented artifacts apart.
  if cargo +nightly --version > /dev/null 2>&1; then
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
      cargo +nightly test --offline -q -p rbio --lib \
      --target x86_64-unknown-linux-gnu -- sys:: tier::
  else
    echo "skipped: no nightly toolchain installed"
  fi

  echo "== wall-clock benchmark smoke (every workload, 2 s windows) =="
  bash benchmark/run.sh --smoke

  echo "== multi_step campaign (depth 2) =="
  cargo run --release -p rbio-bench --bin multi_step -- 16384 20 10 2
  ls -l target/paper-results/multi_step.json

  echo "== tiering ablation (perceived vs durable bandwidth) =="
  cargo run --release -p rbio-bench --bin tiering -- 16384

  echo "== rbio-tune full-budget gate (exact nf=1024 rediscovery) =="
  cargo build --release -p rbio-tune
  target/release/rbio-tune search --np 16384 --env intrepid --budget full \
    --expect-nf 1024:1024 > /dev/null

  echo "== autotuner campaign (full budget, every machine variant) =="
  cargo run --release -p rbio-bench --bin tune
fi

echo "ci: all checks passed"
