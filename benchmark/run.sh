#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repo root.
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace              ... plus the traced per-layer pass
#   benchmark/run.sh --smoke              2 s windows, no trace (< 30 s)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Without this the binary would land in benchmark/target; the harness
# that drives single runs sets its own target directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout's last line is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2

# Pin glibc malloc's mmap threshold at its initial value. Left dynamic,
# the 8 MiB `vec![0; n]` payloads are served from recycled heap in one
# run and from fresh mmaps in the next (20 vs 44 ms per generation in
# `materialize_payloads`), which makes ckpt_gbps and peak_rss_mib
# bimodal between identical runs. Pinned, every large buffer is a fresh
# mapping: its cost is paid, and counted, every generation.
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072${GLIBC_TUNABLES:+:$GLIBC_TUNABLES}"

exec "$target/release/rbio-benchmark" "$@"
