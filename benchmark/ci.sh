#!/usr/bin/env bash
# Benchmark CI: build, unit tests, one run per workload (traced and
# untraced), and BENCHMARK.json == `mb2-ledger manifest`. Run from the
# repo root; a later CI change can call this.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/mb2-ledger"

"$bin" manifest | diff -u BENCHMARK.json - \
  || { echo "BENCHMARK.json differs from 'mb2-ledger manifest'" >&2; exit 1; }

for workload in tatp_point tpch_scan smallbank_sync htap_mix; do
  for trace in 0 1; do
    last=$("$bin" --workload "$workload" --seed 1 --trace "$trace" | tail -n 1)
    case "$last" in
      *'"correct": true'*) echo "$workload trace=$trace ok" ;;
      *) echo "$workload trace=$trace failed: $last" >&2; exit 1 ;;
    esac
  done
done
echo "benchmark ci passed"
