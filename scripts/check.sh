#!/usr/bin/env bash
# Full local gate: everything CI runs, in the order cheapest-feedback-first.
#
#   scripts/check.sh            # build + test + fmt + clippy + doc
#   OFFLINE=1 scripts/check.sh  # pass --offline to every cargo call
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${OFFLINE:-0}" == "1" ]]; then
  CARGO_FLAGS+=(--offline)
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}" --workspace

echo "==> cargo test"
cargo test -q "${CARGO_FLAGS[@]}" --workspace

echo "==> fault matrix (resilience + fault-injection suite)"
cargo test -q "${CARGO_FLAGS[@]}" --test fault_matrix

echo "==> E-FAULT smoke (availability table under a scripted outage)"
cargo run -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments -- fault

echo "==> E-RP smoke (all seven replacement policies at three capacities)"
cargo run -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments -- replacement

echo "==> E-STAGE smoke (staged-plan partial hits + lease >=2x gate,"
echo "    zero-copy probe, 4 MiB big-doc smoke; writes BENCH_stage.json)"
cargo run -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments -- stage

echo "==> E-CRASH smoke (write-journal durability; writes BENCH_crash.json)"
cargo run -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments -- crash

echo "==> E-MERGE smoke (op-based multi-writer merge; writes BENCH_merge.json)"
cargo run -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments -- merge

# The reduced E-LOAD and E-OVERLOAD smokes run in target/smoke, so their
# BENCH_*.json land there instead of over the tracked full-size files.
mkdir -p target/smoke

echo "==> E-LOAD smoke (trace-driven load + coalesce probe + write mix; writes target/smoke/BENCH_load.json)"
(cd target/smoke && E_LOAD_USERS=20000 E_LOAD_OPS=4000 E_LOAD_THREADS=4 \
  E_LOAD_WMIX_WRITES=800 E_LOAD_WMIX_DOCS=48 E_LOAD_WMIX_FLUSH_EVERY=400 \
  cargo run -q --release "${CARGO_FLAGS[@]}" --manifest-path ../../Cargo.toml \
  -p placeless-bench --bin experiments -- load)

echo "==> E-OVERLOAD smoke (deadline admission + brownout under a 10x burst; writes target/smoke/BENCH_overload.json)"
(cd target/smoke && E_OVERLOAD_EVENTS=300 E_OVERLOAD_THREADS=4 E_OVERLOAD_WALL_MICROS=150 \
  cargo run -q --release "${CARGO_FLAGS[@]}" --manifest-path ../../Cargo.toml \
  -p placeless-bench --bin experiments -- overload)

echo "==> benchmark determinism self-tests (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (-D warnings)"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc "${CARGO_FLAGS[@]}" --workspace --no-deps

echo "==> all checks passed"
