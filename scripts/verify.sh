#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, clippy, rustdoc,
# formatting, the static-analysis conformance fuzz, checkpoint resume,
# and full-report bit-identity.
# Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== cargo clippy --workspace -D warnings =="
# Also the determinism and panic-hygiene gate: clippy.toml bans hash
# collections, wall clocks and thread identity; par_sweep.rs and
# checkpoint.rs warn on every panicking construct; the simulator's
# per-cycle fns warn on truncating casts. Each remaining site carries
# an #[expect(..., reason = "...")], and an unfulfilled expectation
# fails too. The cross-file rules are tests/source_rules.rs.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "== workspace test suite (analyzer, oracle, experiments) =="
cargo test -q --offline --workspace

echo "== perfbench tests (the benchmark builds against the public simulator API) =="
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench release smoke: every BENCHMARK.json workload, 1 s each =="
# The benchmark's own command and workload list, read from
# BENCHMARK.json, built in release like the benchmark runs it. Each
# run's last line is its JSON summary: every operation must be
# correct.
mapfile -t bench_cmd < <(jq -r '.command[]' BENCHMARK.json)
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  summary="$("${bench_cmd[@]}" --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  echo "$w: $summary"
  jq -e '.correct == true and .failed == 0' <<<"$summary" > /dev/null \
    || { echo "perfbench $w: an operation failed" >&2; exit 1; }
done

echo "== pipeline_view example: the probe's event hooks end to end =="
# The event hooks' only non-test user: it must exit 0 and close with
# its summary line.
pipeline_view="$(cargo run -q --release --offline --example pipeline_view)"
grep -q '^summary: ' <<<"$pipeline_view" \
  || { echo "pipeline_view printed no summary line" >&2; exit 1; }

echo "== differential fuzz, 10s budget, fixed seed =="
# Every differential run lints the program and checks engine
# conformance against the static enumeration (see tpc-oracle::diff).
cargo run -p tpc-oracle --release --offline --bin fuzz_sim -- \
  --seed 1 --iters 1000000 --budget-ms 10000 --size 400 --instrs 2500

echo "== conformance + fault-injection differential: 500 seeded programs =="
# Every scenario runs fault-free AND under a seeded all-kinds fault
# plan (40 per mille per kind per cycle); retirement must match the
# golden model either way — preconstruction is hint hardware — and
# every start point pushed / trace constructed must be statically
# enumerable in both modes.
cargo run -p tpc-oracle --release --offline --bin fuzz_sim -- \
  --seed 42 --iters 500 --size 300 --instrs 2000 --faults 40

echo "== .asm frontend differential smoke: every shipped example, all four configs =="
# Each example is loaded through the asm frontend, linted, cross-
# checked against the synthetic executor frontend, then run through
# the differential oracle fault-free and under a seeded fault plan.
for f in examples/asm/*.asm; do
  cargo run -p tpc-oracle --release --offline --bin asm_run -- \
    "$f" --instructions 5000 --faults 40
done

echo "== checkpoint/resume round-trip: interrupted sweep, identical output =="
ckpt="$(mktemp -d)/degradation.ckpt"
run_degradation() {
  cargo run -p tpc-experiments --release --offline --bin degradation -- \
    --quick "$@" 2>/dev/null
}
run_degradation > /tmp/degradation.reference.md
run_degradation --checkpoint "$ckpt" > /tmp/degradation.full.md
diff /tmp/degradation.reference.md /tmp/degradation.full.md
# Interrupt: keep the header plus the first 5 recorded cells, then
# resume. The resumed sweep re-runs only what is missing and must
# print byte-identical output.
head -n 6 "$ckpt" > "$ckpt.cut" && mv "$ckpt.cut" "$ckpt"
run_degradation --checkpoint "$ckpt" > /tmp/degradation.resumed.md
diff /tmp/degradation.reference.md /tmp/degradation.resumed.md
rm -rf "$(dirname "$ckpt")" /tmp/degradation.{reference,full,resumed}.md

echo "== static-vs-dynamic coverage report (BENCH_analysis.json) =="
# Byte-identical at any job count, stdout and JSON alike.
cargo run -p tpc-experiments --release --offline --bin analysis_report -- \
  --quick --jobs 1 > /tmp/analysis.j1.md
cp BENCH_analysis.json /tmp/analysis.j1.json
cargo run -p tpc-experiments --release --offline --bin analysis_report -- \
  --quick --jobs 4 > /tmp/analysis.j4.md
diff /tmp/analysis.j1.md /tmp/analysis.j4.md
diff /tmp/analysis.j1.json BENCH_analysis.json
rm /tmp/analysis.j1.md /tmp/analysis.j4.md /tmp/analysis.j1.json

echo "== full report regenerates bit-identically (report_full.md) =="
# No optimization or refactor lands unless the checked-in full report
# regenerates diff-clean; a deliberate model change regenerates and
# commits it in the same change.
cargo run -p tpc-experiments --release --offline --bin all > /tmp/r.md
diff report_full.md /tmp/r.md
rm /tmp/r.md

echo "verify: OK"
