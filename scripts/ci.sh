#!/usr/bin/env bash
# The full local gate: formatting, lints (warnings are errors), and tests.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark smoke (every workload at a tiny population)"
# The benchmark is a workspace of its own that calls the crates' public
# APIs; building and self-testing it here turns an API change it depends
# on into a CI failure rather than a broken benchmark run.
cargo test --release --manifest-path benchmark/Cargo.toml -q

echo "== repro smoke (e14 parallel sweep, e15 pushdown sweep)"
cargo run --release -q -p uli-bench --bin repro -- --smoke e14 e15

echo "== chaos gate (seeded sweep + delivery-invariant checker)"
cargo test -q --test chaos
cargo run --release -q -p uli-bench --bin repro -- --smoke e16

echo "== obs gate (e17 smoke snapshot vs golden)"
cargo run --release -q -p uli-bench --bin repro -- --smoke e17
if ! diff -u crates/bench/golden/e17_smoke.golden.json target/e17_smoke.metrics.json; then
    echo "obs gate: smoke snapshot drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e17_smoke.metrics.json crates/bench/golden/e17_smoke.golden.json" >&2
    exit 1
fi
if grep -q '"duplicate_registrations": \["' target/e17_smoke.metrics.json; then
    echo "obs gate: a metric was registered twice." >&2
    exit 1
fi

echo "== ingest gate (e18 smoke metrics vs golden)"
cargo run --release -q -p uli-bench --bin repro -- --smoke e18
if ! diff -u crates/bench/golden/e18_smoke.golden.json target/e18_smoke.metrics.json; then
    echo "ingest gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e18_smoke.metrics.json crates/bench/golden/e18_smoke.golden.json" >&2
    exit 1
fi

echo "== columnar gate (e19 smoke metrics vs golden)"
cargo run --release -q -p uli-bench --bin repro -- --smoke e19
if ! diff -u crates/bench/golden/e19_smoke.golden.json target/e19_smoke.metrics.json; then
    echo "columnar gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e19_smoke.metrics.json crates/bench/golden/e19_smoke.golden.json" >&2
    exit 1
fi
if ! grep -q '"outputs_identical": true' target/e19_smoke.metrics.json; then
    echo "columnar gate: columnar arms diverged from the row reference." >&2
    exit 1
fi

echo "== bounded-memory gate (e20 smoke metrics vs golden)"
# Tiny budgets on a real (smoke-sized) day: every budgeted stage must
# spill, return byte-identical output, and keep its high-water mark under
# the budget. The repro binary exits nonzero if any invariant fails; the
# greps keep the gate honest against accidental gate removal.
cargo run --release -q -p uli-bench --bin repro -- --smoke e20
if ! diff -u crates/bench/golden/e20_smoke.golden.json target/e20_smoke.metrics.json; then
    echo "bounded-memory gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e20_smoke.metrics.json crates/bench/golden/e20_smoke.golden.json" >&2
    exit 1
fi
if ! grep -q '"queries_identical": true' target/e20_smoke.metrics.json; then
    echo "bounded-memory gate: budgeted query rows diverged from unbounded." >&2
    exit 1
fi
if ! grep -q '"mat_matches_batch": true' target/e20_smoke.metrics.json; then
    echo "bounded-memory gate: streaming materialization diverged from batch." >&2
    exit 1
fi
if ! grep -q '"peaks_within_budget": true' target/e20_smoke.metrics.json; then
    echo "bounded-memory gate: a stage exceeded its memory budget." >&2
    exit 1
fi
if grep -q '"budgeted_spill_runs": 0,' target/e20_smoke.metrics.json; then
    echo "bounded-memory gate: no stage spilled — the tiny budgets are not binding." >&2
    exit 1
fi

echo "== lambda gate (e21 smoke metrics vs golden)"
# Streaming analytics vs batch over the pinned smoke day plus a seeded
# chaos sweep: views must be identical across worker counts, equal batch
# exactly for exact aggregates, stay within every sketch's declared error
# bound, and reconcile against the audited delivered partition. The repro
# binary exits nonzero if any invariant fails; the greps keep the gate
# honest against accidental gate removal.
cargo run --release -q -p uli-bench --bin repro -- --smoke e21
if ! diff -u crates/bench/golden/e21_smoke.golden.json target/e21_smoke.metrics.json; then
    echo "lambda gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e21_smoke.metrics.json crates/bench/golden/e21_smoke.golden.json" >&2
    exit 1
fi
if ! grep -q '"streaming_matches_batch": true' target/e21_smoke.metrics.json; then
    echo "lambda gate: streaming did not converge to batch." >&2
    exit 1
fi
for bound in hll_within_bound topk_within_bound percentile_within_bound; do
    if ! grep -q "\"$bound\": true" target/e21_smoke.metrics.json; then
        echo "lambda gate: $bound violated — a sketch left its declared error bound." >&2
        exit 1
    fi
done
if ! grep -q '"chaos_reconciled": true' target/e21_smoke.metrics.json; then
    echo "lambda gate: chaos streaming totals diverged from the delivered partition." >&2
    exit 1
fi

echo "== serving gate (e22 smoke metrics vs golden)"
# Point lookups off the incrementally-maintained index vs the batch
# engine over the pinned smoke day: every answer must be byte-identical
# to batch at every worker count, the suite must decode at least 50x
# fewer bytes than the batch path, the serve/* registry must reconcile
# against the maintainer state, and chaos indexes (with crash-window
# injection between hour-land and index-commit) must account for exactly
# the delivered partition after recovery. The repro binary exits nonzero
# if any invariant fails; the greps keep the gate honest against
# accidental gate removal.
cargo run --release -q -p uli-bench --bin repro -- --smoke e22
if ! diff -u crates/bench/golden/e22_smoke.golden.json target/e22_smoke.metrics.json; then
    echo "serving gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e22_smoke.metrics.json crates/bench/golden/e22_smoke.golden.json" >&2
    exit 1
fi
if ! grep -q '"answers_match": true' target/e22_smoke.metrics.json; then
    echo "serving gate: a serving answer diverged from the batch engine." >&2
    exit 1
fi
if ! grep -q '"index_lag_hours": 0,' target/e22_smoke.metrics.json; then
    echo "serving gate: the index lagged the delivered day." >&2
    exit 1
fi
if ! grep -q '"obs_reconciled": true' target/e22_smoke.metrics.json; then
    echo "serving gate: serve/* registry metrics diverged from maintainer state." >&2
    exit 1
fi
if ! grep -q '"chaos_consistent": true' target/e22_smoke.metrics.json; then
    echo "serving gate: chaos indexes diverged from the delivered partition." >&2
    exit 1
fi

echo "== delivery gate (e23 smoke metrics vs golden)"
# The parallel mover over the pinned smoke day: landed files, seen-set,
# and tap dispatch must be byte-identical to the serial mover at workers
# {1,4,8}, the seeded chaos sweep must stay invariant-clean and identical
# to serial with the 8-worker mover, and the machine-independent cost
# model must show >=3x at 8 workers. The repro binary exits nonzero if
# any invariant fails; the greps keep the gate honest against accidental
# gate removal.
cargo run --release -q -p uli-bench --bin repro -- --smoke e23
if ! diff -u crates/bench/golden/e23_smoke.golden.json target/e23_smoke.metrics.json; then
    echo "delivery gate: smoke metrics drifted from the golden file." >&2
    echo "If the change is intentional, refresh it with:" >&2
    echo "  cp target/e23_smoke.metrics.json crates/bench/golden/e23_smoke.golden.json" >&2
    exit 1
fi
if ! grep -q '"identical_across_workers": true' target/e23_smoke.metrics.json; then
    echo "delivery gate: parallel delivery diverged from serial." >&2
    exit 1
fi
if ! grep -q '"chaos_clean": true' target/e23_smoke.metrics.json; then
    echo "delivery gate: a chaos seed violated a delivery invariant." >&2
    exit 1
fi
if ! grep -q '"chaos_matches_serial": true' target/e23_smoke.metrics.json; then
    echo "delivery gate: parallel chaos outcome diverged from serial." >&2
    exit 1
fi

echo "ci: all green"
