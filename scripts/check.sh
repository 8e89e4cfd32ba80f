#!/usr/bin/env sh
# Full local quality gate for the tecopt workspace:
#   1. release build of every crate,
#   2. rustfmt in check mode (the tree is formatted; diffs fail the gate),
#   3. clippy across all targets with warnings promoted to errors
#      (every crate warns on unwrap()/expect() in non-test code;
#      clippy.toml exempts test code),
#   4. the workspace-native static analyzer (tecopt-xtask lint): NaN-unsafe
#      comparisons, panicking paths in solver kernels, std::thread outside
#      tecopt::parallel, unsafe code, truncating float casts, todo markers,
#      and the flow-aware concurrency rules (lock-order inversion cycles,
#      guards across blocking calls, swallowed Results, uncancelled sweep
#      loops, unpaced service-layer retry loops), checked against the
#      committed findings baseline
#      (rule catalog + suppression audit table in DESIGN.md §11, flow
#      machinery in §16), followed by the cache benchmark, which fails
#      unless a cold full-workspace lint is under 1 s and a warm
#      (incremental-cache) one is at least 5x faster,
#   5. a locked release build of the committed benchmark (perfbench/, its
#      own workspace over crates/* by path), so an API change that breaks
#      the benchmark, or one that would rewrite perfbench/Cargo.lock,
#      fails here,
#   6. the complete test suite, including the fault-injection error-path
#      coverage (tests/error_paths.rs, every variant reached through its
#      remaining producers), the property-based robustness sweeps
#      (tests/robustness.rs), the cross-backend/parallel determinism suite
#      (tests/backend_equivalence.rs), the journal's torn-tail
#      regressions and golden-bytes format pins for the sweep checkpoint,
#      transient checkpoint and explore ledger schemas (DESIGN.md §19),
#      and the offline generator's golden pins (tests/generator_golden.rs),
#   7. a single-threaded re-run of the test suite, so any accidental
#      dependence of the parallel sweeps on test-runner concurrency shows
#      up as a divergence between the two passes,
#   8. the chaos pass (tests/chaos.rs): fault injection against the
#      supervised sweep runtime (cancellation, deadlines, worker panics,
#      checkpoint kill/resume), single-threaded and including the
#      `#[ignore]`d heavyweight 32x32 kill-at-every-probe-boundary sweep
#      that the ordinary test passes skip,
#   9. the serve chaos pass (tests/serve_chaos.rs): torn frames, client
#      deaths mid-request, nominal and overloaded bursts with every
#      request accounted for, deadline storms, panic containment, and
#      graceful drain against a live tecopt-serve server, single-threaded
#      and including the `#[ignore]`d 8-client mixed-chaos soak,
#  10. the transient chaos pass (tests/transient_chaos.rs): hostile and
#      panicking controllers, mid-trace power spikes, NaN samples, and
#      kill-at-every-step checkpoint resume against the safety-enveloped
#      transient runtime (DESIGN.md §14), single-threaded and including
#      the `#[ignore]`d playback-resume chains,
#  11. the rank-k update equivalence suite (tests/update_equivalence.rs):
#      property-based agreement (≤ 1e-8) between SMW-updated and freshly
#      factored solves, the degraded-condition refactorization fallback,
#      and cancellation of a supervised fast deployment (DESIGN.md §15),
#  12. the fleet chaos pass (tests/fleet_chaos.rs): shard kills and
#      restarts mid-sweep under load, failover, health-machine recovery,
#      cache replication (including poisoned replicas), bit-identical
#      checkpointed sweep handoff, and the wire-level ping/extension-frame
#      forward-compatibility contract (DESIGN.md §17), single-threaded and
#      including the `#[ignore]`d kill-every-shard soak,
#  13. the explorer chaos pass (tests/explore_chaos.rs): kill-at-every-
#      ledger-boundary resume with zero duplicated evaluations and a
#      bit-identical Pareto front, typed quarantine of panicking/NaN/
#      envelope-tripping candidates across kill cycles, torn-tail and
#      full-disk regressions at every fixed persist site, and the keyed
#      Explore fleet-failover handoff (DESIGN.md §18), single-threaded
#      and including the `#[ignore]`d 10k-candidate kill/resume soak,
#  14. the release-mode timing gates (tests/perf_gates.rs, all
#      `#[ignore]`d, run one at a time): transient factorization-reuse
#      speedup ≥ 5x with bit-identical trajectories and safety-envelope
#      overhead ≤ 2%; 32x32 rank-k greedy deployment ≥ 5x over the
#      refactor-per-probe baseline with peak drift ≤ 1e-8; fleet failover
#      p99 ≤ 5x healthy and hedged p99 ≤ 0.75x unhedged against a 20x
#      straggler; explore killed-at-half + resume ≤ 1.02x a clean ledger
#      sweep with zero duplicated evaluations, bit-identical fronts and
#      parallel speedup ≥ min(0.85 x workers, 8).
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p tecopt-xtask -- lint --baseline lint-baseline.txt"
cargo run -q -p tecopt-xtask -- lint --baseline lint-baseline.txt

echo "==> cargo run --release -p tecopt-xtask -- bench-cache --enforce"
cargo run --release -q -p tecopt-xtask -- bench-cache --enforce

echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --workspace -- --test-threads=1"
cargo test -q --workspace -- --test-threads=1

echo "==> cargo test -q --test chaos -- --test-threads=1 --include-ignored"
cargo test -q --test chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test serve_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test serve_chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test transient_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test transient_chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test update_equivalence"
cargo test -q --test update_equivalence

echo "==> cargo test -q --test fleet_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test fleet_chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test explore_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test explore_chaos -- --test-threads=1 --include-ignored

echo "==> cargo test --release -q --test perf_gates -- --ignored --test-threads=1"
cargo test --release -q --test perf_gates -- --ignored --test-threads=1

echo "==> all checks passed"
