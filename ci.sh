#!/usr/bin/env bash
# Local CI: everything must pass before a change lands.
#
#   ./ci.sh          # fmt + clippy + build + tests
#   ./ci.sh quick    # skip the release build
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Custom invariant lints: deny-by-default, non-zero exit on any
# finding. Scope and rules live in crates/analysis (DESIGN.md §12).
echo "==> esr-lint (custom invariant lints)"
cargo run -q -p esr-analysis --bin esr-lint

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -p esr-tso -p esr-sim --features capture -q"
cargo test -p esr-tso --features capture -q
cargo test -p esr-sim --features capture -q

# The observability layer. Its unit, property and doc tests (esr-obs:
# histograms, gauges, rings, the `metrics!`/`histograms!` declaration
# macros, the exposition's group walks) and the declared-once
# parity/golden tests already ran in the workspace pass above:
# esr-net `metrics::tests::{a_stats_frame_from_251d76a_decodes_with_new_fields_defaulted,
# every_series_251d76a_rendered_is_still_rendered,
# every_declared_field_renders_its_value_exactly_once,
# readme_lists_every_declared_series}` and `net_tests`
# `wire_stats_of_a_monitored_shipping_primary_equal_metrics`. What the
# workspace pass does not build is the kernel hooks with the
# per-transaction event ring compiled in (feature-gated off by default)
# — including the driver-equivalence test proving obs never changes
# outcomes.
echo "==> cargo test -p esr-tso --features obs-events -q"
cargo test -p esr-tso --features obs-events -q

# Failure path: the fault-injection chaos suite (real client/server
# pairs behind the seeded fault proxy; every test carries its own
# wall-clock watchdog), the kernel lease/reap property tests, and the
# checker replay of fault-injected simulator histories. All seeds are
# fixed in the tests; the outer timeouts are belt-and-braces hang
# guards so a regression fails CI instead of wedging it.
echo "==> chaos: esr-faults proxy suite"
timeout 600 cargo test -p esr-faults -q
echo "==> chaos: kernel lease/reap property tests"
timeout 300 cargo test -p esr-tso --test lease_props -q
echo "==> chaos: fault-injected histories replay clean"
timeout 300 cargo test --test chaos_replay -q

# Durability: the storage layer's WAL/checkpoint/recovery suites under
# the release profile (the torn-write injector tests re-exec the test
# binary and abort mid-fsync; release timing shakes out flusher races),
# then the whole-process crash-recovery chaos suite — seeded SIGKILLs
# and self-inflicted torn writes against the real esr-tcpd daemon, each
# followed by a restart on the same data directory — and the checker
# replay of a captured post-crash continuation. All seeds/kill points
# are fixed in the tests; the timeouts are hang guards. WAL-before-page
# (a victim's page LSN must be durable; eviction never waits on the log)
# is pinned by the pager's
# `{volatile_mutations_dirty_a_page_without_covering_it,
# cover_keeps_the_highest_seq}`,
# `pool::tests::frames_the_log_has_not_made_durable_are_skipped_like_pinned_ones`,
# `wal::tests::durable_seq_follows_the_flusher`, and — run in the
# workspace pass, with esr-tso — `durability::tests::{
# a_page_is_never_written_before_the_record_it_installed_is_durable,
# kernel_commits_hold_their_pages_until_durable_and_queries_do_not}`.
# A failed log refuses instead of wedging (workspace pass):
# `wal::tests::flusher_io_error_is_latched_and_releases_every_waiter_not_durable`,
# esr-tso `durability::tests::a_log_that_cannot_sync_fails_the_checkpoint_and_the_snapshot`
# and esr-server `durability_tests::a_failed_log_refuses_commits_instead_of_wedging_the_daemon`.
if [[ "${1:-}" != "quick" ]]; then
    echo "==> durability: cargo test -p esr-storage --release -q"
    timeout 600 cargo test -p esr-storage --release -q
fi
# Streaming checkpoints: the codec's hand-written container headers and
# the checkpoint suite (format pinned byte for byte against the one-shot
# encoding, every truncation and bit flip of a valid file, CRC-valid
# forgeries, .tmp removal on failure) ran in the workspace pass; what it
# cannot run is the memory bound, measured on a process of its own —
# 10 000 objects with full rings must checkpoint within 4 MiB of peak
# RSS and recover within file size + 4 MiB (release: it times nothing,
# but the allocator's behaviour is the release profile's). The paged
# bootstrap is held to the same rule: a fresh heap of 60 000 objects
# (82 MB on disk) streams from the catalog into pages within 4 MiB of
# peak RSS.
echo "==> checkpoints: memory bound (own process, /proc/self/status)"
timeout 300 cargo test --release -p esr-storage --test checkpoint_memory
echo "==> paged bootstrap: memory bound (own process, /proc/self/status)"
timeout 300 cargo test --release -p esr-storage --test paged_bootstrap_memory
echo "==> chaos: process-kill crash recovery (esr-tcpd)"
timeout 600 cargo test -p esr-net --test crash_recovery -q
echo "==> chaos: post-crash histories replay clean"
timeout 300 cargo test --test crash_recovery_replay -q

# The buffer pool's failure paths: SIGKILL and torn-extent injection
# against a daemon whose database dwarfs its page cache, resident→paged
# migration, and the checker replay of a paged post-crash continuation
# under deliberate eviction pressure.
echo "==> chaos: paged crash recovery (esr-tcpd --cache-pages)"
timeout 600 cargo test -p esr-net --test pager_recovery -q
echo "==> chaos: paged post-crash histories replay clean"
timeout 300 cargo test --test pager_crash_replay -q

# Live conformance soak: esr-tcpd --monitor behind the fault proxy. The
# online checker must report zero violations across ESR_SOAK_TXNS
# committed transactions (default 100k here; quick runs keep the test's
# own 3k default), hold its memory gauges bounded by the active window,
# and demonstrably fire on a planted violation. Watchdogged in-test; the
# outer timeout is a hang guard.
if [[ "${1:-}" != "quick" ]]; then
    echo "==> soak: live conformance monitor under fault proxy (100k txns)"
    ESR_SOAK_TXNS="${ESR_SOAK_TXNS:-100000}" \
        timeout 900 cargo test -p esr-net --release --test monitor_soak -q
else
    echo "==> soak: live conformance monitor under fault proxy (quick)"
    timeout 600 cargo test -p esr-net --test monitor_soak -q
fi

# The benchmark harness (`benchmark/`, a workspace of its own, the one
# place wall-clock performance is measured): built against the root
# crates and its tests run, including a 2-second end-to-end smoke of the
# real daemon. A root API change that breaks the imports the harness
# pins fails here instead of at the next benchmark run. No floors: `bench
# compare` judges numbers, against the parent commit.
if [[ "${1:-}" != "quick" ]]; then
    echo "==> benchmark harness: build against the root crates + tests"
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
fi

# Hot-path scalability: the sharded-kernel multi-threaded stress test
# under the release profile (racy schedules need optimised timing).
if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo test -p esr-server --release --test shard_stress -q"
    cargo test -p esr-server --release --test shard_stress -q
fi

# Larger-than-RAM storage, release-mode cache stress: the monitored
# daemon with --cache-pages sized to a quarter of the working set,
# hammered while the live conformance checker must stay at zero
# violations.
if [[ "${1:-}" != "quick" ]]; then
    echo "==> cache stress: monitored daemon at 1/4 residency (20k txns)"
    ESR_PAGER_STRESS_TXNS="${ESR_PAGER_STRESS_TXNS:-20000}" \
        timeout 900 cargo test -p esr-net --release --test pager_stress -q
fi

# Replication: the wire log-shipping suite (real durable primary +
# ReplicaNode over sockets: convergence, SR degeneration, GIL charges,
# live gauges, model equivalence, checker replay), the twin tests on the
# in-process model, and the replication chaos suite — the shipping link
# through the seeded fault proxy, snapshot catch-up past a pruned log,
# and real-process SIGKILL failover with epoch fencing. The timeouts
# are hang guards; all seeds are fixed in-test. What the hub holds is
# pinned by `repl::hub::tests::{
# the_ship_cache_stays_within_its_byte_budget_and_evicts_oldest_first,
# the_ship_cache_stays_dense_and_names_the_cold_range_below_it}` and
# `wal::ship::tests::one_pass_reads_each_segment_of_the_range_once` (in
# the workspace pass), and by the suite's
# `replica_reads_are_captured_only_once_a_log_is_attached` and
# `a_subscriber_behind_the_cache_catches_up_in_one_pass_then_rides_the_cache`;
# the last runs again in release, where the cold pass races a sender
# that is no longer slowed by the debug build.
echo "==> replication: wire log-shipping suite"
timeout 600 cargo test -p esr-net --test replication -q
if [[ "${1:-}" != "quick" ]]; then
    echo "==> replication: cold catch-up past the ship cache (release)"
    timeout 600 cargo test -p esr-net --release --test replication -q \
        a_subscriber_behind_the_cache_catches_up_in_one_pass_then_rides_the_cache
fi
echo "==> replication: in-process twin tests"
timeout 300 cargo test -p esr-sim --test replication_twin -q
echo "==> chaos: replication under link faults, prune, SIGKILL failover"
timeout 600 cargo test -p esr-net --test replication_chaos -q

# Race models: the three riskiest kernel/server interleavings under the
# loom harness (in-tree shim: bounded randomized-schedule stress; the
# real loom crate is API-compatible and can be swapped in when registry
# access is available). Separate target dir — --cfg loom changes the
# build graph and would otherwise thrash the main cache.
echo "==> loom race models (--cfg loom)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    timeout 600 cargo test -q -p esr-tso --test loom_lease --test loom_waitq
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    timeout 600 cargo test -q -p esr-server --test loom_batch

# Sanitizer stages, gated on toolchain availability: this container has
# no network access, so nightly components (miri) and -Zbuild-std (TSan
# needs a rebuilt std) cannot be installed here. Each stage probes and
# skips loudly rather than silently passing, so a CI host that *does*
# have the toolchain runs them for real.
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test (core + kernel unit slice)"
    rustup run nightly cargo miri test -p esr-core --lib -q
    rustup run nightly cargo miri test -p esr-tso --lib -q
else
    echo "==> SKIP miri: nightly cargo-miri not installed (offline container)"
fi

if [[ "$(uname -m)" == "x86_64" ]] \
    && rustup run nightly cargo --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
    echo "==> ThreadSanitizer: esr-tso shard/lease suites"
    RUSTFLAGS="-Z sanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        timeout 900 rustup run nightly cargo test -Z build-std \
        --target x86_64-unknown-linux-gnu -p esr-tso -q
else
    echo "==> SKIP tsan: needs nightly + rust-src for -Zbuild-std (offline container)"
fi

echo "CI OK"
