#!/usr/bin/env bash
# Tier-1 gate: release build + full workspace test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# Examples are not exercised by `cargo test`; compile them so drift is
# caught here.
cargo build --release --workspace --examples
# The benchmark (perf/) is a package of its own that compiles against
# crate signatures (perf/README.md § "Signatures the benchmark pins");
# build and unit-test it here so a broken pin fails locally, not in the
# driver.
cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --release --offline --manifest-path perf/Cargo.toml
# Lint gate: the workspace (and its vendored shims) must be clippy-clean.
cargo clippy --workspace --all-targets -- -D warnings
# Doc gate: an intra-doc link to a deleted or private item fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# No unsafe code: any unsafe fn/impl/block anywhere under crates/ fails
# the gate, and every crate root must carry #![forbid(unsafe_code)] so
# the compiler enforces the same rule (forbid cannot be overridden by an
# inner allow).
if grep -rnE 'unsafe (fn|impl|\{)' crates --include='*.rs'; then
  echo "ERROR: unsafe usage under crates/" >&2
  exit 1
fi
for root in src/lib.rs crates/*/src/lib.rs crates/cli/src/main.rs; do
  if ! grep -q 'forbid(unsafe_code)' "$root"; then
    echo "ERROR: $root is missing #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done
# No poll-and-sleep accept: every accept loop under crates/ blocks in
# accept and is woken on shutdown by newslink_util::wake_accept, so
# nothing may put a listener (or socket) into nonblocking mode.
if grep -rnF 'set_nonblocking(true)' crates --include='*.rs'; then
  echo "ERROR: set_nonblocking(true) under crates/ (use a blocking accept + wake_accept)" >&2
  exit 1
fi
# The workspace run covers the gate suites; what each one pins:
# http_e2e: HTTP smoke over real TCP (load-shed, deadlines, graceful drain).
# segment_prop: sharded, tombstoned, inserted and compacted layouts rank like the monolith.
# crash_recovery: a crash at any write offset never loses an acked write or half-applies one.
# durability_e2e: restart recovery, degraded /healthz, /admin/snapshot.
# snapshot_backends: a loaded snapshot ranks bit-identically to its source; every section byte flip errors strict and quarantines one section tolerant; an old-version data dir is refused typed and untouched.
# prune_prop: the block-max pruned evaluator (the only one; bow_topk runs on it too) is bit-identical to the exhaustive oracle.
# cluster_prop: a router over real shard servers merges like one in-process search.
# chaos_e2e: seeded TCP faults leave routed answers bit-identical or honestly degraded.
# paper_tables: seeded Tiny paper tables are byte-identical to tests/golden/paper_tables.
# ne_oracle: both embedding models are field-identical to the pre-merge searches.
# ne_oracle at scale: the same on perf's 10k-node world (random 1–4-label groups; default, single_path, budget-limited, one-source), ignored by default and run in release below.
# cli: the newslink binary runs generate-world → generate-corpus → build-index → search, and refuses removed commands and flags and ignored flags.
cargo test -q --workspace
# The NE oracle at perf's graph size (ignored by default: a few seconds
# in release, minutes in debug).
cargo test -q --release -p newslink-embed --lib both_models_match_the_pre_merge_searches_at_scale -- --ignored
# The vendored shims are path dependencies, not workspace members, so the
# workspace run above skips their own tests; run them explicitly.
cargo test -q --offline -p parking_lot -p crossbeam -p serde_json -p proptest
# The real thing: SIGKILL the release binary mid-mutation and restart it
# (ignored by default; needs the release build from the first step).
cargo test -q -p newslink-serve --test kill9_e2e -- --ignored
# Cluster failover e2e: two shard groups of two release-binary replicas
# behind a router; kill -9 a primary (reads fail over, writes refuse),
# kill the whole group (honest degraded 503), restart and heal with
# every acked write intact (ignored by default; needs the release build).
cargo test -q -p newslink-serve --test cluster_e2e -- --ignored
