#!/usr/bin/env bash
# Tier-1 gate: release build + full workspace test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# Examples and bench targets (harness = false) are not exercised by
# `cargo test`; compile them so drift is caught here.
cargo build --release --workspace --examples --benches
# The benchmark (perf/) is a package of its own that compiles against
# crate signatures (perf/README.md § "Signatures the benchmark pins");
# build and unit-test it here so a broken pin fails locally, not in the
# driver.
cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --release --offline --manifest-path perf/Cargo.toml
# Lint gate: the workspace (and its vendored shims) must be clippy-clean.
cargo clippy --workspace --all-targets -- -D warnings
# Unsafe containment: the single audited `unsafe` module is
# crates/util/src/mmap.rs (the storage layer's zero-copy foundation).
# Any unsafe fn/impl/block anywhere else in the tree fails the gate,
# and every crate root must carry #![deny(unsafe_code)] so the compiler
# enforces the same boundary. The util root additionally denies
# unsafe_op_in_unsafe_fn so the audited module annotates each unsafe
# operation individually.
if grep -rnE 'unsafe (fn|impl|\{)' crates --include='*.rs' | grep -v '^crates/util/src/mmap.rs:'; then
  echo "ERROR: unsafe usage outside the audited crates/util/src/mmap.rs" >&2
  exit 1
fi
for root in crates/*/src/lib.rs crates/cli/src/main.rs; do
  if ! grep -q 'deny(unsafe_code)' "$root"; then
    echo "ERROR: $root is missing #![deny(unsafe_code)]" >&2
    exit 1
  fi
done
if ! grep -q 'deny(unsafe_op_in_unsafe_fn)' crates/util/src/lib.rs; then
  echo "ERROR: crates/util/src/lib.rs must deny unsafe_op_in_unsafe_fn" >&2
  exit 1
fi
cargo test -q --workspace
# The serving layer's e2e suite is the HTTP smoke gate: real TCP,
# load-shed, deadline and graceful-drain coverage.
cargo test -q -p newslink-serve --test http_e2e
# Segment-parity property suite: sharded/compacted/tombstoned layouts
# must rank bit-identically to the monolithic index.
cargo test -q -p newslink-core --test segment_prop
# Durability fault-injection suite: crash at every write offset, torn
# WAL tails, quarantined segments — acked mutations are never lost,
# unacked ones never half-applied, reload never panics.
cargo test -q -p newslink-core --test crash_recovery
# Durable serving e2e: restart recovery, degraded /healthz, /admin/snapshot.
cargo test -q -p newslink-serve --test durability_e2e
# Pruning-parity property suite: the block-max pruned evaluator must be
# bit-identical to the exhaustive oracle across β, normalization, TA,
# segmentation, tombstones and k.
cargo test -q -p newslink-core --test prune_prop
# Parallel-parity property suite: the intra-query segment fan-out
# (shared atomic pruning floor, 1–6+ segments, tombstones, both storage
# backends) must be bit-identical to the sequential scan — scores, tie
# order and explanations.
cargo test -q -p newslink-core --test parallel_prop
# Resolver-parity property suite: the FST label automaton must match the
# HashMap oracle — S(l) node sets, gazetteer NER spans, and bit-identical
# end-to-end search — on alias-heavy unicode graphs, in memory and after
# a serialized round trip.
cargo test -q -p newslink --test fst_prop
# The real thing: SIGKILL the release binary mid-mutation and restart it
# (ignored by default; needs the release build from the first step).
cargo test -q -p newslink-serve --test kill9_e2e -- --ignored
# Cluster-parity property suite: a router scatter-gathering real shard
# servers over TCP must merge bit-identically to one in-process search.
cargo test -q -p newslink-serve --test cluster_prop
# Cluster failover e2e: two shard groups of two release-binary replicas
# behind a router; kill -9 a primary (reads fail over, writes refuse),
# kill the whole group (honest degraded 503), restart and heal with
# every acked write intact (ignored by default; needs the release build).
cargo test -q -p newslink-serve --test cluster_e2e -- --ignored
# Chaos resilience e2e: seeded in-process TCP fault injection (latency,
# throttling, short writes, resets, black holes, refusals) against the
# router — answers stay bit-identical or honestly degraded, breakers
# trip and heal, the prober never stalls, same seed ⇒ same faults.
cargo test -q -p newslink-serve --test chaos_e2e
