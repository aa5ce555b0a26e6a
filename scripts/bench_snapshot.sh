#!/usr/bin/env bash
# Quick benchmark snapshot: runs the blended top-k pruning bench, the
# cold-start bench, the router throughput bench, the label-resolution
# bench and the router tail latency bench in their reduced CI sweeps
# (small corpora, few reps) and refreshes BENCH_PR5.json / BENCH_PR6.json
# / BENCH_PR7.json / BENCH_PR8.json / BENCH_PR9.json at the repo root.
# Every timed query is bit-parity-checked against the exhaustive oracle
# (or the in-memory build, for cold start; or the HashMap resolver, for
# label resolution), so this doubles as a fast regression gate.
#
# For the full sweeps used in EXPERIMENTS.md, run without the quick flag:
#   cargo bench --bench blended_topk -p newslink-bench
#   cargo bench --bench cold_start -p newslink-bench
#   cargo bench --bench router_throughput -p newslink-bench
#   cargo bench --bench label_resolve -p newslink-bench
#   cargo bench --bench router_tail_latency -p newslink-bench
set -euo pipefail
cd "$(dirname "$0")/.."

NEWSLINK_BENCH_QUICK=1 cargo bench --bench blended_topk -p newslink-bench
# Cold start: process start → first query served, heap vs mmap backend.
NEWSLINK_BENCH_QUICK=1 cargo bench --bench cold_start -p newslink-bench
# Router: scatter-gather throughput vs one standalone process at 1/2/4 shards.
NEWSLINK_BENCH_QUICK=1 cargo bench --bench router_throughput -p newslink-bench
# Label resolution: FST automaton vs HashMap oracle — memory, build and
# parity-checked probe latency, plus the spill-forced TSV ingest round trip.
NEWSLINK_BENCH_QUICK=1 cargo bench --bench label_resolve -p newslink-bench
# Router tail latency: p50/p99 with one ~15ms-delayed replica, hedged
# reads off vs on — asserts hedging cuts p99 and amplification stays
# inside the retry budget (from /metrics counters).
NEWSLINK_BENCH_QUICK=1 cargo bench --bench router_tail_latency -p newslink-bench
