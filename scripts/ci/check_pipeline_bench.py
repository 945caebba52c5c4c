#!/usr/bin/env python3
"""BENCH_pipeline.json counter guard.

Usage: check_pipeline_bench.py FRESH_JSON

Enforces the pipeline bench's committed invariants instead of merely
uploading the artifact:

* the warm shared-cache run (`shared_cache_run2`) performs **0** distinct
  evaluations — the cross-exploration memoization guarantee;
* every configuration's accounting partitions exactly
  (`evaluations == distinct_evaluations + cache_hits`);
* every configuration agrees on the total evaluation count (the GA's
  request stream is pipeline-invariant);
* when the remote arms ran, they completed real round-trips on a healthy
  fleet (no deaths on an un-faulted run), name their transport, carry one
  negotiated capacity per worker, and satisfy the extended supervision
  ledger `alive == spawned - deaths + respawns + rejoins`.

All counter-based: nothing here reads `wall_s`, so the guard is stable
on the 1-CPU CI runner.
"""

import json
import sys


def main() -> None:
    fresh_path = sys.argv[1]
    with open(fresh_path) as f:
        doc = json.load(f)
    configs = {c["name"]: c for c in doc["configs"]}

    warm = configs.get("shared_cache_run2")
    assert warm is not None, f"missing shared_cache_run2 in {sorted(configs)}"
    assert warm["distinct_evaluations"] == 0, (
        f"warm shared-cache run must be estimator-free: {warm}"
    )

    evaluations = {c["evaluations"] for c in doc["configs"]}
    assert len(evaluations) == 1, (
        f"the GA request stream must be pipeline-invariant: {evaluations}"
    )
    for c in doc["configs"]:
        assert c["evaluations"] == c["distinct_evaluations"] + c["cache_hits"], (
            f"accounting does not partition for {c['name']}: {c}"
        )

    remote_arms = [c for c in doc["configs"] if c.get("remote")]
    for c in remote_arms:
        r = c["remote"]
        assert r["round_trips"] > 0, f"remote arm made no round-trips: {c}"
        assert r["worker_deaths"] == 0, f"un-faulted fleet lost workers: {c}"
        assert r["transport"] in ("stdio", "unix-socket", "tcp"), (
            f"remote arm names an unknown transport: {c}"
        )
        assert r["workers_alive"] == (
            r["workers_spawned"] - r["worker_deaths"] + r["respawns"] + r["rejoins"]
        ), f"supervision ledger does not balance for {c['name']}: {r}"
        assert len(r["capacities"]) == r["workers"], (
            f"one negotiated capacity per worker expected: {r}"
        )
        assert all(cap >= 1 for cap in r["capacities"]), (
            f"capacities are clamped to >= 1 at the hello: {r}"
        )
    names = [c["name"] for c in remote_arms]
    print(
        f"pipeline bench guard OK: warm run 0 distinct, "
        f"{len(doc['configs'])} configs, remote arms {names or 'absent'}"
    )


if __name__ == "__main__":
    main()
