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
  request stream is pipeline-invariant).

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

    print(
        f"pipeline bench guard OK: warm run 0 distinct, "
        f"{len(doc['configs'])} configs"
    )


if __name__ == "__main__":
    main()
