#!/usr/bin/env python3
"""Dominance-kernel regression guard.

Usage: check_moga_kernel.py BASELINE_JSON FRESH_JSON

Counter-based (deterministic), so it is stable on a noisy 1-CPU runner.
Three guarded cases:

* N=1024/M=3 (the staircase tier): scalar comparisons within 5% of the
  committed BENCH_moga.json baseline, and 8x below the naive pairwise
  bill.
* N=1024/M=4 (the production DCIM shape, presorted one-direction fill):
  the effective counter `comparisons + word_ops` within 5% of the
  baseline, and at least 4x below the naive `N*(N-1)/2` bill.
* N=200/M=4 (the GA's selection pool: 200 rows, ~80 distinct): the
  effective counter at most the bill of sorting the distinct rows alone
  (`distinct_bill`), so copies cost nothing, and no warm allocation.
"""

import json
import sys


def case(doc, n, m):
    for c in doc["cases"]:
        if c["n"] == n and c["m"] == m:
            return c
    raise SystemExit(f"missing case n={n} m={m}")


def effective(c):
    # Older baselines predate the word_ops counter.
    return c["comparisons"] + c.get("word_ops", 0)


def main() -> None:
    baseline_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    b, f_ = case(baseline, 1024, 3), case(fresh, 1024, 3)
    limit = b["comparisons"] * 1.05
    assert f_["comparisons"] <= limit, (
        f"dominance comparisons regressed at N=1024/M=3: "
        f"{f_['comparisons']} > {limit:.0f} (baseline {b['comparisons']})"
    )
    assert f_["comparisons"] * 8 < f_["naive_comparisons"], (
        f"kernel no longer asymptotically below the pairwise bill: {f_}"
    )
    print(
        "moga kernel guard OK (M=3):",
        f_["comparisons"],
        "vs baseline",
        b["comparisons"],
        f"(naive {f_['naive_comparisons']})",
    )

    b4, f4 = case(baseline, 1024, 4), case(fresh, 1024, 4)
    limit4 = effective(b4) * 1.05
    assert effective(f4) <= limit4, (
        f"effective dominance ops regressed at N=1024/M=4: "
        f"{effective(f4)} > {limit4:.0f} (baseline {effective(b4)})"
    )
    assert effective(f4) * 4 <= f4["naive_comparisons"], (
        f"presorted M=4 tier lost its 4x margin over the pairwise bill: {f4}"
    )
    assert f4["word_ops"] > 0, (
        f"presorted M=4 tier not engaged (word_ops=0 at N=1024/M=4): {f4}"
    )
    assert f4["allocations"] == 0, f"warm M=4 sorts must not allocate: {f4}"
    print(
        "moga kernel guard OK (M=4):",
        f"{f4['comparisons']} comparisons + {f4['word_ops']} word ops",
        "vs baseline",
        effective(b4),
        f"(naive {f4['naive_comparisons']})",
    )

    pool = case(fresh, 200, 4)
    assert pool["distinct"] < pool["n"], f"GA-pool case has no duplicate rows: {pool}"
    assert effective(pool) <= pool["distinct_bill"], (
        f"M=4 sort bills duplicate rows: {effective(pool)} effective ops > "
        f"{pool['distinct_bill']} for the {pool['distinct']} distinct rows alone"
    )
    assert pool["allocations"] == 0, f"warm GA-pool sorts must not allocate: {pool}"
    print(
        "moga kernel guard OK (GA pool):",
        f"{effective(pool)} effective ops for N={pool['n']},",
        f"{pool['distinct']} distinct rows alone bill {pool['distinct_bill']}",
    )


if __name__ == "__main__":
    main()
